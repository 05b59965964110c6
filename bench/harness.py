"""Closed-loop harness: one client, no threads, each op waits for its result.

`run` sets the workload up several times (fresh import of the package
plus input generation) and reports the median, then runs the workload's
blocks until the deadline.  Only the library request of each op is timed;
the output check runs after it, outside the timed region.

Timings are scaled to a reference speed.  The host's speed drifts by up to
2x within seconds (a fixed pure-Python loop shows it too), so a SIGALRM
timer runs a fixed calibration kernel every CALIBRATE_EVERY_S, also in the
middle of a long op.  Each timed interval loses the kernel time inside it
and is multiplied by REF_KERNEL_S / (mean kernel time during it and just
before and after).  The unscaled figures are printed among the detail
lines.

In a traced run the blocks alternate between untraced and traced, so both
throughputs come from the same process and the same input stream; their
difference is the tracing overhead.  End-to-end metrics come only from
untraced runs.
"""

from __future__ import annotations

import bisect
import importlib
import itertools
import math
import os
import platform
import resource
import signal
import statistics
import sys
import traceback
from array import array
from fractions import Fraction
from time import perf_counter

from tracer import Tracer, metric_units
from workloads import WORKLOADS

PACKAGE = "borcherds_cm"
# Set-up repeats at least SETUP_REPS times and for SETUP_MIN_S, so that
# the median of a cheap set-up rests on more samples.
SETUP_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 20
CALIBRATE_EVERY_S = 0.025
# Time of calibration_kernel on the machine the benchmark was defined on
# (Intel Xeon, 2 vCPUs, Python 3.11.7), where its median over a run
# ranged 1.3-2.2 ms.
REF_KERNEL_S = 1.5e-3
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_package(src):
    """Import the package afresh from `src`, dropping any loaded copy."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if not os.path.abspath(pkg.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"{PACKAGE} was imported from {pkg.__file__}, not {src}")
    return pkg


_KERNEL_TABLE = [0] * 64


def calibration_kernel():
    """Fixed interpreter work that does not touch the package.  It creates
    no object the garbage collector tracks, so it does not move the
    collections of the workload it interrupts."""
    acc = 0
    table = _KERNEL_TABLE
    for i in range(1, 11000):
        acc += i * i % 7
        table[i & 63] = acc & 1023
    return acc


class Calibration:
    """The kernel runs, as (start, end) pairs, from a SIGALRM timer that is
    armed while the context is entered.  The handler runs in the main
    thread between bytecodes, so a kernel run lies wholly inside or wholly
    outside any interval the harness times."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self._running = False

    def measure(self, *_signal_args):
        if self._running:  # a stalled kernel run caught the next signal
            return
        self._running = True
        start = perf_counter()
        calibration_kernel()
        self.starts.append(start)
        self.ends.append(perf_counter())
        self._running = False

    def __enter__(self):
        self.measure()
        self._previous = signal.signal(signal.SIGALRM, self.measure)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.measure()
        self._busy = [0.0, *itertools.accumulate(self.times)]

    @property
    def times(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def _index(self, t0, t1):
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def inside(self, t0, t1):
        """Kernel time within [t0, t1]."""
        i0, i1 = self._index(t0, t1)
        return self._busy[i1] - self._busy[i0]

    def raw(self, t0, t1):
        """The interval's length without kernel time."""
        return t1 - t0 - self.inside(t0, t1)

    def scaled(self, t0, t1):
        """raw(t0, t1) at reference speed."""
        i0, i1 = self._index(t0, t1)
        lo, hi = max(i0 - 1, 0), min(i1 + 1, len(self.starts))
        mean = (self._busy[hi] - self._busy[lo]) / (hi - lo)
        return self.raw(t0, t1) * REF_KERNEL_S / mean


def percentile(sorted_values, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(Fraction(str(pct)) * n / 100))
    return sorted_values[rank - 1], n - rank


def min_ops(pct):
    """The fewest samples that leave 10 beyond the percentile pct."""
    return math.ceil(1000 / (100 - Fraction(str(pct))))


class Series:
    """Timed intervals and outcomes of the ops of one mode (traced or not)."""

    def __init__(self):
        self.t0 = array("d")
        self.t1 = array("d")
        self.failed = 0

    @property
    def ops(self):
        return len(self.t0)

    def latencies(self, measure):
        return [measure(a, b) for a, b in zip(self.t0, self.t1)]


def _rate(latencies):
    busy = sum(latencies)
    return len(latencies) / busy if busy else 0.0


def _report_failure(wl, item, exc):
    print(f"FAILED {wl.name} op {item!r:.200}", file=sys.stderr)
    if exc is not None:
        traceback.print_exception(exc, file=sys.stderr)


def _loop(wl, seconds, tracer):
    """Runs blocks until the deadline has passed and, in an untraced run,
    the tail percentile has 10 samples beyond it; a traced run needs one
    op of each mode."""
    series = {False: Series(), True: Series()}
    needed = min_ops(wl.tail_pct)

    def done():
        if perf_counter() < deadline:
            return False
        if tracer is None:
            return series[False].ops >= needed
        return series[False].ops and series[True].ops

    deadline = perf_counter() + seconds
    traced = False
    for block in wl.blocks():
        s = series[traced]
        if traced:
            tracer.install()
        try:
            for item in block:
                wl.before_op()
                if traced:
                    tracer.active = True
                    root = tracer.open(0)
                exc = out = None
                t0 = perf_counter()
                try:
                    out = wl.op(item)
                except Exception as e:  # a failed op is counted, not fatal
                    exc = e
                t1 = perf_counter()
                if traced:
                    tracer.close(root)
                    tracer.active = False
                s.t0.append(t0)
                s.t1.append(t1)
                ok = False
                if exc is None:
                    try:
                        ok = wl.check(item, out)
                    except Exception as e:
                        exc = e
                if ok:
                    if traced:
                        wl.observe(item, out)
                else:
                    if not s.failed and not series[not traced].failed:
                        _report_failure(wl, item, exc)
                    s.failed += 1
                if not wl.whole_blocks and done():
                    break
        finally:
            if traced:
                tracer.uninstall()
        if done():
            break
        if tracer is not None:
            traced = not traced
    return series


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _setup(cls, src, seed, trace):
    """Returns the workload, the tracer (traced run only) and the set-up
    intervals."""
    intervals = []
    tracer = None
    start = perf_counter()
    for _ in range(1 if trace else SETUP_MAX_REPS):
        t0 = perf_counter()
        pkg = load_package(src)
        if trace:
            tracer = Tracer(pkg)
            tracer.install()
            tracer.active = True
        try:
            wl = cls(pkg, seed)
        finally:
            if trace:
                tracer.active = False
                tracer.uninstall()
        intervals.append((t0, perf_counter()))
        if len(intervals) >= SETUP_REPS and perf_counter() - start >= SETUP_MIN_S:
            break
    return wl, tracer, intervals


def run(name, seed, seconds, trace, src):
    """Run one workload; returns (detail key/value pairs, result object)."""
    with Calibration() as cal:
        wl, tracer, setups = _setup(WORKLOADS[name], src, seed, trace)
        series = _loop(wl, seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    plain, traced = series[False], series[True]
    attempted = plain.ops + traced.ops
    failed = plain.failed + traced.failed
    details = [
        ("workload", name),
        ("seed", seed),
        ("input_digest", wl.input_digest),
        ("trace", int(trace)),
        ("ops", attempted),
        ("failed", failed),
        ("failed_share", failed / attempted if attempted else 1.0),
    ]

    if trace:
        layers = tracer.layer_metrics(cal.inside)
        layers.update(wl.layer_extras(layers))
        untraced_rate = _rate(plain.latencies(cal.scaled))
        traced_rate = _rate(traced.latencies(cal.scaled))
        layers["trace.untraced_ops_per_s"] = untraced_rate
        layers["trace.traced_ops_per_s"] = traced_rate
        layers["trace.overhead_ops_per_s"] = untraced_rate - traced_rate
        metrics = {
            k: {"value": layers.get(k, 0), "unit": u} for k, u in metric_units().items()
        }
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.tsv.gz")
        tracer.dump(path)
        details += [
            ("untraced_ops", plain.ops),
            ("traced_ops", traced.ops),
            ("spans_file", os.path.relpath(path, os.path.dirname(HERE))),
        ]
    else:
        lat = sorted(plain.latencies(cal.scaled))
        raw = sorted(plain.latencies(cal.raw))
        tail, beyond = percentile(lat, wl.tail_pct)
        values = {
            "setup_s": statistics.median(cal.scaled(a, b) for a, b in setups),
            "ops_per_s": _rate(lat),
            "op_p50_ms": percentile(lat, 50)[0] * 1e3,
            "op_tail_ms": tail * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        details += [
            ("tail_pct", wl.tail_pct),
            ("tail_n", len(lat)),
            ("tail_beyond", beyond),
            ("busy_s", sum(raw)),
            ("raw_setup_s", statistics.median(cal.raw(a, b) for a, b in setups)),
            ("raw_ops_per_s", _rate(raw)),
            ("raw_op_p50_ms", percentile(raw, 50)[0] * 1e3),
            ("raw_op_tail_ms", percentile(raw, wl.tail_pct)[0] * 1e3),
        ]

    details += [
        ("calibration_runs", len(cal.starts)),
        ("calibration_median_ms", statistics.median(cal.times) * 1e3),
        ("python", platform.python_version()),
        ("machine", platform.machine()),
        ("cpu", _cpu_model()),
        ("nproc", os.cpu_count()),
    ]
    result = {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return details, result
