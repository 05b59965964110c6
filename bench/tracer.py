"""Span tracing of the package's layers, installed only in a traced run.

The tracer wraps the public entry points of each module where their
callers look them up: every module attribute (and class attribute alias)
that holds the original function is replaced by a wrapper, and the
original is put back by `uninstall`.  Nothing in the package is edited and
nothing is wrapped unless a traced run asks for it, so an untraced run
executes the original objects.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out once, when the run ends.  A layer's self time is its span
durations minus the parts covered by its child spans.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter


def _nonzero(value):
    return 0 if value.is_zero() else 1


def _vector_total(norms):
    return sum(norms.values())


# (layer name, module, attribute path, work count taken from the result)
SPANS = (
    ("arith.factorize", "arith", "factorize", None),
    ("arith.hilbert_symbol", "arith", "hilbert_symbol", None),
    ("quadfield.make_field", "quadfield", "make_field", None),
    ("quadfield.kappa_zero_constant", "quadfield", "kappa_zero_constant", None),
    ("quadfield.reduced_forms", "quadfield", "reduced_forms", None),
    ("kappa.kappa_positive", "kappa", "kappa_positive", _nonzero),
    ("kappa.kappa_at", "kappa", "kappa_at", None),
    ("locwhit.eisenstein_deriv_coeff", "locwhit", "eisenstein_deriv_coeff", None),
    ("lattice.vector_norms_up_to", "lattice", "PosLattice.vector_norms_up_to",
     _vector_total),
    ("lattice.coset_of_element", "lattice", "coset_of_element", None),
    ("lattice.split_lattice", "lattice", "SplitLattice.__init__", None),
    ("lattice.enumerate_dual_cosets", "lattice", "enumerate_dual_cosets", None),
    ("forms.classical_qexp", "forms", "classical_qexp", None),
    ("forms.fourier_form", "forms", "FourierForm.__init__", None),
    ("cmvalue.log_psi_product", "cmvalue", "log_psi_product", None),
    ("cmvalue.phi_average", "cmvalue", "phi_average", None),
    ("cmvalue.kappa_eta", "cmvalue", "kappa_eta", None),
    ("cmvalue.numeric", "cmvalue", "CMValueReport.numeric", None),
    ("gzoracle.gz_product", "gzoracle", "gz_product", None),
    ("gzoracle.j_value", "gzoracle", "j_value", None),
)

# Calls too frequent and too small for a span each: counted only.
COUNTS = (
    ("arith.factoredlog.created", "arith", "FactoredLog.__init__"),
    ("forms.qexp_mul.calls", "forms", "QExpansion.__mul__"),
)

ROOT = "bench.op"


def metric_units():
    """Every per-layer metric the traced run prints, name -> unit."""
    units = {}
    for name, _, _, _ in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name, _, _ in COUNTS:
        units[name] = "count"
    units["kappa.nonzero_ratio"] = "ratio"
    units["lattice.vector_norms_up_to.vectors"] = "count"
    units["gzoracle.j_per_needed"] = "ratio"
    units["gzoracle.digits_max"] = "digits"
    units["bench.unattributed_s"] = "s"
    units["trace.spans"] = "count"
    units["trace.untraced_ops_per_s"] = "1/s"
    units["trace.traced_ops_per_s"] = "1/s"
    units["trace.overhead_ops_per_s"] = "1/s"
    return units


def package_modules(pkg):
    """The loaded modules of the package `pkg`, itself included."""
    prefix = pkg.__name__
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == prefix or name.startswith(prefix + "."))
    ]


def _resolve(pkg, module, path):
    """(the module or class that defines the target, the target)."""
    owner = getattr(pkg, module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, owner.__dict__[attr]


def _mark(wrapper, fn, name):
    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    wrapper.traced_layer = name
    return wrapper


class Tracer:
    """Wrappers for one loaded package, plus the spans they record.

    `active` gates recording while the wrappers are installed, so the
    harness can keep its own checks out of the layer figures.
    """

    def __init__(self, pkg):
        self.pkg = pkg
        self.names = [ROOT] + [name for name, _, _, _ in SPANS]
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.sid = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.work = {name: 0 for name, _, _, _ in SPANS}
        self.counts = {name: 0 for name, _, _ in COUNTS}
        self.active = False
        self._current = -1
        self._patches = []
        self._targets = []
        for name, module, path, work in SPANS:
            owner, fn = _resolve(pkg, module, path)
            self._targets.append((owner, fn, self._span_wrapper(name, fn, work)))
        for name, module, path in COUNTS:
            owner, fn = _resolve(pkg, module, path)
            self._targets.append((owner, fn, self._count_wrapper(name, fn)))

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn, work):
        sid = self.name_id[name]
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer.open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if work is not None:
                tracer.work[name] += work(result)
            return result

        return _mark(wrapper, fn, name)

    def _count_wrapper(self, name, fn):
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return _mark(wrapper, fn, name)

    def open(self, sid):
        i = len(self.sid)
        self.sid.append(sid)
        self.parent.append(self._current)
        self.end.append(0.0)
        self._current = i
        self.start.append(perf_counter())
        return i

    def close(self, i):
        self.end[i] = perf_counter()
        self._current = self.parent[i]

    # -- installation -------------------------------------------------------

    def install(self):
        """Replace every reference to a traced function by its wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = package_modules(self.pkg)
        for owner, fn, wrapper in self._targets:
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        self._patches.append((holder, attr, fn))
                        setattr(holder, attr, wrapper)

    def uninstall(self):
        """Put back every original object that `install` replaced."""
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches = []

    # -- results ------------------------------------------------------------

    def layer_metrics(self, excluded):
        """calls and self time per layer, from the recorded spans.
        excluded(t0, t1) is time within [t0, t1] that belongs to no span
        (the harness's calibration kernel)."""
        n = len(self.sid)
        own = [e - s - excluded(s, e) for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += own[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            s = self.sid[i]
            calls[s] += 1
            self_s[s] += own[i] - child[i]
        out = {}
        for name, _, _, _ in SPANS:
            s = self.name_id[name]
            out[f"{name}.calls"] = calls[s]
            out[f"{name}.self_s"] = self_s[s]
        out.update(self.counts)
        kp = calls[self.name_id["kappa.kappa_positive"]]
        out["kappa.nonzero_ratio"] = self.work["kappa.kappa_positive"] / kp if kp else 0.0
        out["lattice.vector_norms_up_to.vectors"] = self.work["lattice.vector_norms_up_to"]
        out["bench.unattributed_s"] = self_s[self.name_id[ROOT]]
        out["trace.spans"] = n
        return out

    def dump(self, path):
        """Write the spans as gzip'd tab-separated lines:
        index, name, start_s, end_s, parent index (-1 for a root)."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            names = self.names
            for i in range(len(self.sid)):
                fh.write(
                    f"{i}\t{names[self.sid[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\n"
                )
