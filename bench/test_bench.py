"""Tests of the benchmark itself.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOAD_NAMES = sorted(workloads.WORKLOADS)
MIN_OPS = harness.min_ops


@pytest.fixture(autouse=True)
def small_runs(monkeypatch, tmp_path):
    """One set-up per run, no minimum op count, a short Gross-Zagier pass,
    span files in a temporary directory."""
    monkeypatch.setattr(harness, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(harness, "SETUP_REPS", 1)
    monkeypatch.setattr(harness, "SETUP_MIN_S", 0)
    monkeypatch.setattr(harness, "min_ops", lambda pct: 1)
    monkeypatch.setattr(workloads.GzSweep, "BOUND", 100)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_min_ops_leave_ten_samples_beyond_the_tail(name):
    pct = workloads.WORKLOADS[name].tail_pct
    needed = MIN_OPS(pct)
    assert harness.percentile(list(range(needed)), pct)[1] >= 10
    assert harness.percentile(list(range(needed - 1)), pct)[1] < 10


def _corrupt(name, out, pkg):
    flog = pkg.arith.FactoredLog({2: 1})
    if name == "kappa-oracle":
        formula, oracle = out
        return formula, dataclasses.replace(oracle, value=oracle.value + flog)
    if name == "cm-report":
        report, *rest = out
        return (dataclasses.replace(report, rational_part=report.rational_part + flog),
                *rest)
    result, *rest = out
    return (dataclasses.replace(result, product=result.product + 1), *rest)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_corrupted_output_and_exception_count_as_failed(name, monkeypatch):
    cls = workloads.WORKLOADS[name]
    original = cls.op
    calls = []

    def op(self, item):
        calls.append(item)
        if len(calls) == 2:
            raise ArithmeticError("injected")
        out = original(self, item)
        return _corrupt(name, out, self.pkg) if len(calls) == 1 else out

    monkeypatch.setattr(cls, "op", op)
    _, result = harness.run(name, 1, 0.5, False, SRC)
    assert result["attempted"] > 2
    assert result["failed"] == 2
    assert result["correct"] is False


def test_printed_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == WORKLOAD_NAMES
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in WORKLOAD_NAMES:
        for trace in (False, True):
            _, result = harness.run(name, 2, 0.3, trace, SRC)
            assert result["correct"], (name, trace)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == expected[trace], (name, trace)


def _attribute_snapshot(pkg):
    holders = tracer.package_modules(pkg)
    for _, module, path, *_ in tracer.SPANS + tracer.COUNTS:
        owner, _ = tracer._resolve(pkg, module, path)
        if isinstance(owner, type):
            holders.append(owner)
    return {(id(h), attr): value for h in holders for attr, value in vars(h).items()}


@pytest.mark.parametrize("trace", [False, True])
def test_run_leaves_wrapped_attributes_identical(trace, monkeypatch):
    loop = harness._loop
    seen = {}

    def checked_loop(wl, seconds, tr):
        before = _attribute_snapshot(wl.pkg)
        assert not any(hasattr(v, "traced_layer") for v in before.values())
        original_op = type(wl).op

        def op(self, item):
            if not trace:
                # tracing off: the originals are in place while ops run
                seen.setdefault("during", _attribute_snapshot(self.pkg))
            return original_op(self, item)

        monkeypatch.setattr(type(wl), "op", op)
        series = loop(wl, seconds, tr)
        monkeypatch.setattr(type(wl), "op", original_op)
        after = _attribute_snapshot(wl.pkg)
        seen["ok"] = before.keys() == after.keys() and all(
            after[k] is v for k, v in before.items()
        )
        if "during" in seen:
            during = seen["during"]
            seen["ok_during"] = all(during[k] is v for k, v in before.items())
        return series

    monkeypatch.setattr(harness, "_loop", checked_loop)
    _, result = harness.run("kappa-oracle", 3, 0.3, trace, SRC)
    assert result["correct"]
    assert seen["ok"]
    if not trace:
        assert seen["ok_during"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_same_seed_same_input_digest(name):
    pkg = harness.load_package(SRC)
    cls = workloads.WORKLOADS[name]
    first, again, other = cls(pkg, 7), cls(pkg, 7), cls(pkg, 8)
    assert first.input_digest == again.input_digest
    assert first.input_digest != other.input_digest


def test_cli_prints_result_last_and_fails_without_source(tmp_path):
    cmd = [sys.executable, "bench/run.py", "--workload", "kappa-oracle",
           "--seed", "1", "--seconds", "0.3", "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]

    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    bare = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert bare.returncode != 0
    assert "{" not in bare.stdout
