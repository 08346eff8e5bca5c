"""Tests of the benchmark itself; run with ``pytest perf/ -q``.

Every workload runs once at a tiny budget, untraced and traced, and must
emit exactly the metric names ``BENCHMARK.json`` declares.  Two injected
slowdowns, each a class-level monkeypatch of one layer, must make
``compare.py`` report the right end-to-end metric worse and name that
layer.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import shutil
import subprocess
import sys
import time

import pytest

import harness

harness.bootstrap()

import bench  # noqa: E402
import compare  # noqa: E402
import sim  # noqa: E402
import svc  # noqa: E402
import sweep  # noqa: E402

BENCHMARK = harness.load_benchmark()
END_TO_END = {spec["name"] for spec in BENCHMARK["end_to_end"]}
PER_LAYER = {spec["name"] for spec in BENCHMARK["per_layer"]}
# Tiny budgets: every workload path, in seconds rather than minutes.
SWEEP_SMOKE = sweep.SweepBudget(benchmarks=("gzip",),
                                strategies=("base", "fdrt"),
                                instructions=300, warmup=100, setup_starts=1)
SVC_SMOKE = svc.SvcBudget(instructions=300, warmup=100, repeat_keys=3,
                          setup_spawns=1)


def _smoke(workload: str, trace: int, seed: int = 3, seconds: float = 0.2):
    if workload in sim.WORKLOADS:
        budget = dataclasses.replace(
            sim.WORKLOADS[workload], warmup=500, instructions=2_000,
            setup_pairs=3)
        return sim.run_workload(workload, seed, seconds, trace, budget)
    if workload == sweep.NAME:
        return sweep.run_workload(seed, seconds, trace, SWEEP_SMOKE)
    return svc.run_workload(seed, 2.0, trace, SVC_SMOKE)


def _record(run) -> dict:
    record = run.record()
    record["metrics"] = bench.contract_metrics(run, BENCHMARK)
    return record


def test_every_workload_emits_the_declared_metrics():
    observed, figures = set(), set()
    for spec in BENCHMARK["workloads"]:
        for trace in (0, 1):
            run = _smoke(spec["name"], trace)
            record = _record(run)
            assert record["correct"], record["failures"]
            assert record["attempted"] >= 1
            expected = PER_LAYER if trace else END_TO_END
            assert set(record["metrics"]) == expected
            if trace:
                observed |= set(run.metrics)
            else:
                assert all(value["value"] > 0
                           for value in record["metrics"].values())
                figures |= set(record["figures"])
    # Every declared per-layer metric is measured by some workload, and
    # every figure compare.py bounds is reported by some workload.
    assert observed == PER_LAYER
    assert figures == set(compare.FIGURES) | {
        "failed_frac", "setup_s.raw", "setup_s.ref_ms"}


def test_setup_time_is_scaled_to_the_nominal_host():
    run = harness.Run("sim-mcf-fdrt", 1, 1.0, 0)
    slow = harness.HostSpeed()
    slow.samples = [2 * harness.NOMINAL_REF_S]
    run.setup_metric(0.5, slow)
    assert run.metrics["setup_s"]["value"] == 0.25
    assert run.figures["setup_s.raw"]["value"] == 0.5
    assert run.figures["setup_s.ref_ms"]["value"] == (
        2e3 * harness.NOMINAL_REF_S)


def test_traced_run_matches_untraced_and_restores_classes():
    from repro.assign.slot import SlotBaseline
    from repro.core.pipeline import Pipeline

    step = Pipeline.__dict__["step"]
    run = _smoke("sim-adpcm-issue", trace=1)
    # The traced and untraced SimResults are compared inside the run.
    assert run.failures == []
    assert Pipeline.__dict__["step"] is step
    assert "reorder" not in SlotBaseline.__dict__
    assert run.metrics["assign.steer.calls_per_kinst"]["value"] > 0


def test_cli_prints_the_contract_line():
    proc = subprocess.run(
        [sys.executable, str(harness.PERF_DIR / "bench.py"),
         "--workload", "sim-mcf-fdrt", "--seed", "2", "--seconds", "1",
         "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == END_TO_END


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(harness.BENCHMARK_FILE, tmp_path / "BENCHMARK.json")
    shutil.copytree(harness.PERF_DIR, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "perf/bench.py", "--workload", "sim-mcf-fdrt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _alternating(workload: str, slowdown, pairs: int = 10):
    """Ten alternating (parent, change) pairs plus one traced run each."""
    parent, change = [], []
    for i in range(pairs):
        for slow in ((False, True) if i % 2 == 0 else (True, False)):
            with slowdown() if slow else contextlib.nullcontext():
                record = _record(_smoke(workload, trace=0))
            assert record["correct"], record["failures"]
            (change if slow else parent).append(record)
    for slow, side in ((False, parent), (True, change)):
        with slowdown() if slow else contextlib.nullcontext():
            side.append(_record(_smoke(workload, trace=1)))
    return parent, change


def _row(rows, workload: str, metric: str) -> compare.Row:
    [row] = [r for r in rows if r.workload == workload and r.metric == metric]
    return row


def test_slow_dispatch_is_named(monkeypatch):
    from repro.cluster.cluster import Cluster

    dispatch_cycle = Cluster.dispatch_cycle

    def busy_dispatch(self, *args):
        end = time.perf_counter() + 20e-6
        while time.perf_counter() < end:
            pass
        return dispatch_cycle(self, *args)

    @contextlib.contextmanager
    def slowdown():
        with monkeypatch.context() as patch:
            patch.setattr(Cluster, "dispatch_cycle", busy_dispatch)
            yield

    parent, change = _alternating("sim-mcf-fdrt", slowdown)
    row = _row(compare.compare(parent, change, BENCHMARK),
               "sim-mcf-fdrt", "sim_kips")
    assert row.verdict == "worse", compare.render([row])
    assert row.layer == "cluster.dispatch_cycle.self_share"


def test_slow_cache_load_is_named(monkeypatch):
    from repro.runtime.cache import ResultCache

    load = ResultCache.load

    def sleepy_load(self, job):
        time.sleep(0.002)
        return load(self, job)

    @contextlib.contextmanager
    def slowdown():
        with monkeypatch.context() as patch:
            patch.setattr(ResultCache, "load", sleepy_load)
            yield

    parent, change = _alternating("sweep-matrix", slowdown)
    row = _row(compare.compare(parent, change, BENCHMARK),
               "sweep-matrix", "sweep_warm_ms.p50")
    assert row.verdict == "worse", compare.render([row])
    assert row.layer == "runtime.cache.load_ms.p50"


def _fake_run(kips: float, failed: int = 0) -> dict:
    return {"workload": "sim-mcf-fdrt", "trace": 0, "attempted": 10,
            "failed": failed, "metrics": {},
            "figures": {"sim_kips": {"value": kips, "unit": "kinst/s"}}}


def test_more_failures_refuse_a_gain():
    parent = [_fake_run(30.0 + i / 100) for i in range(10)]
    change = [_fake_run(40.0 + i / 100, failed=i % 2) for i in range(10)]
    rows = compare.compare(parent, change, BENCHMARK)
    assert _row(rows, "sim-mcf-fdrt", "sim_kips").verdict == "unresolved"
    failed = _row(rows, "sim-mcf-fdrt", "failed_frac")
    assert (failed.a, failed.b, failed.verdict) == (0.0, 0.05, "worse")
    clean = compare.compare(parent, [_fake_run(40.0 + i / 100)
                                     for i in range(10)], BENCHMARK)
    assert _row(clean, "sim-mcf-fdrt", "sim_kips").verdict == "better"
    assert _row(clean, "sim-mcf-fdrt", "failed_frac").verdict == "same"


@pytest.mark.parametrize("better,a,b,expected", [
    ("higher", [10.0] * 10, [12.0] * 10, "better"),
    ("higher", [10.0] * 10, [8.0] * 10, "worse"),
    ("higher", [10.0] * 10, [9.5] * 10, "same"),
    ("lower", [10.0] * 9, [5.0] * 9, "unresolved"),
    ("lower", [10, 14, 10, 14, 10, 14, 10, 14, 10, 14],
     [12.0] * 10, "unresolved"),
])
def test_verdict_rule(better, a, b, expected):
    assert compare.verdict(a, b, better, bound=0.1) == expected


@pytest.mark.parametrize("b,expected", [(0.99, "same"), (0.97, "worse")])
def test_absolute_bound(b, expected):
    assert compare.verdict([1.0] * 10, [b] * 10, "higher", bound=0.02,
                           absolute=True) == expected


@pytest.mark.parametrize("a,b,expected", [
    ([5.0, 7.0], [5.0, 7.0], "same"),
    ([5.0, 7.0], [5.0, 6.0], "unresolved"),
])
def test_exact_counts_need_no_ten_pairs(a, b, expected):
    assert compare.verdict(a, b, "lower", bound=None) == expected
