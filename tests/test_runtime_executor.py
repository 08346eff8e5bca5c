"""Tests of the execution engine: parallel equivalence, warm path, failures."""

import concurrent.futures
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.assign.base import StrategySpec
from repro.cluster.config import MachineConfig
from repro.experiments.runner import run_matrix
from repro.runtime import (
    ExperimentEngine,
    JobFailedError,
    ResultCache,
    SimJob,
)
from repro.runtime import executor as executor_module
from repro.runtime import job as job_module
from repro.runtime import settings

TINY = dict(instructions=400, warmup=200)
BENCHES = ("gzip", "bzip2", "twolf", "vpr")
SPECS = (
    StrategySpec(kind="base"),
    StrategySpec(kind="friendly"),
    StrategySpec(kind="fdrt"),
)


pytestmark = pytest.mark.usefixtures("isolated_runtime")


def make_jobs(benches=("gzip",), specs=(StrategySpec(kind="base"),)):
    return [
        SimJob(benchmark=b, spec=s, config=MachineConfig(), **TINY)
        for b in benches for s in specs
    ]


class TestParallelEquivalence:
    def test_pool_matches_sequential_bit_for_bit(self):
        # Acceptance criterion: >=4 benchmarks x >=3 strategies, jobs=4.
        sequential = run_matrix(BENCHES, SPECS, **TINY, jobs=1, cache=False)
        parallel = run_matrix(BENCHES, SPECS, **TINY, jobs=4, cache=False)
        assert parallel == sequential
        assert list(parallel) == list(sequential)  # key order too

    def test_run_matrix_key_shape_preserved(self):
        results = run_matrix(("gzip",), SPECS, **TINY, cache=False)
        assert list(results) == [
            ("gzip", "Base"), ("gzip", "Friendly"), ("gzip", "FDRT")]


class TestWarmPath:
    def test_second_invocation_never_simulates(self, monkeypatch):
        cold = run_matrix(BENCHES, SPECS, **TINY)

        def forbidden(*args, **kwargs):
            raise AssertionError("simulate() called on the warm path")

        monkeypatch.setattr(job_module, "simulate", forbidden)
        engine = ExperimentEngine(jobs=1)
        warm = run_matrix(BENCHES, SPECS, **TINY, engine=engine)
        assert warm == cold
        assert engine.report.cache_hits == len(BENCHES) * len(SPECS)
        assert engine.report.executed == 0

    def test_budget_change_misses_the_cache(self, monkeypatch):
        run_matrix(("gzip",), SPECS[:1], **TINY)
        calls = []
        real = job_module.simulate
        monkeypatch.setattr(
            job_module, "simulate",
            lambda *a, **k: calls.append(1) or real(*a, **k))
        run_matrix(("gzip",), SPECS[:1],
                   instructions=TINY["instructions"] + 1,
                   warmup=TINY["warmup"])
        assert calls  # different budget => real simulation


class TestFallbackAndRetry:
    def test_inline_fallback_when_pool_unavailable(self, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no multiprocessing here")

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", broken_pool)
        engine = ExperimentEngine(jobs=4, cache=False)
        results = engine.run(make_jobs(("gzip", "bzip2")))
        assert len(results) == 2 and all(r is not None for r in results)
        assert engine.report.inline

    def test_retry_recovers_from_broken_pool(self, monkeypatch):
        rounds = {"count": 0}

        class FlakyPool:
            def __init__(self, max_workers=None):
                rounds["count"] += 1
                self.broken = rounds["count"] == 1

            def submit(self, fn, *args, **kwargs):
                future = concurrent.futures.Future()
                if self.broken:
                    future.set_exception(BrokenProcessPool("worker died"))
                else:
                    future.set_result(fn(*args, **kwargs))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", FlakyPool)
        engine = ExperimentEngine(jobs=4, cache=False, retries=2, backoff=0)
        results = engine.run(make_jobs(("gzip", "bzip2")))
        assert all(r is not None for r in results)
        assert engine.report.retried == 2  # both jobs failed round one
        assert rounds["count"] == 2

    def test_timeout_exhausts_retries(self, monkeypatch):
        class HangingPool:
            def __init__(self, max_workers=None):
                pass

            def submit(self, fn, *args, **kwargs):
                return concurrent.futures.Future()  # never completes

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", HangingPool)
        engine = ExperimentEngine(
            jobs=4, cache=False, timeout=0.01, retries=1, backoff=0)
        with pytest.raises(JobFailedError) as excinfo:
            engine.run(make_jobs(("gzip", "bzip2")))
        # Structured context: every failed (index, job) pair plus reason.
        failures = excinfo.value.failures
        assert [f.index for f in failures] == [0, 1]
        assert all("timed out" in f.reason for f in failures)
        assert all(f.attempts == 2 for f in failures)
        assert excinfo.value.failed_jobs[0][1].label == "gzip × Base"

    def test_deterministic_job_error_propagates_immediately(self, monkeypatch):
        def explode(*args, **kwargs):
            raise ValueError("bad workload")

        monkeypatch.setattr(job_module, "simulate", explode)
        engine = ExperimentEngine(jobs=1, cache=False)
        with pytest.raises(ValueError, match="bad workload"):
            engine.run(make_jobs())


class TestObservability:
    def test_progress_events(self):
        events = []
        engine = ExperimentEngine(jobs=1, progress=events.append)
        jobs = make_jobs(("gzip", "bzip2"))
        engine.run(jobs)
        assert [e.status for e in events] == ["done", "done"]
        assert [e.completed for e in events] == [1, 2]
        assert all(e.total == 2 for e in events)
        # Warm pass: all hits.
        events.clear()
        engine.run(jobs)
        assert [e.status for e in events] == ["hit", "hit"]
        assert events[-1].source == "cache"

    def test_report_renders(self):
        engine = ExperimentEngine(jobs=1, cache=False)
        engine.run(make_jobs())
        out = engine.report.render()
        assert "1 jobs" in out and "cache hits" in out

    def test_report_to_dict(self):
        engine = ExperimentEngine(jobs=1, cache=False)
        engine.run(make_jobs(("gzip", "bzip2")))
        data = engine.report.to_dict()
        assert data["total"] == 2 and data["executed"] == 2
        assert data["hit_rate"] == 0.0
        assert data["mode"] == "inline"
        assert len(data["job_seconds"]) == 2


class TestReportMode:
    """EngineReport must report where work actually ran, not guess
    "inline" from the worker count."""

    def test_all_hits_not_labelled_inline(self):
        engine = ExperimentEngine(jobs=1)
        jobs = make_jobs()
        engine.run(jobs)   # cold: executes inline
        engine.run(jobs)   # warm: pure cache, nothing executed
        report = engine.report
        assert not report.inline
        assert report.mode == "cache only"
        assert "inline" not in report.render()
        assert "cache only" in report.render()

    def test_all_hits_with_pool_workers_not_labelled_workers(self):
        jobs = make_jobs()
        ExperimentEngine(jobs=1).run(jobs)
        engine = ExperimentEngine(jobs=4)
        engine.run(jobs)
        assert engine.report.mode == "cache only"

    def test_inline_execution_labelled_inline(self):
        engine = ExperimentEngine(jobs=1, cache=False)
        engine.run(make_jobs())
        assert engine.report.mode == "inline"
        assert "(inline)" in engine.report.render()

    def test_pool_execution_reports_worker_count(self):
        engine = ExperimentEngine(jobs=2, cache=False)
        engine.run(make_jobs(("gzip", "bzip2")))
        if not engine.report.inline:  # pool may degrade on odd platforms
            assert engine.report.mode == "2 workers"
            assert "2 workers" in engine.report.render()


class TestProgressPrinter:
    """Formatting of the live progress lines."""

    def run_events(self, *events):
        import io
        from repro.runtime.observe import progress_printer

        stream = io.StringIO()
        callback = progress_printer(stream)
        for event in events:
            callback(event)
        return stream.getvalue().splitlines()

    def make_event(self, status, index=0, total=2, completed=1,
                   elapsed=1.4, source="inline"):
        from repro.runtime.observe import JobEvent

        return JobEvent(index=index, total=total, job=make_jobs()[0],
                        status=status, elapsed=elapsed,
                        completed=completed, source=source)

    def test_done_line_has_timing(self):
        (line,) = self.run_events(self.make_event("done"))
        assert line == f"[1/2] {'gzip × Base':<36} done  1.4s"

    def test_hit_line_says_cached_without_timing(self):
        (line,) = self.run_events(
            self.make_event("hit", elapsed=0.0, source="cache"))
        assert "cached" in line
        assert "s" not in line.split("cached")[1]  # no trailing timing

    def test_retry_line(self):
        (line,) = self.run_events(
            self.make_event("retry", elapsed=2.0, source="pool"))
        assert "retry" in line and "2.0s" in line

    def test_counter_width_alignment(self):
        lines = self.run_events(
            self.make_event("done", completed=3, total=120),
            self.make_event("done", completed=45, total=120),
            self.make_event("done", completed=120, total=120),
        )
        assert lines[0].startswith("[  3/120]")
        assert lines[1].startswith("[ 45/120]")
        assert lines[2].startswith("[120/120]")
        # The status column lines up across rows.
        assert len({line.index(" done") for line in lines}) == 1

    def test_defaults_to_stderr(self, capsys):
        from repro.runtime.observe import progress_printer

        progress_printer()(self.make_event("done"))
        captured = capsys.readouterr()
        assert "done" in captured.err and captured.out == ""


class TestWorkerResolution:
    def test_env_sets_worker_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert ExperimentEngine().workers == 3

    def test_auto_uses_cpu_count(self, monkeypatch):
        import os
        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert ExperimentEngine().workers == (os.cpu_count() or 1)

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert ExperimentEngine(jobs=2).workers == 2

    def test_configure_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        settings.configure(jobs=5)
        assert ExperimentEngine().workers == 5

    def test_cache_false_disables(self):
        engine = ExperimentEngine(cache=False)
        assert not engine.cache.enabled

    def test_cache_instance_is_adopted(self):
        cache = ResultCache()
        assert ExperimentEngine(cache=cache).cache is cache
