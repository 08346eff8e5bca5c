"""Chaos-matrix tests: deterministic fault injection × engine paths.

Every scenario asserts the resilience contract from docs/RESILIENCE.md:
faulted runs return results byte-identical to fault-free runs (or
quarantine deterministically), reports stay accurate, and no worker
process outlives the run.
"""

import concurrent.futures
import json
import multiprocessing
import time

import pytest

from repro.assign.base import StrategySpec
from repro.cluster.config import MachineConfig
from repro.resilience import (
    CRASH_EXIT_CODE,
    FAULT_SITES,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedHang,
    reap_executor,
    worker_processes,
)
from repro.runtime import ExperimentEngine, JobFailedError, SimJob
from repro.runtime import executor as executor_module

TINY = dict(instructions=400, warmup=200)


pytestmark = pytest.mark.usefixtures("isolated_runtime")


def make_jobs(benches=("gzip", "bzip2"), specs=(StrategySpec(kind="base"),)):
    return [
        SimJob(benchmark=b, spec=s, config=MachineConfig(), **TINY)
        for b in benches for s in specs
    ]


def assert_no_leaked_children(deadline_seconds=10.0):
    """Workers must not outlive the run (zombies are reaped by join)."""
    deadline = time.monotonic() + deadline_seconds
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not multiprocessing.active_children()


# ----------------------------------------------------------------------
# FaultPlan: content addressing, determinism, matching


class TestFaultPlan:
    def test_key_is_content_addressed(self):
        a = FaultPlan([FaultSpec(site="worker.crash", index=1)], seed=7)
        b = FaultPlan([FaultSpec(site="worker.crash", index=1)], seed=7)
        c = FaultPlan([FaultSpec(site="worker.crash", index=1)], seed=8)
        assert a.key == b.key
        assert a.key != c.key
        assert len(a.key) == 64  # hex SHA-256, like SimJob.key

    def test_dict_roundtrip_preserves_key(self):
        plan = FaultPlan(
            [FaultSpec(site="worker.hang", index=2, attempt=1, seconds=5.0),
             FaultSpec(site="cache.corrupt", times=3)],
            seed=42,
        )
        assert FaultPlan.from_dict(plan.canonical()).key == plan.key

    def test_file_roundtrip(self, tmp_path):
        plan = FaultPlan([FaultSpec(site="pool.create")], seed=1)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.canonical()))
        assert FaultPlan.from_file(str(path)).key == plan.key

    def test_scatter_is_deterministic_in_seed(self):
        a = FaultPlan.scatter(seed=123, njobs=40)
        b = FaultPlan.scatter(seed=123, njobs=40)
        c = FaultPlan.scatter(seed=124, njobs=40)
        assert a.key == b.key
        assert a.key != c.key
        assert all(s.site in FAULT_SITES for s in a.specs)

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="disk.melt")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown FaultSpec fields"):
            FaultSpec.from_dict({"site": "worker.crash", "severity": 11})

    def test_unsupported_schema_rejected(self):
        with pytest.raises(ValueError, match="unsupported fault-plan"):
            FaultPlan.from_dict({"schema": 999, "specs": []})

    def test_fires_respects_times_budget(self):
        plan = FaultPlan([FaultSpec(site="cache.corrupt", times=2)])
        assert plan.fires("cache.corrupt")
        assert plan.fires("cache.corrupt")
        assert not plan.fires("cache.corrupt")

    def test_fires_matches_site_and_scope(self):
        plan = FaultPlan([FaultSpec(site="telemetry.write", index=3)])
        assert not plan.fires("cache.corrupt", index=3)
        assert not plan.fires("telemetry.write", index=2)
        assert plan.fires("telemetry.write", index=3)

    def test_wildcard_attempt_matches_every_retry(self):
        spec = FaultSpec(site="worker.crash", index=0, attempt=None)
        assert spec.matches(0, 0) and spec.matches(0, 5)
        assert not spec.matches(1, 0)

    def test_inline_worker_faults_raise_not_exit(self):
        # in_worker=False (PID match) must never hard-exit the caller.
        crash = FaultPlan([FaultSpec(site="worker.crash", index=0)])
        with pytest.raises(InjectedCrash):
            crash.maybe_fail_worker(index=0, attempt=0, in_worker=False)
        hang = FaultPlan([FaultSpec(site="worker.hang", index=0)])
        with pytest.raises(InjectedHang):
            hang.maybe_fail_worker(index=0, attempt=0, in_worker=False)

    def test_crash_exit_code_is_distinctive(self):
        assert CRASH_EXIT_CODE not in (0, 1, 2)


# ----------------------------------------------------------------------
# Chaos matrix: worker faults × inline/pool paths


class TestChaosMatrix:
    def baseline(self, jobs):
        return ExperimentEngine(jobs=1, cache=False).run(jobs)

    def test_pool_survives_worker_crash(self):
        jobs = make_jobs()
        clean = self.baseline(jobs)
        plan = FaultPlan([FaultSpec(site="worker.crash", index=1, attempt=0)])
        engine = ExperimentEngine(jobs=2, cache=False, backoff=0, faults=plan)
        results = engine.run(jobs)
        assert results == clean  # byte-identical recovery
        assert engine.report.retried >= 1
        assert engine.report.failed == 0
        assert_no_leaked_children()

    def test_pool_survives_worker_hang(self):
        jobs = make_jobs()
        clean = self.baseline(jobs)
        plan = FaultPlan(
            [FaultSpec(site="worker.hang", index=0, attempt=0, seconds=60)])
        engine = ExperimentEngine(
            jobs=2, cache=False, backoff=0, timeout=1.0, faults=plan)
        results = engine.run(jobs)
        assert results == clean
        assert engine.report.retried >= 1
        # The wedged worker was force-killed, not leaked.
        assert engine.report.workers_reaped >= 1
        assert_no_leaked_children()

    def test_inline_survives_worker_crash(self):
        jobs = make_jobs()
        clean = self.baseline(jobs)
        plan = FaultPlan([FaultSpec(site="worker.crash", index=0, attempt=0)])
        engine = ExperimentEngine(jobs=1, cache=False, backoff=0, faults=plan)
        results = engine.run(jobs)
        assert results == clean
        assert engine.report.retried == 1

    def test_inline_survives_worker_hang(self):
        jobs = make_jobs()
        clean = self.baseline(jobs)
        plan = FaultPlan([FaultSpec(site="worker.hang", index=1, attempt=0)])
        engine = ExperimentEngine(jobs=1, cache=False, backoff=0, faults=plan)
        results = engine.run(jobs)
        assert results == clean
        assert engine.report.retried == 1

    def test_cache_corruption_recovers_as_miss(self):
        jobs = make_jobs(("gzip",))
        plan = FaultPlan([FaultSpec(site="cache.corrupt", times=1)])
        chaotic = ExperimentEngine(jobs=1, faults=plan)
        first = chaotic.run(jobs)
        # The injected store wrote a torn entry; a fresh engine must
        # recover (drop + re-execute), not crash or serve garbage.
        engine = ExperimentEngine(jobs=1)
        second = engine.run(jobs)
        assert second == first
        assert engine.report.cache_hits == 0
        assert engine.cache.stats.corrupt >= 1
        # The recovery re-stored a good entry: third run is a pure hit.
        warm = ExperimentEngine(jobs=1)
        assert warm.run(jobs) == first
        assert warm.report.cache_hits == 1

    def test_telemetry_write_fault_degrades_not_fails(self, tmp_path):
        jobs = make_jobs()
        clean = self.baseline(jobs)
        plan = FaultPlan(
            [FaultSpec(site="telemetry.write", times=10_000)])
        engine = ExperimentEngine(
            jobs=1, cache=False, faults=plan,
            telemetry=str(tmp_path / "tel"))
        results = engine.run(jobs)  # must not raise
        assert results == clean
        assert engine.telemetry.write_errors > 0

    def test_pool_create_fault_falls_back_inline(self):
        jobs = make_jobs()
        clean = self.baseline(jobs)
        plan = FaultPlan([FaultSpec(site="pool.create")])
        engine = ExperimentEngine(jobs=4, cache=False, faults=plan)
        results = engine.run(jobs)
        assert results == clean
        assert engine.report.inline

    def test_chaos_run_is_reproducible(self):
        # Same plan, same jobs => same report-level outcome.
        jobs = make_jobs()
        plan_doc = FaultPlan(
            [FaultSpec(site="worker.crash", index=0, attempt=0)]).canonical()
        reports = []
        for _ in range(2):
            engine = ExperimentEngine(
                jobs=1, cache=False, backoff=0,
                faults=FaultPlan.from_dict(plan_doc))
            engine.run(jobs)
            reports.append((engine.report.retried, engine.report.failed))
        assert reports[0] == reports[1] == (1, 0)


# ----------------------------------------------------------------------
# Quarantine (keep_going) and structured failure context


class TestQuarantine:
    PLAN = {"schema": 1, "seed": None, "specs": [
        {"site": "worker.crash", "index": 0, "attempt": None, "times": 99}]}

    def test_keep_going_quarantines_only_the_faulted_cell(self):
        jobs = make_jobs()
        engine = ExperimentEngine(
            jobs=1, cache=False, backoff=0, retries=2, keep_going=True,
            faults=FaultPlan.from_dict(self.PLAN))
        results = engine.run(jobs)
        assert results[0] is None           # quarantined cell
        assert results[1] is not None       # the rest of the sweep ran
        assert engine.report.failed == 1
        (failure,) = engine.report.failures
        assert failure["label"] == jobs[0].label
        assert failure["attempts"] == 3     # 1 + retries
        assert "injected worker crash" in failure["reason"]

    def test_quarantine_without_keep_going_raises_structured(self):
        jobs = make_jobs()
        engine = ExperimentEngine(
            jobs=1, cache=False, backoff=0, retries=1,
            faults=FaultPlan.from_dict(self.PLAN))
        with pytest.raises(JobFailedError) as excinfo:
            engine.run(jobs)
        failures = excinfo.value.failures
        assert [f.index for f in failures] == [0]
        assert failures[0].job.label == jobs[0].label
        assert failures[0].attempts == 2
        assert "injected worker crash" in failures[0].reason
        assert excinfo.value.failed_jobs == [(0, jobs[0])]

    def test_quarantine_writes_partial_manifest(self, tmp_path):
        jobs = make_jobs()
        engine = ExperimentEngine(
            jobs=1, cache=False, backoff=0, retries=0, keep_going=True,
            faults=FaultPlan.from_dict(self.PLAN),
            telemetry=str(tmp_path / "tel"))
        engine.run(jobs)
        manifest = json.loads((tmp_path / "tel" / "manifest.json").read_text())
        assert manifest["status"] == "partial"
        by_label = {j["label"]: j for j in manifest["jobs"]}
        assert by_label[jobs[0].label]["status"] == "failed"
        assert "injected" in by_label[jobs[0].label]["reason"]
        assert by_label[jobs[1].label]["status"] == "executed"


# ----------------------------------------------------------------------
# Backoff policy and worker-measured elapsed time


class TestBackoffAndTiming:
    def test_backoff_schedule_is_deterministic_exponential(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(executor_module, "_sleep", sleeps.append)
        # Worker sites match positionally on (index, attempt) — times is
        # a parent-side budget — so pin the two failing attempts exactly.
        plan = FaultPlan([FaultSpec(site="worker.crash", index=0, attempt=0),
                          FaultSpec(site="worker.crash", index=0, attempt=1)])
        # Fails attempts 0 and 1, succeeds on attempt 2.
        engine = ExperimentEngine(
            jobs=1, cache=False, retries=3, backoff=0.2, faults=plan)
        results = engine.run(make_jobs(("gzip",)))
        assert results[0] is not None
        # Exponential schedule, jittered into ±25% by a hash of
        # (run_id, round) — no wall-clock randomness.
        assert len(sleeps) == 2
        for delay, base in zip(sleeps, (0.2, 0.4)):
            assert base * 0.75 <= delay <= base * 1.25
        assert engine.report.backoff_seconds == pytest.approx(sum(sleeps))

    def test_backoff_jitter_replays_for_a_fixed_run_id(self):
        from repro.resilience.retry import deterministic_jitter

        first = [deterministic_jitter("engine:run-1", r, 0.2)
                 for r in (1, 2, 3)]
        again = [deterministic_jitter("engine:run-1", r, 0.2)
                 for r in (1, 2, 3)]
        other = [deterministic_jitter("engine:run-2", r, 0.2)
                 for r in (1, 2, 3)]
        assert first == again       # same key => byte-identical sleeps
        assert first != other       # distinct engines desynchronize

    def test_backoff_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "1.5")
        assert ExperimentEngine(jobs=1).backoff == 1.5
        assert ExperimentEngine(jobs=1, backoff=0).backoff == 0.0

    def test_elapsed_is_measured_inside_the_worker(self, monkeypatch):
        jobs = make_jobs(("gzip",))
        real = executor_module._run_job

        def stamped(job, **kwargs):
            result, _ = real(job, **kwargs)
            return result, 0.123  # pretend the worker measured this

        monkeypatch.setattr(executor_module, "_run_job", stamped)
        events = []
        engine = ExperimentEngine(jobs=1, cache=False,
                                  progress=events.append)
        engine.run(jobs)
        # The report and the progress event must carry the worker's own
        # wall-clock, not the parent's future-turnaround time.
        assert engine.report.job_seconds == [0.123]
        assert events[-1].elapsed == 0.123


# ----------------------------------------------------------------------
# Watchdog


def _wedge():
    time.sleep(60)


class TestWatchdog:
    def test_reap_executor_kills_wedged_worker(self):
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=1)
        pool.submit(_wedge)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            workers = worker_processes(pool)
            if any(p.is_alive() for p in workers):
                break
            time.sleep(0.05)
        assert workers, "pool never started a worker"
        forced = reap_executor(pool, grace=2.0)
        assert forced >= 1
        assert all(not p.is_alive() for p in workers)
        assert_no_leaked_children()

    def test_reap_clean_pool_forces_nothing_fatal(self):
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=1)
        pool.submit(sum, (1, 2)).result(timeout=30)
        reap_executor(pool, grace=2.0)
        assert all(not p.is_alive() for p in worker_processes(pool))
        assert_no_leaked_children()

    def test_reap_never_raises_on_fake_pools(self):
        class Bare:
            pass

        class Grumpy:
            def shutdown(self, *a, **k):
                raise RuntimeError("no")

        assert reap_executor(Bare()) == 0
        assert reap_executor(Grumpy()) == 0
