"""Tests for the worker heartbeat channel and staleness detection."""

import json
import os

import pytest

from repro.assign.base import StrategySpec
from repro.cluster.config import MachineConfig
from repro.core.simulator import Simulator
from repro.obs.heartbeat import (
    HEARTBEAT_FIELDS,
    HEARTBEAT_SCHEMA_VERSION,
    HeartbeatMonitor,
    HeartbeatWriter,
    heartbeat_dir,
    read_heartbeats,
    store_heartbeat,
)


def read_record(directory, index):
    with open(os.path.join(str(directory), f"hb-{index}.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


class TestHeartbeatWriter:
    def test_initial_record_written_at_construction(self, tmp_path):
        writer = HeartbeatWriter(str(tmp_path), index=3, key="abc",
                                 label="gzip × Base", attempt=1)
        record = read_record(tmp_path, 3)
        assert record["schema"] == HEARTBEAT_SCHEMA_VERSION
        assert record["index"] == 3
        assert record["key"] == "abc"
        assert record["label"] == "gzip × Base"
        assert record["attempt"] == 1
        assert record["cycles"] == 0
        assert record["pid"] == os.getpid()
        assert writer.beats == 1
        assert writer.errors == 0

    def test_beat_snapshots_pipeline_progress(self, tmp_path):
        simulator = Simulator("gzip", StrategySpec(kind="base"),
                              config=MachineConfig())
        writer = HeartbeatWriter(str(tmp_path), index=0, label="gzip")
        simulator.progress(writer.beat, every=100)
        simulator.run(1_000)
        record = read_record(tmp_path, 0)
        assert record["cycles"] > 0
        assert record["retired"] > 0
        assert record["ipc"] > 0
        assert writer.beats > 1

    def test_final_writes_result_totals(self, tmp_path):
        simulator = Simulator("gzip", StrategySpec(kind="base"),
                              config=MachineConfig())
        writer = HeartbeatWriter(str(tmp_path), index=0)
        result = simulator.run(500)
        writer.final(result)
        record = read_record(tmp_path, 0)
        assert record["cycles"] == result.cycles
        assert record["retired"] == result.retired
        assert record["ipc"] == result.ipc

    def test_profiler_split_rides_along(self, tmp_path):
        from repro.obs.profiler import PhaseProfiler

        simulator = Simulator("gzip", StrategySpec(kind="base"),
                              config=MachineConfig())
        profiler = PhaseProfiler(sample_cycles=0)
        profiler.attach(simulator.pipeline)
        writer = HeartbeatWriter(str(tmp_path), index=0,
                                 profiler=profiler)
        simulator.progress(writer.beat, every=100)
        simulator.run(500)
        profiler.detach()
        record = read_record(tmp_path, 0)
        assert set(record["profile"]) == {"fetch", "assign",
                                          "execute", "fill"}
        assert sum(record["profile"].values()) > 0

    def test_the_service_stores_every_field_a_writer_writes(self,
                                                            tmp_path):
        import types

        HeartbeatWriter(str(tmp_path), index=2, key=None, label="x",
                        run_id="run-1", _clock=lambda: 7.0,
                        profiler=types.SimpleNamespace(seconds={"fetch": 1}))
        record = read_record(tmp_path, 2)
        assert set(record) - {"ts"} <= set(HEARTBEAT_FIELDS)
        assert record["key"] is None and record["ts"] == 7.0
        assert record["elapsed"] == 0.0

    def test_unwritable_directory_degrades_not_raises(self):
        writer = HeartbeatWriter("/proc/no-such-dir/hb", index=0)
        assert writer.errors >= 1
        # Further beats keep degrading quietly.
        class FakeStats:
            cycles, retired, ipc = 10, 5, 0.5

        class FakePipeline:
            stats = FakeStats()

        writer.beat(FakePipeline())
        assert writer.errors >= 2


class TestReadHeartbeats:
    def test_missing_directory_is_empty(self, tmp_path):
        assert read_heartbeats(str(tmp_path / "nope")) == []

    def test_skips_records_without_a_job_index(self, tmp_path):
        HeartbeatWriter(str(tmp_path), index=0, label="a")
        (tmp_path / "hb-x.json").write_text('{"index": "x", "ts": 1.0}')
        assert [r["index"] for r in read_heartbeats(str(tmp_path))] == [0]

    def test_store_refuses_an_index_that_names_no_job(self, tmp_path):
        for index in ("x", -1, True):
            with pytest.raises(ValueError):
                store_heartbeat(str(tmp_path), index, {"index": index})
        assert os.listdir(str(tmp_path)) == []

    def test_skips_torn_and_foreign_files(self, tmp_path):
        HeartbeatWriter(str(tmp_path), index=1, label="a")
        HeartbeatWriter(str(tmp_path), index=0, label="b")
        (tmp_path / "hb-torn.json").write_text("{not json")
        (tmp_path / "other.txt").write_text("hello")
        records = read_heartbeats(str(tmp_path))
        assert [r["index"] for r in records] == [0, 1]

    def test_heartbeat_dir_layout(self, tmp_path):
        assert heartbeat_dir(str(tmp_path)) == str(tmp_path / "heartbeats")


class TestHeartbeatMonitor:
    def test_snapshot_annotates_age_and_staleness(self, tmp_path):
        clock = [100.0]
        writer = HeartbeatWriter(str(tmp_path), index=0,
                                 _clock=lambda: clock[0])
        clock[0] = 104.0
        monitor = HeartbeatMonitor(str(tmp_path), stale_after=2.0,
                                   _clock=lambda: clock[0])
        (record,) = monitor.snapshot()
        assert record["age"] == 4.0
        assert record["stale"] is True
        assert writer.errors == 0

    def test_stale_requires_budget(self, tmp_path):
        HeartbeatWriter(str(tmp_path), index=0, _clock=lambda: 0.0)
        monitor = HeartbeatMonitor(str(tmp_path), stale_after=None,
                                   _clock=lambda: 1e6)
        assert monitor.stale({0: 0}) == []

    def test_stale_ignores_finished_and_retried_jobs(self, tmp_path):
        clock = [0.0]
        HeartbeatWriter(str(tmp_path), index=0, attempt=0,
                        _clock=lambda: clock[0])
        HeartbeatWriter(str(tmp_path), index=1, attempt=0,
                        _clock=lambda: clock[0])
        clock[0] = 60.0
        monitor = HeartbeatMonitor(str(tmp_path), stale_after=5.0,
                                   _clock=lambda: clock[0])
        # Index 0 is no longer live (harvested); index 1's live attempt
        # is 1 — the attempt-0 record belongs to the killed worker.
        assert monitor.stale({1: 1}) == []
        # The record only counts against the matching live attempt.
        flagged = monitor.stale({1: 0})
        assert [r["index"] for r in flagged] == [1]

    def test_fresh_worker_is_not_stale(self, tmp_path):
        clock = [10.0]
        HeartbeatWriter(str(tmp_path), index=0, attempt=0,
                        _clock=lambda: clock[0])
        clock[0] = 10.5
        monitor = HeartbeatMonitor(str(tmp_path), stale_after=5.0,
                                   _clock=lambda: clock[0])
        assert monitor.stale({0: 0}) == []

    def test_by_index_keeps_newest_per_index(self, tmp_path):
        HeartbeatWriter(str(tmp_path), index=0, label="first")
        HeartbeatWriter(str(tmp_path), index=0, label="second")
        assert HeartbeatMonitor(str(tmp_path)).by_index()[0][
            "label"] == "second"


class TestEngineStalenessIntegration:
    def test_stale_worker_reaped_and_job_retried(self, tmp_path,
                                                 monkeypatch):
        """A wedged worker is detected by heartbeat silence — with NO
        per-job timeout configured — reaped, and its job retried."""
        from repro.assign.base import StrategySpec as Spec
        from repro.resilience import FaultPlan, FaultSpec
        from repro.runtime import ExperimentEngine, SimJob

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        jobs = [SimJob(benchmark=b, spec=Spec(kind="base"),
                       config=MachineConfig(),
                       instructions=400, warmup=200)
                for b in ("gzip", "bzip2")]
        plan = FaultPlan([FaultSpec(site="worker.hang", index=0,
                                    attempt=0, seconds=120.0)])
        engine = ExperimentEngine(
            jobs=2, cache=False, faults=plan, retries=2,
            telemetry=str(tmp_path / "t"),
            heartbeat_cycles=100, stale_after=1.0,
        )
        results = engine.run(jobs)
        assert all(result is not None for result in results)
        assert engine.report.stale_workers >= 1
        assert engine.report.workers_reaped >= 1
        assert engine.report.retried >= 1
        assert "stale" in engine.report.render()
