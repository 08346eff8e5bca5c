"""Tests for the interval time-series recorder (`repro.obs.timeseries`)."""

import json
import os
import time

import pytest

from repro.assign.base import StrategySpec
from repro.cluster.config import MachineConfig
from repro.core.accounting import CYCLE_LOSS_CATEGORIES
from repro.core.simulator import Simulator, simulate
from repro.obs import CycleTracer
from repro.obs.timeseries import (
    INTERVAL_SCHEMA_VERSION,
    TIMELINE_PID,
    IntervalRecorder,
)

SPEC = StrategySpec(kind="fdrt")


def recorded_run(interval_cycles=100, capacity=10_000,
                 instructions=1_500):
    simulator = Simulator("gzip", SPEC, config=MachineConfig())
    recorder = IntervalRecorder(interval_cycles=interval_cycles,
                                capacity=capacity)
    with recorder.attach(simulator.pipeline):
        result = simulator.run(instructions)
    recorder.finish()
    return recorder, result


class TestIntervalRecorder:
    def test_windows_cover_the_run(self):
        recorder, result = recorded_run()
        assert recorder.windows
        assert sum(w["cycles"] for w in recorder.windows) == result.cycles
        assert sum(w["retired"] for w in recorder.windows) == result.retired

    def test_window_shape_and_accounting_identity(self):
        recorder, _ = recorded_run()
        for window in recorder.windows:
            assert window["schema"] == INTERVAL_SCHEMA_VERSION
            assert window["end"] - window["start"] == window["cycles"]
            assert set(window["accounting"]) == set(CYCLE_LOSS_CATEGORIES)
            lost = sum(window["accounting"].values())
            assert lost == (window["width"] * window["cycles"]
                            - window["retired"])
            assert window["rs_full"] == window["accounting"]["rs_full"]
            assert (window["fetch_starve"]
                    == window["accounting"]["fetch_starve"])
            assert 0.0 <= window["tc_hit_rate"] <= 1.0
            assert 0.0 <= window["occupancy_frac"] <= 1.0

    def test_indexes_are_monotonic(self):
        recorder, _ = recorded_run()
        indexes = [w["index"] for w in recorder.windows]
        assert indexes == list(range(len(indexes)))

    def test_detach_restores_fast_path(self):
        simulator = Simulator("gzip", SPEC, config=MachineConfig())
        recorder = IntervalRecorder(interval_cycles=100)
        recorder.attach(simulator.pipeline)
        now = simulator.pipeline.now
        assert simulator.pipeline.periodic == [[now + 100, 100, recorder]]
        recorder.detach()
        assert simulator.pipeline.periodic == []

    def test_double_attach_rejected(self):
        simulator = Simulator("gzip", SPEC, config=MachineConfig())
        recorder = IntervalRecorder(interval_cycles=100)
        with recorder.attach(simulator.pipeline):
            with pytest.raises(RuntimeError):
                recorder.attach(simulator.pipeline)
            assert len(simulator.pipeline.periodic) == 1

    def test_rejects_nonpositive_knobs(self):
        with pytest.raises(ValueError):
            IntervalRecorder(interval_cycles=0)
        with pytest.raises(ValueError):
            IntervalRecorder(interval_cycles=100, capacity=0)

    def test_short_run_flushes_partial_window(self):
        # A run shorter than one window must still produce a window —
        # detach() flushes the partial tail (the end-of-run contract).
        simulator = Simulator("gzip", SPEC, config=MachineConfig())
        recorder = IntervalRecorder(interval_cycles=1_000_000)
        with recorder.attach(simulator.pipeline):
            result = simulator.run(300)
        assert len(recorder.windows) == 1
        assert recorder.windows[0]["cycles"] == result.cycles
        assert recorder.windows[0]["retired"] == result.retired

    def test_finish_is_idempotent(self):
        simulator = Simulator("gzip", SPEC, config=MachineConfig())
        recorder = IntervalRecorder(interval_cycles=1_000_000)
        recorder.attach(simulator.pipeline)
        simulator.run(300)
        recorder.finish()
        count = len(recorder.windows)
        recorder.finish()
        recorder.detach()
        assert len(recorder.windows) == count

    def test_last_window(self):
        recorder = IntervalRecorder(interval_cycles=100)
        assert recorder.last_window() is None
        recorder, _ = recorded_run()
        assert recorder.last_window() is recorder.windows[-1]

    def test_simulate_recorder_covers_measured_region_only(self):
        recorder = IntervalRecorder(interval_cycles=100)
        result = simulate("gzip", SPEC, config=MachineConfig(),
                          instructions=600, warmup=400,
                          recorder=recorder)
        # Warmup is excluded: window cycles sum to the measured run.
        assert sum(w["cycles"] for w in recorder.windows) == result.cycles
        assert recorder.windows[0]["start"] == 0


class TestByteIdentity:
    def test_recorded_result_identical(self):
        kwargs = dict(config=MachineConfig(), instructions=600,
                      warmup=200)
        plain = simulate("gzip", SPEC, **kwargs)
        recorder = IntervalRecorder(interval_cycles=100)
        recorded = simulate("gzip", SPEC, recorder=recorder, **kwargs)
        assert recorder.windows, "recorder must actually record"
        assert plain.to_dict() == recorded.to_dict()


class TestRingBuffer:
    def test_capacity_exactly_fits(self):
        # Learn the deterministic window count, then re-run with the
        # ring sized exactly to it: nothing drops.
        probe, _ = recorded_run()
        count = probe.recorded
        assert count > 2
        recorder, _ = recorded_run(capacity=count)
        assert recorder.recorded == count
        assert len(recorder.windows) == count
        assert recorder.dropped == 0

    def test_one_short_drops_exactly_the_oldest(self):
        probe, _ = recorded_run()
        count = probe.recorded
        recorder, _ = recorded_run(capacity=count - 1)
        assert recorder.recorded == count
        assert len(recorder.windows) == count - 1
        assert recorder.dropped == 1
        # The oldest window went; counts and ordering are preserved.
        assert [w["index"] for w in recorder.windows] == list(
            range(1, count))
        assert [w["index"] for w in probe.windows][1:] == [
            w["index"] for w in recorder.windows]

    def test_export_well_formed_after_eviction(self, tmp_path):
        probe, _ = recorded_run()
        recorder, _ = recorded_run(capacity=probe.recorded - 1)
        path = tmp_path / "timeline.jsonl"
        recorder.write_jsonl(str(path))
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        header, windows = lines[0], lines[1:]
        assert header["kind"] == "interval-series"
        assert header["recorded"] == recorder.recorded
        assert header["dropped"] == 1
        assert len(windows) == len(recorder.windows)


class TestExport:
    def test_jsonl_round_trips_through_load_timeline(self, tmp_path):
        from repro.analysis import load_timeline

        recorder, _ = recorded_run()
        path = tmp_path / "timeline.jsonl"
        recorder.write_jsonl(str(path), meta={"benchmark": "gzip"})
        meta, windows = load_timeline(str(path))
        assert meta["benchmark"] == "gzip"
        assert meta["interval_cycles"] == recorder.interval_cycles
        assert windows == list(recorder.windows)

    def test_chrome_counter_tracks(self):
        recorder, _ = recorded_run()
        document = recorder.to_chrome_trace()
        counters = [e for e in document["traceEvents"]
                    if e.get("ph") == "C"]
        assert len(counters) == 4 * len(recorder.windows)
        assert all(e["pid"] == TIMELINE_PID for e in counters)
        names = {e["name"] for e in counters}
        assert names == {"ipc", "occupancy", "tc_hit_rate", "blockers"}

    def test_chrome_merge_keeps_cycle_lanes(self, tmp_path):
        simulator = Simulator("gzip", SPEC, config=MachineConfig())
        tracer = CycleTracer(capacity=5_000)
        recorder = IntervalRecorder(interval_cycles=100)
        with tracer.attach(simulator.pipeline):
            with recorder.attach(simulator.pipeline):
                simulator.run(800)
        recorder.finish()
        document = recorder.to_chrome_trace(
            cycle_trace=tracer.to_chrome_trace())
        pids = {e["pid"] for e in document["traceEvents"]}
        assert {0, TIMELINE_PID} <= pids
        assert document["otherData"]["windows"] == len(recorder.windows)
        path = tmp_path / "merged.json"
        recorder.write_chrome_trace(str(path),
                                    cycle_trace=tracer.to_chrome_trace())
        assert json.loads(path.read_text())["traceEvents"]


class TestWorkerIntervalGauges:
    def test_heartbeat_interval_rides_to_metrics(self, tmp_path):
        # A heartbeat carrying a recorder window (the `interval` field)
        # must surface as repro_worker_interval_* gauges on /metrics.
        from repro.obs.heartbeat import heartbeat_dir
        from repro.obs.server import TelemetryServer

        recorder, _ = recorded_run()
        window = recorder.last_window()
        directory = heartbeat_dir(str(tmp_path))
        os.makedirs(directory)
        record = {"schema": 1, "pid": 123, "index": 0, "cycles": 500,
                  "retired": 250, "ipc": 0.5, "ts": time.time(),
                  "interval": window}
        with open(os.path.join(directory, "hb-0.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(record, handle)
        server = TelemetryServer(telemetry_dir=str(tmp_path))
        text = server.metrics_text()
        assert "repro_worker_interval_ipc{" in text
        assert "repro_worker_interval_tc_hit_rate{" in text
        assert "repro_worker_interval_rs_full{" in text
