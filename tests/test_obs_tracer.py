"""Tests for the cycle tracer, observer protocol, and `repro trace`."""

import json

import pytest

from repro.assign.base import StrategySpec
from repro.cli import main
from repro.cluster.config import MachineConfig
from repro.core.pipeline import Pipeline
from repro.obs import (
    FETCH_LANE,
    FILL_LANE,
    CycleTracer,
    PipelineObserver,
)


@pytest.fixture
def pipeline(tiny_program):
    return Pipeline(tiny_program, MachineConfig(), StrategySpec(kind="fdrt"))


def duration_events(doc):
    return [e for e in doc["traceEvents"] if e.get("ph") == "X"]


class TestObserverProtocol:
    def test_attach_sets_both_hooks(self, pipeline):
        tracer = CycleTracer()
        tracer.attach(pipeline)
        assert pipeline.observers == (tracer,)
        assert pipeline.fill_unit.observers == (tracer,)
        tracer.detach()
        assert pipeline.observers == ()
        assert pipeline.fill_unit.observers == ()

    def test_double_attach_rejected(self, pipeline):
        tracer = CycleTracer().attach(pipeline)
        with pytest.raises(RuntimeError, match="already attached"):
            tracer.attach(pipeline)
        assert pipeline.observers == (tracer,)

    def test_context_manager_detaches_on_error(self, pipeline):
        tracer = CycleTracer()
        with pytest.raises(RuntimeError):
            with tracer.attach(pipeline):
                raise RuntimeError("boom")
        assert pipeline.observers == ()

    def test_multi_observer_fans_out(self, pipeline):
        seen = []

        class Spy(PipelineObserver):
            def __init__(self, tag):
                self.tag = tag

            def on_retire(self, inst, now):
                seen.append(self.tag)

        first, second = Spy("a"), Spy("b")
        with first.attach(pipeline), second.attach(pipeline):
            assert pipeline.observers == (first, second)
            pipeline.run(300)
        assert "a" in seen and "b" in seen
        assert seen.count("a") == seen.count("b")
        assert pipeline.observers == ()

    def test_untraced_run_matches_traced_run(self, tiny_program):
        plain = Pipeline(
            tiny_program, MachineConfig(), StrategySpec(kind="fdrt"))
        plain.run(2000)
        traced = Pipeline(
            tiny_program, MachineConfig(), StrategySpec(kind="fdrt"))
        with CycleTracer().attach(traced):
            traced.run(2000)
        assert traced.stats.cycles == plain.stats.cycles
        assert traced.stats.retired == plain.stats.retired


class TestCycleTracer:
    def test_every_cluster_lane_has_duration_events(self, pipeline):
        tracer = CycleTracer()
        with tracer.attach(pipeline):
            pipeline.run(2000)
        doc = tracer.to_chrome_trace()
        json.loads(json.dumps(doc))  # serialisable
        lanes = {e["tid"] for e in duration_events(doc)}
        for cluster in range(pipeline.config.num_clusters):
            assert cluster in lanes
        assert FETCH_LANE in lanes and FILL_LANE in lanes

    def test_lane_metadata_names(self, pipeline):
        tracer = CycleTracer()
        with tracer.attach(pipeline):
            pipeline.run(500)
        names = {e["args"]["name"] for e in tracer.to_chrome_trace()
                 ["traceEvents"] if e["name"] == "thread_name"}
        assert {"cluster 0", "cluster 3", "fetch", "fill unit"} <= names

    def test_events_are_cycle_stamped_durations(self, pipeline):
        tracer = CycleTracer()
        with tracer.attach(pipeline):
            pipeline.run(800)
        for event in duration_events(tracer.to_chrome_trace()):
            assert event["ts"] >= 0
            assert event["dur"] >= 1

    def test_ring_buffer_caps_memory(self, pipeline):
        tracer = CycleTracer(capacity=50)
        with tracer.attach(pipeline):
            pipeline.run(2000)
        assert len(tracer.events) == 50
        assert tracer.dropped == tracer.recorded - 50
        assert tracer.dropped > 0

    def test_ring_buffer_exactly_at_cap_drops_nothing(self, tiny_program):
        def traced(capacity):
            pipe = Pipeline(tiny_program, MachineConfig(),
                            StrategySpec(kind="fdrt"))
            tracer = CycleTracer(capacity=capacity)
            with tracer.attach(pipe):
                pipe.run(2000)
            return tracer

        count = traced(1_000_000).recorded
        exact = traced(count)
        assert exact.recorded == count
        assert len(exact.events) == count
        assert exact.dropped == 0

    def test_ring_buffer_one_past_cap_drops_oldest(self, tiny_program):
        def traced(capacity):
            pipe = Pipeline(tiny_program, MachineConfig(),
                            StrategySpec(kind="fdrt"))
            tracer = CycleTracer(capacity=capacity)
            with tracer.attach(pipe):
                pipe.run(2000)
            return tracer

        full = traced(1_000_000)
        count = full.recorded
        tracer = traced(count - 1)
        assert tracer.recorded == count
        assert len(tracer.events) == count - 1
        assert tracer.dropped == 1
        # The oldest event went; the retained tail matches the full run
        # and the export is still a valid Chrome trace.
        assert list(tracer.events) == list(full.events)[1:]
        doc = tracer.to_chrome_trace()
        assert doc["otherData"]["dropped"] == 1
        assert duration_events(doc)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            CycleTracer(capacity=0)

    def test_lane_counts_and_write(self, pipeline, tmp_path):
        tracer = CycleTracer()
        with tracer.attach(pipeline):
            pipeline.run(1000)
        counts = tracer.lane_counts()
        assert sum(counts.values()) == len(tracer.events)
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        assert duration_events(json.loads(path.read_text()))


class TestTraceCommand:
    def test_writes_valid_chrome_trace(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        code = main(["trace", "gzip", "--strategy", "fdrt",
                     "--instructions", "2000", "--warmup", "1000",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "perfetto" in printed and "cluster 0" in printed
        doc = json.loads(out.read_text())
        lanes = {e["tid"] for e in duration_events(doc)}
        assert {0, 1, 2, 3} <= lanes

    def test_events_cap_flag(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        code = main(["trace", "gzip", "--events", "64",
                     "--instructions", "1500", "--warmup", "500",
                     "--out", str(out)])
        assert code == 0
        assert len(duration_events(json.loads(out.read_text()))) == 64
