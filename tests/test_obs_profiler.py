"""Tests for the per-phase wall-clock profiler (and its invariants)."""

import json

import pytest

from repro.assign.base import StrategySpec
from repro.cluster.config import MachineConfig
from repro.core.simulator import Simulator, simulate
from repro.obs import CycleTracer, MetricsRegistry, PipelineMetrics
from repro.obs.profiler import PHASES, PhaseProfiler
from repro.obs.timeseries import IntervalRecorder

TINY = dict(instructions=600, warmup=200)


def profiled_run(sample_cycles=0, instructions=1_000):
    simulator = Simulator("gzip", StrategySpec(kind="fdrt"),
                          config=MachineConfig())
    profiler = PhaseProfiler(sample_cycles=sample_cycles)
    with profiler.attach(simulator.pipeline):
        result = simulator.run(instructions)
    return profiler, result


class TestPhaseProfiler:
    def test_accumulates_all_phases(self):
        profiler, result = profiled_run()
        assert set(profiler.seconds) == set(PHASES)
        assert all(profiler.seconds[phase] >= 0 for phase in PHASES)
        assert profiler.total_seconds > 0
        assert profiler.steps == result.cycles
        shares = profiler.shares()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_detach_restores_fast_path(self):
        simulator = Simulator("gzip", StrategySpec(kind="base"),
                              config=MachineConfig())
        profiler = PhaseProfiler()
        pipeline = simulator.pipeline
        profiler.attach(pipeline)
        assert {"_retire", "_execute", "_issue", "_fetch"} <= set(
            vars(pipeline))
        assert "tick" in vars(pipeline.fill_unit)
        profiler.detach()
        assert not {"_retire", "_execute", "_issue", "_fetch"} & set(
            vars(pipeline))
        assert "tick" not in vars(pipeline.fill_unit)

    def test_double_attach_rejected(self):
        simulator = Simulator("gzip", StrategySpec(kind="base"),
                              config=MachineConfig())
        with PhaseProfiler().attach(simulator.pipeline):
            with pytest.raises(RuntimeError):
                PhaseProfiler().attach(simulator.pipeline)

    def test_negative_sample_cycles_rejected(self):
        with pytest.raises(ValueError):
            PhaseProfiler(sample_cycles=-1)

    def test_sampling_windows_cover_totals(self):
        profiler, _ = profiled_run(sample_cycles=200)
        assert len(profiler.samples) >= 2
        for phase in PHASES:
            sampled = sum(window[phase]
                          for _, window in profiler.samples)
            assert sampled == pytest.approx(profiler.seconds[phase])

    def test_finish_flushes_partial_sample(self):
        # A run shorter than one sample window still yields a sample:
        # finish() flushes the open partial window, and is idempotent.
        simulator = Simulator("gzip", StrategySpec(kind="fdrt"),
                              config=MachineConfig())
        profiler = PhaseProfiler(sample_cycles=1_000_000)
        with profiler.attach(simulator.pipeline):
            simulator.run(500)
        profiler.finish()
        assert len(profiler.samples) == 1
        profiler.finish()
        assert len(profiler.samples) == 1
        _, window = profiler.samples[0]
        total = sum(window.values())
        assert total == pytest.approx(sum(profiler.seconds.values()))

    def test_publish_metrics(self):
        profiler, _ = profiled_run()
        registry = MetricsRegistry()
        profiler.publish(registry)
        data = registry.to_dict()
        gauges = data["gauges"]
        for phase in PHASES:
            assert gauges[f"profile.seconds{{phase={phase}}}"] >= 0
            assert 0 <= gauges[f"profile.share{{phase={phase}}}"] <= 1
        assert gauges["profile.total_seconds"] > 0
        assert gauges["profile.cycles_per_second"] > 0
        assert data["counters"]["profile.steps"] == profiler.steps

    def test_render_lists_phases(self):
        profiler, _ = profiled_run()
        rendered = profiler.render()
        for phase in PHASES:
            assert phase in rendered
        assert "cycles/s" in rendered


class TestSpeedscopeExport:
    def test_document_shape(self, tmp_path):
        profiler, _ = profiled_run(sample_cycles=300)
        doc = profiler.to_speedscope("unit test")
        assert doc["name"] == "unit test"
        assert [f["name"] for f in doc["shared"]["frames"]] == list(PHASES)
        (profile,) = doc["profiles"]
        assert profile["type"] == "evented"
        events = profile["events"]
        assert events, "expected open/close spans"
        # Events are strictly ordered, opens and closes balanced.
        opens = [e for e in events if e["type"] == "O"]
        closes = [e for e in events if e["type"] == "C"]
        assert len(opens) == len(closes)
        ats = [e["at"] for e in events]
        assert ats == sorted(ats)
        assert profile["endValue"] == pytest.approx(ats[-1])

    def test_write_round_trips_json(self, tmp_path):
        profiler, _ = profiled_run()
        path = tmp_path / "profile.json"
        profiler.write(str(path))
        doc = json.loads(path.read_text())
        assert doc["$schema"].startswith("https://www.speedscope.app")


class TestByteIdentity:
    """The load-bearing invariant: observers never change results."""

    def test_profiled_result_identical(self):
        plain = simulate("gzip", StrategySpec(kind="fdrt"), **TINY)
        profiled = simulate("gzip", StrategySpec(kind="fdrt"), **TINY,
                            profiler=PhaseProfiler(sample_cycles=100))
        assert profiled.to_dict() == plain.to_dict()

    def test_progress_hook_result_identical(self):
        beats = []
        plain = simulate("bzip2", StrategySpec(kind="base"), **TINY)
        hooked = simulate("bzip2", StrategySpec(kind="base"), **TINY,
                          progress_hook=lambda p: beats.append(p.now),
                          progress_interval=50)
        assert hooked.to_dict() == plain.to_dict()
        assert beats, "hook should have fired"

    def test_hook_and_profiler_together_identical(self):
        plain = simulate("gcc", StrategySpec(kind="fdrt"), **TINY)
        both = simulate("gcc", StrategySpec(kind="fdrt"), **TINY,
                        progress_hook=lambda p: None,
                        progress_interval=100,
                        profiler=PhaseProfiler(sample_cycles=0))
        assert both.to_dict() == plain.to_dict()

    def test_all_taps_together_identical_and_detached(self):
        kwargs = dict(config=MachineConfig())
        plain = Simulator("gzip", StrategySpec(kind="fdrt"), **kwargs)
        plain.warmup(400)
        expected = json.dumps(plain.run(1000).to_dict(), sort_keys=True)

        simulator = Simulator("gzip", StrategySpec(kind="fdrt"), **kwargs)
        pipeline = simulator.pipeline
        tracer, registry = CycleTracer(), MetricsRegistry()
        metrics = PipelineMetrics(registry)
        profiler = PhaseProfiler(sample_cycles=100)
        recorder = IntervalRecorder(interval_cycles=150)
        beats = []

        def hook(pipeline):
            beats.append(pipeline.now)

        simulator.progress(hook, every=75)
        with tracer.attach(pipeline), metrics.attach(pipeline), \
                profiler.attach(pipeline):
            simulator.warmup(400)
            with recorder.attach(pipeline):
                assert pipeline.observers == (tracer, metrics)
                # The recorder fires ahead of the earlier-installed hook.
                assert [entry[2] for entry in pipeline.periodic] == [
                    recorder, hook]
                tapped = simulator.run(1000)
        simulator.progress(None)
        assert json.dumps(tapped.to_dict(), sort_keys=True) == expected
        assert tracer.recorded > 0
        assert registry.to_dict()["counters"]
        assert profiler.steps == pipeline.now
        assert recorder.windows
        assert beats
        assert not {"_retire", "_execute", "_issue", "_fetch"} & set(
            vars(pipeline))
        assert "tick" not in vars(pipeline.fill_unit)
        assert pipeline.observers == () == pipeline.fill_unit.observers
        assert pipeline.periodic == []


class TestPeriodicSchedule:
    """Pins when periodic taps fire, so the schedule cannot drift."""

    def test_hook_beats_and_recorder_windows(self):
        beats = []
        recorder = IntervalRecorder(interval_cycles=200)
        result = simulate("gzip", StrategySpec(kind="fdrt"),
                          config=MachineConfig(), instructions=1500,
                          warmup=800,
                          progress_hook=lambda p: beats.append(p.now),
                          progress_interval=50, recorder=recorder)
        # First beat after the first simulated cycle, then every 50.
        assert beats == list(range(1, 5752, 50))
        # First window closes 200 cycles after attach (the warmup
        # boundary); detach flushes the partial tail.
        assert result.cycles == 2924
        assert [(w["start"], w["end"]) for w in recorder.windows] == (
            [(start, start + 200) for start in range(0, 2800, 200)]
            + [(2800, 2924)])

    def test_recorder_runs_before_hook_in_a_shared_cycle(self):
        simulator = Simulator("gzip", StrategySpec(kind="fdrt"),
                              config=MachineConfig())
        simulator.pipeline.run(300)
        start = simulator.pipeline.now
        recorder = IntervalRecorder(interval_cycles=100)
        seen = []
        simulator.progress(
            lambda p: seen.append((p.now - start, recorder.recorded)),
            every=99)
        with recorder.attach(simulator.pipeline):
            simulator.pipeline.run(300)
        # Both are due at start + 100: the window has closed by the
        # time the hook reads it.
        assert seen[:3] == [(1, 0), (100, 1), (199, 1)]
