"""Integration-level tests of the cycle-accurate pipeline."""

import pytest

from repro.assign.base import StrategySpec
from repro.cluster.config import MachineConfig
from repro.core.pipeline import Pipeline
from repro.isa.instruction import LeaderFollower
from repro.workloads.execution import FunctionalSimulator


@pytest.fixture(params=["base", "issue", "friendly", "fdrt"])
def any_spec(request):
    return StrategySpec(kind=request.param)


def make_pipeline(program, spec=None, config=None):
    return Pipeline(program, config or MachineConfig(),
                    spec or StrategySpec(kind="base"))


class TestArchitecturalCorrectness:
    def test_retirement_matches_functional_order(self, tiny_program, any_spec):
        """The timing simulator must retire exactly the committed stream."""
        pipeline = make_pipeline(tiny_program, any_spec)
        retired = []
        original = pipeline.fill_unit.retire

        def spy(inst, now):
            retired.append(inst)
            original(inst, now)

        pipeline.fill_unit.retire = spy
        pipeline.run(600)
        reference = FunctionalSimulator(tiny_program).run(len(retired))
        assert [i.seq for i in retired] == [i.seq for i in reference]
        assert [i.pc for i in retired] == [i.pc for i in reference]

    def test_retire_cycles_monotonic(self, tiny_program):
        pipeline = make_pipeline(tiny_program)
        cycles = []
        original = pipeline.fill_unit.retire
        pipeline.fill_unit.retire = lambda inst, now: (
            cycles.append(inst.retire_cycle), original(inst, now))
        pipeline.run(500)
        assert cycles == sorted(cycles)

    def test_instruction_lifecycle_ordering(self, tiny_program):
        pipeline = make_pipeline(tiny_program)
        checked = []
        original = pipeline.fill_unit.retire

        def spy(inst, now):
            checked.append(inst)
            original(inst, now)

        pipeline.fill_unit.retire = spy
        pipeline.run(500)
        assert len(checked) >= 400
        for inst in checked:
            assert inst.fetch_cycle >= 0
            assert inst.issue_cycle > inst.fetch_cycle
            assert inst.dispatch_cycle > inst.issue_cycle
            assert inst.complete_cycle >= inst.dispatch_cycle
            assert inst.retire_cycle >= inst.complete_cycle

    def test_rob_never_exceeds_capacity(self, tiny_program):
        config = MachineConfig(rob_entries=32)
        pipeline = make_pipeline(tiny_program, config=config)
        max_seen = 0
        for _ in range(2000):
            pipeline.step()
            max_seen = max(max_seen, len(pipeline.rob))
        assert max_seen <= 32

    def test_cluster_assignment_within_range(self, tiny_program, any_spec):
        pipeline = make_pipeline(tiny_program, any_spec)
        seen = []
        original = pipeline.fill_unit.retire
        pipeline.fill_unit.retire = lambda inst, now: (
            seen.append(inst.cluster), original(inst, now))
        pipeline.run(500)
        assert all(0 <= c < 4 for c in seen)


class TestTimingBehaviour:
    def test_forwarding_latency_visible_in_wakeup(self, tiny_program):
        """zero_all forwarding must never be slower than the baseline."""
        base = make_pipeline(tiny_program)
        base.run(3000)
        ideal = make_pipeline(
            tiny_program,
            config=MachineConfig(forward_latency_mode="zero_all"),
        )
        ideal.run(3000)
        assert ideal.stats.ipc >= base.stats.ipc

    def test_wider_rob_never_hurts(self, tiny_program):
        small = make_pipeline(tiny_program, config=MachineConfig(rob_entries=16))
        small.run(3000)
        large = make_pipeline(tiny_program, config=MachineConfig(rob_entries=256))
        large.run(3000)
        assert large.stats.ipc >= small.stats.ipc * 0.98

    def test_critical_stats_populated(self, tiny_program):
        pipeline = make_pipeline(tiny_program)
        pipeline.run(3000)
        stats = pipeline.stats
        assert stats.critical_forwarded > 0
        assert stats.forwarded_inputs >= stats.critical_forwarded
        assert 0.0 < stats.pct_deps_critical <= 1.0

    def test_trace_cache_warms_up(self, tiny_program):
        pipeline = make_pipeline(tiny_program)
        pipeline.run(6000)
        assert pipeline.stats.pct_tc_instructions > 0.5

    def test_watchdog_raises_on_deadlock(self, tiny_program):
        pipeline = make_pipeline(tiny_program)
        pipeline.run(100)
        # Freeze retirement artificially by blocking completion.
        if pipeline.rob:
            for inst in pipeline.rob:
                inst.complete_cycle = 10**9
            inst = pipeline.rob[0]
            with pytest.raises(RuntimeError):
                pipeline.run(10**6)


class TestChainFeedback:
    def test_fdrt_builds_chains(self, tiny_program):
        pipeline = make_pipeline(tiny_program, StrategySpec(kind="fdrt"))
        pipeline.run(6000)
        marked = []
        original = pipeline.fill_unit.retire
        pipeline.fill_unit.retire = lambda inst, now: (
            marked.append(inst.leader_follower), original(inst, now))
        pipeline.run(2000)
        assert LeaderFollower.LEADER in marked
        assert LeaderFollower.FOLLOWER in marked

    def test_base_strategy_builds_no_chains(self, tiny_program):
        pipeline = make_pipeline(tiny_program, StrategySpec(kind="base"))
        pipeline.run(6000)
        marked = []
        original = pipeline.fill_unit.retire
        pipeline.fill_unit.retire = lambda inst, now: (
            marked.append(inst.leader_follower), original(inst, now))
        pipeline.run(2000)
        assert set(marked) == {LeaderFollower.NONE}

    def test_pinned_leader_keeps_cluster(self, tiny_program):
        pipeline = make_pipeline(tiny_program, StrategySpec(kind="fdrt", pinning=True))
        pipeline.run(12000)
        # Sample chain clusters per pc from the trace cache: pinned values
        # must be stable within a line (they are stored per slot).
        lines = [
            line
            for ways in pipeline.trace_cache._sets
            for line in ways
        ]
        leaders = [
            slot for line in lines for slot in line.slots
            if slot is not None and slot.leader_follower == LeaderFollower.LEADER
        ]
        assert leaders
        assert all(0 <= s.chain_cluster < 4 for s in leaders)


class TestStatsReset:
    def test_reset_stats_preserves_state(self, tiny_program):
        pipeline = make_pipeline(tiny_program)
        pipeline.run(4000)
        resident = pipeline.trace_cache.resident_lines()
        pipeline.reset_stats()
        assert pipeline.stats.retired == 0
        assert pipeline.trace_cache.resident_lines() == resident
        pipeline.run(1000)
        assert pipeline.stats.retired >= 1000


class TestDeadCycleSkip:
    """``run`` jumps over cycles in which no stage can act; a periodic
    tap due every cycle clamps every jump, so it must step them all and
    still see the same machine."""

    @staticmethod
    def _run(name, kind, every_cycle_tap):
        from repro.core.simulator import Simulator
        from repro.obs import CycleTracer
        from repro.obs.timeseries import IntervalRecorder

        simulator = Simulator(name, StrategySpec(kind=kind),
                              config=MachineConfig())
        pipeline = simulator.pipeline
        stepped = []
        step = pipeline.step
        pipeline.step = lambda: (stepped.append(pipeline.now), step())
        if every_cycle_tap:
            pipeline.schedule(lambda p: None, 1, due=pipeline.now)
        tracer = CycleTracer()
        recorder = IntervalRecorder(interval_cycles=97)
        with tracer.attach(pipeline):
            simulator.warmup(1_500)
            with recorder.attach(pipeline):
                result = simulator.run(3_000)
        observed = (result.to_dict(), dict(pipeline.accounting.counts),
                    list(recorder.windows), list(tracer.events),
                    pipeline.now)
        return observed, len(stepped)

    @pytest.mark.parametrize("name,kind", [
        ("mcf", "fdrt"), ("gzip", "base"), ("adpcm_enc", "issue")])
    def test_skipping_is_invisible(self, name, kind):
        skipped, steps = self._run(name, kind, every_cycle_tap=False)
        stepped, all_steps = self._run(name, kind, every_cycle_tap=True)
        assert skipped == stepped
        cycles = stepped[-1]
        assert all_steps == cycles
        assert steps < cycles
