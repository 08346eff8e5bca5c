"""Property-based fuzzing of the full pipeline on random workloads.

Hypothesis generates random (small) workload profiles and machine shapes;
the pipeline must preserve its architectural invariants on every one:
retirement matches functional execution, no deadlock, no counter going
negative, statistics staying within their domains.  The differential
tests at the end hold the event-driven pipeline to the slow reference
scheduler in ``tests/reference_core.py``, cycle for cycle.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign.base import StrategySpec
from repro.cluster.config import FORWARD_MODES, MachineConfig
from repro.core.pipeline import Pipeline
from repro.core.simulator import Simulator
from repro.workloads.execution import FunctionalSimulator
from repro.workloads.generator import generate_program
from repro.workloads.profiles import WorkloadProfile, profile_for
from tests.reference_core import ReferencePipeline


@st.composite
def profiles(draw):
    return WorkloadProfile(
        name="fuzz",
        num_funcs=draw(st.integers(1, 4)),
        loops_per_func=draw(st.integers(1, 3)),
        diamonds_per_loop=draw(st.integers(1, 3)),
        mean_block_size=draw(st.floats(3.0, 8.0)),
        frac_mem=draw(st.floats(0.0, 0.45)),
        frac_cpx_int=draw(st.floats(0.0, 0.08)),
        frac_fp=draw(st.floats(0.0, 0.15)),
        loop_trip_mean=draw(st.integers(2, 64)),
        frac_pattern_branches=draw(st.floats(0.0, 0.8)),
        frac_hard_branches=draw(st.floats(0.0, 0.2)),
        branch_bias=draw(st.floats(0.3, 0.95)),
        p_near=draw(st.floats(0.1, 0.6)),
        p_mid=draw(st.floats(0.0, 0.3)),
        working_set_kb=draw(st.sampled_from([16, 64, 256, 1024])),
        stride_frac=draw(st.floats(0.0, 1.0)),
        hot_frac=draw(st.floats(0.2, 0.95)),
        seed=draw(st.integers(0, 10_000)),
    )


@st.composite
def machines(draw):
    num_clusters = draw(st.sampled_from([2, 4]))
    return MachineConfig(
        width=4 * num_clusters,
        num_clusters=num_clusters,
        interconnect=draw(st.sampled_from(["chain", "ring"])),
        hop_latency=draw(st.integers(1, 3)),
        rob_entries=draw(st.sampled_from([32, 128])),
        fill_unit_latency=draw(st.integers(0, 20)),
    )


@given(profiles(), st.sampled_from(["base", "friendly", "fdrt", "issue"]))
@settings(max_examples=15, deadline=None)
def test_retirement_always_matches_functional_order(profile, kind):
    program = generate_program(profile)
    pipeline = Pipeline(program, MachineConfig(), StrategySpec(kind=kind))
    retired = []
    original = pipeline.fill_unit.retire
    pipeline.fill_unit.retire = lambda inst, now: (
        retired.append(inst.seq), original(inst, now))
    pipeline.run(700)
    assert retired == sorted(retired)
    reference = FunctionalSimulator(program).run(len(retired))
    assert retired == [inst.seq for inst in reference]


@given(profiles(), machines())
@settings(max_examples=15, deadline=None)
def test_no_deadlock_and_stats_in_domain(profile, config):
    program = generate_program(profile)
    pipeline = Pipeline(program, config, StrategySpec(kind="fdrt"))
    pipeline.run(600)  # raises on deadlock via watchdog
    stats = pipeline.stats
    assert stats.retired >= 600
    assert stats.cycles > 0
    assert 0.0 <= stats.pct_tc_instructions <= 1.0
    assert 0.0 <= stats.pct_deps_critical <= 1.0
    assert 0.0 <= stats.pct_critical_inter_trace <= 1.0
    assert 0.0 <= stats.pct_intra_cluster_forwarding <= 1.0
    assert stats.avg_forward_distance >= 0.0
    assert stats.forwarded_hops >= 0


@given(profiles())
@settings(max_examples=10, deadline=None)
def test_rob_capacity_never_exceeded(profile):
    program = generate_program(profile)
    config = MachineConfig(rob_entries=24)
    pipeline = Pipeline(program, config, StrategySpec(kind="base"))
    for _ in range(800):
        pipeline.step()
        assert len(pipeline.rob) <= 24


# ----------------------------------------------------------------------
# Differential check against the reference scheduler.
# ----------------------------------------------------------------------
@st.composite
def oracle_machines(draw):
    """Machine shapes that stress select: few D-cache ports, small
    stations and store buffers, every forwarding-latency mode, and the
    idealised front ends and memory."""
    num_clusters = draw(st.sampled_from([2, 4]))
    return MachineConfig(
        width=4 * num_clusters,
        num_clusters=num_clusters,
        interconnect=draw(st.sampled_from(["chain", "ring"])),
        hop_latency=draw(st.integers(1, 3)),
        rob_entries=draw(st.sampled_from([32, 128])),
        rs_entries=draw(st.sampled_from([2, 4, 8])),
        rs_write_ports=draw(st.sampled_from([1, 2])),
        dcache_ports=draw(st.sampled_from([1, 2, 4])),
        perfect_dcache=draw(st.booleans()),
        perfect_branch_prediction=draw(st.booleans()),
        tc_partial_matching=draw(st.booleans()),
        store_buffer_entries=draw(st.sampled_from([4, 32])),
        load_queue_entries=draw(st.sampled_from([4, 32])),
        fill_unit_latency=draw(st.integers(0, 20)),
        forward_latency_mode=draw(st.sampled_from(FORWARD_MODES)),
    )


@st.composite
def oracle_specs(draw):
    kind = draw(st.sampled_from(["base", "friendly", "fdrt", "issue"]))
    if kind == "issue":
        return StrategySpec(kind=kind, steer_latency=draw(st.sampled_from([0, 4])))
    if kind == "fdrt":
        return StrategySpec(kind=kind, pinning=draw(st.booleans()),
                            chain_confidence=draw(st.sampled_from([1, 2])))
    return StrategySpec(kind=kind)


def _lifetimes_and_result(pipeline_cls, program, config, spec, seed):
    """Per-instruction timing of every retired instruction, plus the
    measured ``SimResult`` and the final cycle."""
    simulator = Simulator(program, spec, config=config, seed=seed)
    if pipeline_cls is not Pipeline:
        simulator.pipeline = pipeline_cls(program, config, spec, seed=seed)
    pipeline = simulator.pipeline
    lifetimes = []
    retire = pipeline.fill_unit.retire

    def record(inst, now):
        lifetimes.append((
            inst.seq, inst.cluster, inst.issue_cycle, inst.ready_time,
            inst.dispatch_cycle, inst.complete_cycle, inst.retire_cycle))
        retire(inst, now)

    pipeline.fill_unit.retire = record
    simulator.warmup(300)
    result = simulator.run(700)
    return lifetimes, result.to_dict(), dict(pipeline.accounting.counts), \
        pipeline.now


@given(profiles(), oracle_machines(), oracle_specs(), st.integers(0, 99))
@settings(max_examples=100, deadline=None)
def test_pipeline_matches_reference_scheduler(profile, config, spec, seed):
    program = generate_program(profile)
    fast = _lifetimes_and_result(Pipeline, program, config, spec, seed)
    slow = _lifetimes_and_result(ReferencePipeline, program, config, spec,
                                 seed)
    assert fast[0] == slow[0]
    assert fast[1] == slow[1]
    assert fast[2] == slow[2]
    assert fast[3] == slow[3]


@pytest.mark.parametrize("name", ["gzip", "mcf", "adpcm_enc"])
@pytest.mark.parametrize("kind", ["base", "friendly", "fdrt", "issue"])
def test_catalog_workloads_match_reference_scheduler(name, kind):
    program = generate_program(profile_for(name))
    config, spec = MachineConfig(), StrategySpec(kind=kind)
    fast = _lifetimes_and_result(Pipeline, program, config, spec, 1)
    slow = _lifetimes_and_result(ReferencePipeline, program, config, spec, 1)
    assert fast == slow
