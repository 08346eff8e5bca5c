"""Unit tests for the top-level simulation API."""

import dataclasses

import pytest

from repro import MachineConfig, SimResult, Simulator, StrategySpec, simulate
from repro.workloads.generator import generate_program


def test_simulate_by_name(tiny_profile):
    result = simulate("gzip", StrategySpec(kind="base"),
                      instructions=1500, warmup=500)
    assert result.benchmark == "gzip"
    assert result.strategy == "Base"
    assert result.retired >= 1500
    assert result.ipc > 0


def test_simulate_with_program_object(tiny_program):
    result = simulate(tiny_program, instructions=1000, warmup=200)
    assert result.benchmark == tiny_program.name
    assert result.retired >= 1000


def test_warmup_resets_counters(tiny_program):
    simulator = Simulator(tiny_program, StrategySpec(kind="base"))
    simulator.warmup(1000)
    assert simulator.pipeline.stats.retired == 0
    result = simulator.run(500)
    assert 500 <= result.retired < 600


def test_result_is_frozen(tiny_program):
    result = simulate(tiny_program, instructions=500, warmup=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.ipc = 5.0


def test_speedup_over(tiny_program):
    simulator = Simulator(tiny_program, StrategySpec(kind="base"))
    result = simulator.run(1000)
    assert result.speedup_over(result) == pytest.approx(1.0)


def test_speedup_rejects_mismatched_work(tiny_program):
    a = simulate(tiny_program, instructions=500, warmup=0)
    b = simulate(tiny_program, instructions=2000, warmup=0)
    with pytest.raises(ValueError):
        b.speedup_over(a)


def test_custom_config_used(tiny_program):
    config = MachineConfig(width=8, num_clusters=2)
    simulator = Simulator(tiny_program, StrategySpec(kind="base"), config=config)
    assert simulator.pipeline.config.width == 8
    result = simulator.run(800)
    assert result.retired >= 800


def test_deterministic_given_same_inputs(tiny_profile):
    program = generate_program(tiny_profile)
    a = simulate(program, StrategySpec(kind="fdrt"), instructions=1200, warmup=300)
    program2 = generate_program(tiny_profile)
    b = simulate(program2, StrategySpec(kind="fdrt"), instructions=1200, warmup=300)
    assert a.cycles == b.cycles
    assert a.ipc == b.ipc


def test_result_fields_in_valid_ranges(tiny_program):
    result = simulate(tiny_program, StrategySpec(kind="fdrt"),
                      instructions=2000, warmup=2000)
    assert 0.0 <= result.pct_tc_instructions <= 1.0
    assert 0.0 <= result.pct_deps_critical <= 1.0
    assert 0.0 <= result.pct_critical_inter_trace <= 1.0
    assert 0.0 <= result.pct_intra_cluster_forwarding <= 1.0
    assert result.avg_forward_distance >= 0.0
    assert 0.0 <= result.mispredict_rate <= 1.0
    assert abs(sum(result.critical_source.values()) - 1.0) < 1e-9
    assert sum(result.option_counts.values()) > 0


def test_interleaved_simulators_of_one_program_match_solo_runs(tiny_program):
    """Two simulators built from one Program, run in alternating chunks,
    give the results each gives when run alone."""
    spec = StrategySpec(kind="fdrt")

    def solo():
        simulator = Simulator(tiny_program, spec, seed=5)
        simulator.warmup(500)
        for _ in range(3):
            simulator.pipeline.run(500)
        return simulator.result().to_dict()

    expected = solo()
    a = Simulator(tiny_program, spec, seed=5)
    b = Simulator(tiny_program, spec, seed=5)
    a.warmup(500)
    b.warmup(500)
    for _ in range(3):
        a.pipeline.run(500)
        b.pipeline.run(500)
    assert a.result().to_dict() == expected
    assert b.result().to_dict() == expected
