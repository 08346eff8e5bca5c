"""Unit tests for program structure and behaviour models."""

import random

import pytest

from repro.isa import Instruction, Opcode
from repro.workloads.program import (
    BasicBlock,
    BiasedBranch,
    LoopBranch,
    PatternBranch,
    Program,
    RandomStream,
    StrideStream,
)


@pytest.fixture
def rng():
    return random.Random(123)


class TestLoopBranch:
    def test_taken_trip_minus_one_times(self, rng):
        branch = LoopBranch(trip_count=5)
        outcomes = [branch.next_outcome(rng) for _ in range(5)]
        assert outcomes == [True] * 4 + [False]

    def test_repeats_after_exit(self, rng):
        branch = LoopBranch(trip_count=3)
        first = [branch.next_outcome(rng) for _ in range(3)]
        second = [branch.next_outcome(rng) for _ in range(3)]
        assert first == second == [True, True, False]

    def test_trip_count_one_never_taken(self, rng):
        branch = LoopBranch(trip_count=1)
        assert [branch.next_outcome(rng) for _ in range(4)] == [False] * 4

    def test_jitter_stays_positive(self, rng):
        branch = LoopBranch(trip_count=2, jitter=5)
        # Even with jitter pulling below 1, each visit has >= 1 trip,
        # i.e. we must see a False (exit) within a bounded window.
        outcomes = [branch.next_outcome(rng) for _ in range(100)]
        assert False in outcomes

    def test_reset(self, rng):
        branch = LoopBranch(trip_count=4)
        branch.next_outcome(rng)
        branch.reset()
        assert [branch.next_outcome(rng) for _ in range(4)] == [True] * 3 + [False]

    def test_rejects_zero_trip(self):
        with pytest.raises(ValueError):
            LoopBranch(0)


class TestBiasedBranch:
    def test_bias_respected(self, rng):
        branch = BiasedBranch(0.8)
        taken = sum(branch.next_outcome(rng) for _ in range(5000))
        assert 0.75 < taken / 5000 < 0.85

    def test_extremes(self, rng):
        assert all(BiasedBranch(1.0).next_outcome(rng) for _ in range(10))
        assert not any(BiasedBranch(0.0).next_outcome(rng) for _ in range(10))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BiasedBranch(1.5)


class TestPatternBranch:
    def test_pattern_cycles(self, rng):
        branch = PatternBranch([True, False, True])
        outcomes = [branch.next_outcome(rng) for _ in range(6)]
        assert outcomes == [True, False, True, True, False, True]

    def test_reset_restarts_pattern(self, rng):
        branch = PatternBranch([True, False])
        branch.next_outcome(rng)
        branch.reset()
        assert branch.next_outcome(rng) is True

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PatternBranch([])


class TestAddressStreams:
    def test_stride_walk(self, rng):
        stream = StrideStream(base=1000, stride=8, region_size=32)
        addrs = [stream.next_address(rng) for _ in range(5)]
        assert addrs == [1000, 1008, 1016, 1024, 1000]

    def test_stride_reset(self, rng):
        stream = StrideStream(base=0, stride=4, region_size=16)
        stream.next_address(rng)
        stream.reset()
        assert stream.next_address(rng) == 0

    def test_random_within_region(self, rng):
        stream = RandomStream(base=4096, region_size=1024)
        for _ in range(200):
            addr = stream.next_address(rng)
            assert 4096 <= addr < 4096 + 1024

    def test_random_alignment(self, rng):
        stream = RandomStream(base=0, region_size=256, align=8)
        assert all(stream.next_address(rng) % 8 == 0 for _ in range(50))


#: (factory, draw) for each model class: ``draw(model, rng)`` is one
#: outcome or address.
_MODELS = {
    "loop": (lambda: LoopBranch(trip_count=4, jitter=2),
             LoopBranch.next_outcome),
    "biased": (lambda: BiasedBranch(0.6), BiasedBranch.next_outcome),
    "pattern": (lambda: PatternBranch([True, True, False, True]),
                PatternBranch.next_outcome),
    "stride": (lambda: StrideStream(base=4096, stride=8, region_size=40),
               StrideStream.next_address),
    "random": (lambda: RandomStream(base=4096, region_size=1024),
               RandomStream.next_address),
}


class TestFresh:
    @pytest.mark.parametrize("kind", sorted(_MODELS))
    def test_fresh_of_a_used_model_replays_a_new_one(self, kind):
        make, draw = _MODELS[kind]
        used = make()
        rng = random.Random(7)
        for _ in range(5):
            draw(used, rng)
        clone = used.fresh()
        new = make()
        rng_new, rng_clone = random.Random(11), random.Random(11)
        assert ([draw(new, rng_new) for _ in range(40)]
                == [draw(clone, rng_clone) for _ in range(40)])

    @pytest.mark.parametrize("kind", ["loop", "pattern", "stride"])
    def test_stateful_models_are_cloned(self, kind):
        model = _MODELS[kind][0]()
        assert model.fresh() is not model

    @pytest.mark.parametrize("kind", ["biased", "random"])
    def test_stateless_models_are_shared(self, kind):
        model = _MODELS[kind][0]()
        assert model.fresh() is model


def _block(block_id, instrs, taken=None, fall=None):
    return BasicBlock(block_id, instrs, taken, fall)


class TestProgramValidation:
    def test_rejects_misindexed_blocks(self):
        blocks = [_block(1, [Instruction(0, Opcode.ADD, 8, ())])]
        with pytest.raises(ValueError):
            Program("p", blocks, 0, {}, [])

    def test_conditional_needs_both_successors(self):
        branch = Instruction(4, Opcode.BEQ, None, (1,))
        blocks = [_block(0, [branch], taken=0, fall=None)]
        with pytest.raises(ValueError):
            Program("p", blocks, 0, {4: BiasedBranch(0.5)}, [])

    def test_conditional_needs_behavior(self):
        branch = Instruction(4, Opcode.BEQ, None, (1,))
        blocks = [_block(0, [branch], taken=0, fall=0)]
        with pytest.raises(ValueError):
            Program("p", blocks, 0, {}, [])

    def test_successor_range_checked(self):
        blocks = [_block(0, [Instruction(0, Opcode.ADD, 8, ())], fall=5)]
        with pytest.raises(ValueError):
            Program("p", blocks, 0, {}, [])

    def test_mem_stream_id_checked(self):
        load = Instruction(0, Opcode.LOAD, 8, (1,), mem_stream_id=3)
        blocks = [_block(0, [load], fall=0)]
        with pytest.raises(ValueError):
            Program("p", blocks, 0, {}, [])

    def test_static_size(self):
        blocks = [
            _block(0, [Instruction(0, Opcode.ADD, 8, ()),
                       Instruction(4, Opcode.SUB, 9, (8,))], fall=1),
            _block(1, [Instruction(8, Opcode.MOV, 10, (9,))], fall=0),
        ]
        program = Program("p", blocks, 0, {}, [])
        assert program.static_size == 3

    def test_instruction_at(self):
        instr = Instruction(8, Opcode.MOV, 10, (9,))
        blocks = [_block(0, [instr], fall=0)]
        program = Program("p", blocks, 0, {}, [])
        assert program.instruction_at(8) is instr
        assert program.instruction_at(123) is None
