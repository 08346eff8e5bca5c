"""Unit tests for the synthetic program generator."""

import collections

import pytest

from repro.isa import BranchKind, OpClass
from repro.workloads.generator import generate_program
from repro.workloads.profiles import WorkloadProfile, all_profiles, profile_for


def test_generation_is_deterministic(tiny_profile):
    p1 = generate_program(tiny_profile)
    p2 = generate_program(tiny_profile)
    assert len(p1.blocks) == len(p2.blocks)
    for b1, b2 in zip(p1.blocks, p2.blocks):
        assert [i.pc for i in b1.instructions] == [i.pc for i in b2.instructions]
        assert [i.opcode for i in b1.instructions] == [i.opcode for i in b2.instructions]


def test_different_seeds_differ():
    base = profile_for("gzip")
    import dataclasses
    other = dataclasses.replace(base, seed=base.seed + 1)
    p1 = generate_program(base)
    p2 = generate_program(other)
    ops1 = [i.opcode for b in p1.blocks for i in b.instructions]
    ops2 = [i.opcode for b in p2.blocks for i in b.instructions]
    assert ops1 != ops2


def test_pcs_unique_and_aligned(tiny_program):
    pcs = [i.pc for b in tiny_program.blocks for i in b.instructions]
    assert len(pcs) == len(set(pcs))
    assert all(pc % 4 == 0 for pc in pcs)


def test_block_ids_set_on_instructions(tiny_program):
    for block in tiny_program.blocks:
        for instr in block.instructions:
            assert instr.block_id == block.block_id


def test_every_conditional_has_behavior(tiny_program):
    for block in tiny_program.blocks:
        term = block.terminator
        if term.branch_kind is BranchKind.CONDITIONAL:
            assert term.pc in tiny_program.branch_behaviors


def test_memory_instructions_have_streams(tiny_program):
    for block in tiny_program.blocks:
        for instr in block.instructions:
            if instr.is_mem:
                stream = tiny_program.address_streams[instr.mem_stream_id]
                assert stream is not None


def test_entry_block_in_range(tiny_program):
    assert 0 <= tiny_program.entry_block < len(tiny_program.blocks)


def test_main_function_loops_forever(tiny_program):
    """The main function's tail jumps back to the entry, so functional
    execution never runs off the CFG."""
    entry_pc = tiny_program.blocks[tiny_program.entry_block].instructions[0].pc
    jmp_targets = [
        tiny_program.blocks[b.taken_succ].instructions[0].pc
        for b in tiny_program.blocks
        if b.terminator.branch_kind is BranchKind.UNCONDITIONAL
        and b.taken_succ is not None
    ]
    assert entry_pc in jmp_targets


def test_instruction_mix_tracks_profile():
    profile = profile_for("eon")
    program = generate_program(profile)
    mix = collections.Counter(
        i.op_class for b in program.blocks for i in b.instructions
    )
    total = sum(mix.values())
    fp_share = (mix[OpClass.SIMPLE_FP] + mix[OpClass.COMPLEX_FP]
                + mix[OpClass.FP_MEM]) / total
    assert fp_share > 0.05  # eon is the FP-flavoured benchmark
    mem_share = (mix[OpClass.INT_MEM] + mix[OpClass.FP_MEM]) / total
    assert 0.1 < mem_share < 0.5


def test_integer_profile_has_no_fp():
    program = generate_program(profile_for("gzip"))
    classes = {i.op_class for b in program.blocks for i in b.instructions}
    assert OpClass.SIMPLE_FP not in classes
    assert OpClass.COMPLEX_FP not in classes


def test_larger_profiles_make_larger_programs():
    small = generate_program(profile_for("adpcm_enc"))
    large = generate_program(profile_for("gcc"))
    assert large.static_size > 2 * small.static_size


def test_all_catalog_profiles_generate():
    for name, profile in all_profiles().items():
        program = generate_program(profile)
        assert program.static_size > 50, name
        assert program.name == name


def test_profile_validation():
    with pytest.raises(ValueError):
        WorkloadProfile(name="bad", frac_mem=0.9, frac_fp=0.3)
    with pytest.raises(ValueError):
        WorkloadProfile(name="bad", p_near=0.8, p_mid=0.3)


def test_profile_for_unknown_name():
    with pytest.raises(KeyError):
        profile_for("not-a-benchmark")


def test_loop_nesting_generates_more_blocks():
    import dataclasses
    base = profile_for("gzip")
    flat = generate_program(dataclasses.replace(base, loop_nesting=1))
    nested = generate_program(dataclasses.replace(base, loop_nesting=2))
    assert nested.static_size > flat.static_size


def test_nested_loops_execute():
    import dataclasses
    from repro.workloads.execution import FunctionalSimulator

    profile = dataclasses.replace(profile_for("gzip"), loop_nesting=3)
    program = generate_program(profile)
    insts = FunctionalSimulator(program).run(5000)
    assert len(insts) == 5000


def _program_digest(program) -> str:
    """Digest of everything generation decides about ``program``: every
    field of every instruction, block successors, each behaviour's and
    stream's class and parameters, the entry block and the seed."""
    import hashlib

    parts = [repr((program.name, program.entry_block, program.seed))]
    for block in program.blocks:
        parts.append(repr((block.block_id, block.taken_succ, block.fall_succ)))
        for i in block.instructions:
            parts.append(repr((
                i.pc, int(i.opcode), i.dest, i.srcs, int(i.op_class),
                int(i.branch_kind), i.is_mem, i.is_load, i.is_store,
                i.mem_stream_id, i.block_id)))
    models = list(program.branch_behaviors.items())
    models += list(enumerate(program.address_streams))
    for key, model in models:
        params = sorted((k, v) for k, v in vars(model).items()
                        if not k.startswith("_"))
        parts.append(repr((key, type(model).__name__, params)))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


#: Digests of the generated programs.  Generation must draw its random
#: numbers in exactly this order: any change here changes every
#: simulated result.
GOLDEN_PROGRAMS = {
    "bzip2": "5e7c98988cb7b3ee",
    "eon": "f221fa9606342ce1",
    "gzip": "7beff0a5b70f2dca",
    "perlbmk": "32b9a072c4d0630f",
    "twolf": "2213d8f3c7455e60",
    "vpr": "1dd76f60bfa924cd",
    "crafty": "8937f9bf723b84ce",
    "gap": "498534aa99530695",
    "gcc": "638455f844145383",
    "mcf": "ac3c9545904460d3",
    "parser": "076dfdda149d3855",
    "vortex": "e7f397280a675523",
    "adpcm_enc": "079655421af766f8",
    "adpcm_dec": "941c22f1592fc9e8",
    "epic_enc": "b4890c02a9d835ee",
    "epic_dec": "8b1b0468e39e549f",
    "g721_enc": "042db5c022ce9f8d",
    "g721_dec": "9dd09ee488de40a5",
    "gsm_enc": "097db6f5523c682c",
    "gsm_dec": "e9c3bd10304e1dd9",
    "jpeg_enc": "323069045669a10b",
    "jpeg_dec": "f5973980f3027083",
    "mpeg2_enc": "891daab47ed39735",
    "mpeg2_dec": "c96cf8d713e9d8fa",
    "pegwit_enc": "9590d227f5a985ce",
    "pegwit_dec": "a1e21451058ebfed",
    "phased-compute-memory-branchy/3": "e4362d30e6ca8231",
}


def test_catalog_programs_match_golden_digests():
    digests = {name: _program_digest(generate_program(profile))
               for name, profile in all_profiles().items()}
    expected = {k: v for k, v in GOLDEN_PROGRAMS.items()
                if not k.startswith("phased")}
    assert digests == expected


def test_phased_program_matches_golden_digest():
    from repro.workloads.generator import phased_program

    program = phased_program(("compute", "memory", "branchy"), seed=3)
    assert (_program_digest(program)
            == GOLDEN_PROGRAMS["phased-compute-memory-branchy/3"])


def test_simulating_leaves_the_program_unchanged():
    """A ``Program`` is read-only and shared: building and running a
    ``Simulator`` on it changes nothing generation decided."""
    from repro.assign.base import StrategySpec
    from repro.core.simulator import Simulator

    program = generate_program(profile_for("mcf"))
    before = _program_digest(program)
    Simulator(program, StrategySpec(kind="fdrt"), seed=1).run(5_000)
    assert _program_digest(program) == before == GOLDEN_PROGRAMS["mcf"]
