"""Unit tests for the functional simulator."""

from repro.isa import BranchKind, Instruction, Opcode
from repro.workloads.execution import FunctionalSimulator
from repro.workloads.program import BasicBlock, LoopBranch, Program, StrideStream


def _loop_program(trip=3):
    """body(2 instrs) -> conditional back-edge -> exit(jmp to start)."""
    body = [
        Instruction(0, Opcode.ADD, 8, (1,)),
        Instruction(4, Opcode.LOAD, 9, (8,), mem_stream_id=0),
        Instruction(8, Opcode.BNE, None, (9,)),
    ]
    exit_block = [
        Instruction(12, Opcode.MOV, 10, (9,)),
        Instruction(16, Opcode.JMP, None, ()),
    ]
    blocks = [
        BasicBlock(0, body, taken_succ=0, fall_succ=1),
        BasicBlock(1, exit_block, taken_succ=0),
    ]
    for block in blocks:
        for instr in block.instructions:
            instr.block_id = block.block_id
    return Program(
        "loop", blocks, 0,
        {8: LoopBranch(trip)},
        [StrideStream(0x1000, 8, 64)],
    )


def test_sequence_numbers_monotonic(tiny_program):
    sim = FunctionalSimulator(tiny_program)
    seqs = [inst.seq for inst in sim.run(500)]
    assert seqs == list(range(500))


def test_loop_execution_order():
    sim = FunctionalSimulator(_loop_program(trip=2))
    pcs = [inst.pc for inst in sim.run(8)]
    # Two loop iterations (taken once), then the exit block, then back.
    assert pcs == [0, 4, 8, 0, 4, 8, 12, 16]


def test_branch_outcomes_follow_behavior():
    sim = FunctionalSimulator(_loop_program(trip=3))
    branches = [i for i in sim.run(30) if i.static.pc == 8]
    outcomes = [b.taken for b in branches]
    # trip=3: taken, taken, not-taken, repeating.
    assert outcomes[:6] == [True, True, False, True, True, False]


def test_targets_point_to_successor_blocks():
    sim = FunctionalSimulator(_loop_program(trip=2))
    insts = sim.run(8)
    branch = insts[2]
    assert branch.taken and branch.target == 0
    exit_jmp = insts[7]
    assert exit_jmp.target == 0


def test_memory_addresses_generated():
    sim = FunctionalSimulator(_loop_program())
    loads = [i for i in sim.run(30) if i.static.is_mem]
    assert all(i.mem_addr is not None for i in loads)
    assert loads[0].mem_addr == 0x1000
    assert loads[1].mem_addr == 0x1008


def test_reset_reproduces_stream(tiny_program):
    sim = FunctionalSimulator(tiny_program)
    first = [(i.pc, i.taken, i.mem_addr) for i in sim.run(400)]
    sim.reset()
    second = [(i.pc, i.taken, i.mem_addr) for i in sim.run(400)]
    assert first == second


def test_calls_and_returns_balanced(tiny_program):
    sim = FunctionalSimulator(tiny_program)
    insts = sim.run(3000)
    calls = sum(1 for i in insts if i.static.branch_kind is BranchKind.CALL)
    rets = sum(1 for i in insts if i.static.branch_kind is BranchKind.RETURN)
    assert calls > 0
    assert abs(calls - rets) <= 2  # one call may be in flight at the cut


def test_call_records_fall_target(tiny_program):
    sim = FunctionalSimulator(tiny_program)
    calls = [i for i in sim.run(3000)
             if i.static.branch_kind is BranchKind.CALL]
    assert calls
    assert all(c.fall_target is not None for c in calls)


def test_return_target_matches_call_fall_target(tiny_program):
    sim = FunctionalSimulator(tiny_program)
    insts = sim.run(3000)
    stack = []
    for inst in insts:
        kind = inst.static.branch_kind
        if kind is BranchKind.CALL:
            stack.append(inst.fall_target)
        elif kind is BranchKind.RETURN and stack:
            assert inst.target == stack.pop()


def test_runs_forever_on_generated_programs(tiny_program):
    sim = FunctionalSimulator(tiny_program)
    assert len(sim.run(20000)) == 20000
    assert not sim.finished


def test_iterator_interface():
    sim = FunctionalSimulator(_loop_program())
    it = iter(sim)
    first = next(it)
    assert first.pc == 0


def test_interleaved_simulators_are_independent(tiny_program):
    """Two simulators over one Program must produce identical streams
    even when stepped in interleaved order (each owns private copies of
    the stateful behaviour models)."""
    a = FunctionalSimulator(tiny_program)
    b = FunctionalSimulator(tiny_program)
    stream_a, stream_b = [], []
    for _ in range(500):
        stream_a.append(a.step())
        stream_b.append(b.step())
    assert [(i.pc, i.taken, i.mem_addr) for i in stream_a] == \
        [(i.pc, i.taken, i.mem_addr) for i in stream_b]


def test_interleaved_simulators_match_a_solo_run(tiny_program):
    """Copies of the behaviour models share no state with the Program or
    with each other: interleaving two simulators, or restarting one,
    changes no stream."""
    def outcomes(insts):
        return [(i.pc, i.taken, i.target, i.mem_addr) for i in insts]

    solo = outcomes(FunctionalSimulator(tiny_program, seed=3).run(1500))
    a = FunctionalSimulator(tiny_program, seed=3)
    b = FunctionalSimulator(tiny_program, seed=3)
    stream_a, stream_b = [], []
    for _ in range(3):
        stream_a += a.run(500)
        stream_b += b.run(500)
    b.reset()
    restarted = b.run(1500)
    assert outcomes(stream_a) == outcomes(stream_b) == solo
    assert outcomes(restarted) == solo


def test_simulators_leave_the_program_models_untouched():
    """A simulator runs private models: after 20k instructions the
    Program's own stateful models are still in their initial state."""
    from repro.workloads.generator import generate_program
    from repro.workloads.profiles import profile_for
    from repro.workloads.program import PatternBranch

    program = generate_program(profile_for("mcf"))
    FunctionalSimulator(program).run(20_000)
    behaviors = list(program.branch_behaviors.values())
    loops = [b for b in behaviors if isinstance(b, LoopBranch)]
    patterns = [b for b in behaviors if isinstance(b, PatternBranch)]
    strides = [s for s in program.address_streams
               if isinstance(s, StrideStream)]
    assert loops and patterns and strides
    assert all(b._remaining == -1 for b in loops)
    assert all(b._pos == 0 for b in patterns)
    assert all(s._offset == 0 for s in strides)
