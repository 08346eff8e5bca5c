"""Functional simulation of synthetic programs.

Plays the role SimpleScalar's ``sim-fast`` plays in the paper: it executes
the program architecturally and hands the committed dynamic instruction
stream to the timing simulator.  Because branch outcomes and addresses come
from behaviour models, "execution" is a structural walk of the CFG: blocks
are visited in control-flow order, a call stack resolves returns, and every
instruction is materialised as a :class:`~repro.isa.DynInst` annotated with
its architectural outcome (branch direction and target, memory address).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional

from repro.isa import BranchKind, DynInst
from repro.workloads.program import Program


class FunctionalSimulator:
    """Walks a :class:`Program` and yields committed dynamic instructions.

    Each simulator owns *private copies* of the program's stateful
    behaviour models (branch behaviours, address streams; see
    :meth:`~repro.workloads.program.BranchBehavior.fresh`) and shares
    the stateless ones and the program itself, so multiple
    simulators over the same program — e.g. several strategies compared
    on one workload — produce identical, independent streams regardless
    of interleaving.

    Parameters
    ----------
    program:
        The synthetic program to execute.
    seed:
        Overrides the program's seed for the stochastic behaviour models
        when given.
    """

    def __init__(self, program: Program, seed: Optional[int] = None) -> None:
        self.program = program
        self._seed = program.seed if seed is None else seed
        self.reset()

    def reset(self) -> None:
        """Restart execution from the program entry point."""
        self._behaviors = {pc: behavior.fresh() for pc, behavior
                           in self.program.branch_behaviors.items()}
        self._streams = [stream.fresh()
                         for stream in self.program.address_streams]
        self._rng = random.Random(self._seed)
        self._block = self.program.entry_block
        self._index = 0
        self._call_stack: List[int] = []
        self._seq = 0
        self._finished = False

    @property
    def finished(self) -> bool:
        """True once control flow ran off the CFG (should not happen for
        generator-produced programs, whose main function loops forever)."""
        return self._finished

    def run(self, count: int) -> List[DynInst]:
        """Execute and return the next ``count`` committed instructions."""
        out: List[DynInst] = []
        step = self.step
        for _ in range(count):
            inst = step()
            if inst is None:
                break
            out.append(inst)
        return out

    def __iter__(self) -> Iterator[DynInst]:
        while True:
            inst = self.step()
            if inst is None:
                return
            yield inst

    def step(self) -> Optional[DynInst]:
        """Execute one instruction; ``None`` when execution has ended."""
        if self._finished:
            return None
        program = self.program
        block = program.blocks[self._block]
        static = block.instructions[self._index]
        dyn = DynInst(static, self._seq)
        self._seq += 1

        if static.is_mem:
            stream = self._streams[static.mem_stream_id]
            dyn.mem_addr = stream.next_address(self._rng)

        at_block_end = self._index == len(block.instructions) - 1
        if not at_block_end:
            self._index += 1
            return dyn

        # Resolve the block transition.
        kind = static.branch_kind
        next_block: Optional[int]
        if kind == BranchKind.CONDITIONAL:
            behavior = self._behaviors[static.pc]
            taken = behavior.next_outcome(self._rng)
            dyn.taken = taken
            next_block = block.taken_succ if taken else block.fall_succ
        elif kind == BranchKind.UNCONDITIONAL:
            dyn.taken = True
            next_block = block.taken_succ
        elif kind == BranchKind.CALL:
            dyn.taken = True
            if block.fall_succ is None:
                raise RuntimeError(f"CALL block {block.block_id} has no return point")
            self._call_stack.append(block.fall_succ)
            dyn.fall_target = (
                program.blocks[block.fall_succ].instructions[0].pc
            )
            next_block = block.taken_succ
        elif kind == BranchKind.RETURN:
            dyn.taken = True
            next_block = self._call_stack.pop() if self._call_stack else None
        else:
            next_block = block.fall_succ

        if next_block is None:
            self._finished = True
            return dyn
        dyn.target = program.blocks[next_block].instructions[0].pc
        self._block = next_block
        self._index = 0
        return dyn
