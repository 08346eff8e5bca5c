"""Synthetic program generator.

Builds an executable control-flow graph from a :class:`WorkloadProfile`.
The generated program has the shape of a typical integer/media benchmark:

* a main function whose body is an infinite outer loop (the functional
  simulator stops at the instruction budget);
* per function, a sequence of counted loops whose bodies contain if/else
  *diamonds* (conditional hammocks) with biased or patterned branches;
* calls from the main function into the other functions (returns modelled
  with a call stack, exercising the return-address stack predictor);
* register dataflow with controlled producer-consumer distances; and
* per-memory-instruction address streams with profile-controlled locality.

Generation is fully deterministic given the profile (which embeds a seed).
"""

from __future__ import annotations

import dataclasses
import random
from bisect import bisect_left
from itertools import cycle
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa import Instruction, Opcode, fp_reg, int_reg
from repro.isa.registers import NUM_INT_REGS
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.program import (
    AddressStream,
    BasicBlock,
    BiasedBranch,
    BranchBehavior,
    LoopBranch,
    PatternBranch,
    Program,
    RandomStream,
    StrideStream,
)

#: Long-lived registers (never rotated): bases, constants, stack pointer.
_LONG_LIVED_INT = [int_reg(i) for i in range(8)]
_LONG_LIVED_FP = [fp_reg(i) for i in range(4)]
#: Rotating destination pools.
_ROTATING_INT = [int_reg(i) for i in range(8, 32)]
_ROTATING_FP = [fp_reg(i) for i in range(4, 32)]

_SIMPLE_INT_OPS = (
    Opcode.ADD,
    Opcode.SUB,
    Opcode.AND,
    Opcode.OR,
    Opcode.XOR,
    Opcode.SHL,
    Opcode.SHR,
    Opcode.CMP,
)
_SIMPLE_FP_OPS = (Opcode.FADD, Opcode.FSUB, Opcode.FCMP)
#: Source register files (``True``: fp) for :meth:`_DataflowState.operands`.
_INT = (False,)
_BRANCH = (False, None)
_INT_INT = (False, False)
_FP_FP = (True, True)
_FP_INT = (True, False)


class _DataflowState:
    """Tracks register writes to realise dependency distances.

    Per register file, ``_int``/``_fp`` hold each register's latest write,
    oldest first, as parallel lists of generation index and register, so
    the still-current writes within a window are one bisected slice.
    """

    def __init__(self, rng: random.Random, profile: WorkloadProfile) -> None:
        self._random = rng.random
        self._getrandbits = rng.getrandbits
        self.profile = profile
        #: The generation clock: instructions noted so far.
        self.clock = 0
        self._int: Tuple[List[int], List[int]] = ([], [])
        self._fp: Tuple[List[int], List[int]] = ([], [])
        #: Rotating destination pools: ``next()`` is the next destination.
        self.int_dests = cycle(_ROTATING_INT)
        self.fp_dests = cycle(_ROTATING_FP)

    def operands(self, fps: Tuple[Optional[bool], ...],
                 dest: Optional[int] = None) -> Tuple[int, ...]:
        """Pick one instruction's sources, then note its write of ``dest``
        (``None``: none) and advance the generation clock.

        ``fps`` gives each source's file (``True``: fp); ``None`` is an int
        source that a fair coin may leave out.  A pick draws ``random()``
        against the distance model (written within ``near_window``, within
        ``mid_window`` but not ``near_window``, or long-lived), then one
        candidate, newest first, by ``Random.choice``'s draw, replicated
        here and nowhere else; long-lived when there is no candidate.
        """
        random = self._random
        getrandbits = self._getrandbits
        profile = self.profile
        clock = self.clock
        near = clock - profile.near_window
        p_near = profile.p_near
        p_mid = p_near + profile.p_mid
        srcs = []
        for fp in fps:
            if fp is None:
                if random() >= 0.5:
                    break
                fp = False
            indices, regs = self._fp if fp else self._int
            p = random()
            if p < p_near:
                lo, hi = bisect_left(indices, near), len(indices)
            elif p < p_mid:
                lo = bisect_left(indices, clock - profile.mid_window)
                hi = bisect_left(indices, near)
            else:
                lo = hi = 0
            recent = hi > lo
            pool = regs if recent else _LONG_LIVED_FP if fp else _LONG_LIVED_INT
            n = hi - lo if recent else len(pool)
            # Random.choice(pool) is pool[_randbelow(n)]:
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            srcs.append(pool[hi - 1 - r] if recent else pool[r])
        if dest is not None:
            indices, regs = self._fp if dest >= NUM_INT_REGS else self._int
            if dest in regs:
                i = regs.index(dest)
                del indices[i], regs[i]
            indices.append(clock)
            regs.append(dest)
        self.clock = clock + 1
        return tuple(srcs)


class _ProgramBuilder:
    """Accumulates blocks/streams/behaviours while generating."""

    def __init__(self, profile: WorkloadProfile) -> None:
        self.rng = random.Random(profile.seed)
        self.blocks: List[BasicBlock] = []
        self.behaviors: Dict[int, BranchBehavior] = {}
        self.streams: List[AddressStream] = []
        self.dataflow = _DataflowState(self.rng, profile)
        self._next_pc = 0x1000
        self.set_profile(profile)

    def set_profile(self, profile: WorkloadProfile) -> None:
        """Point the generation knobs at ``profile``; the rng, dataflow
        history, and pc/stream allocators carry over."""
        self.profile = profile
        self.dataflow.profile = profile
        # Cold regions: the working set split into byte-addressed parts.
        n = max(1, profile.num_regions)
        size = max(4096, profile.working_set_kb * 1024 // n)
        self._regions = [(0x100000 + i * (size + 0x10000), size)
                         for i in range(n)]
        # The hot region (stack / hot arrays): small and cache-resident.
        self._hot_region = (0x80000, profile.hot_region_kb * 1024)
        # Cumulative instruction-mix thresholds of _body_instruction.
        mem = profile.frac_mem
        cpx = mem + profile.frac_cpx_int
        fp = cpx + profile.frac_fp
        cpxfp = fp + profile.frac_cpx_fp
        self._mix = (mem, cpx, fp, cpxfp, cpxfp + profile.frac_fp_mem)

    # ------------------------------------------------------------------
    # Low-level helpers.
    # ------------------------------------------------------------------
    def alloc_pc(self) -> int:
        pc = self._next_pc
        self._next_pc += 4
        return pc

    def new_stream(self) -> int:
        """Create an address stream per the locality profile; return id."""
        if self.rng.random() < self.profile.hot_frac:
            base, size = self._hot_region
        else:
            base, size = self.rng.choice(self._regions)
        if self.rng.random() < self.profile.stride_frac:
            stride = self.rng.choice((4, 4, 8, 8, 8, 16))
            stream: AddressStream = StrideStream(base, stride, size)
        else:
            stream = RandomStream(base, size)
        self.streams.append(stream)
        return len(self.streams) - 1

    def _sample_block_len(self) -> int:
        profile = self.profile
        n = int(round(self.rng.gauss(profile.mean_block_size, profile.block_size_sd)))
        return max(2, min(14, n))

    def _body(self, count: int) -> List[Instruction]:
        """Generate ``count`` non-terminator instructions per the mix."""
        profile = self.profile
        random = self.rng.random
        choice = self.rng.choice
        new_stream = self.new_stream
        dataflow = self.dataflow
        operands = dataflow.operands
        int_dests, fp_dests = dataflow.int_dests, dataflow.fp_dests
        mem, cpx, fp, cpxfp, fpmem = self._mix
        frac_load = profile.frac_load
        body = []
        first = self._next_pc
        self._next_pc = first + 4 * count
        for pc in range(first, first + 4 * count, 4):
            r = random()
            stream = None
            if r < mem:
                stream = new_stream()
                if random() < frac_load:
                    op, dest, fps = Opcode.LOAD, next(int_dests), _INT
                else:
                    op, dest, fps = Opcode.STORE, None, _INT_INT
            elif r < cpx:
                dest = next(int_dests)
                op = Opcode.MUL if random() < 0.9 else Opcode.DIV
                fps = _INT_INT
            elif r < fp:
                dest = next(fp_dests)
                op = choice(_SIMPLE_FP_OPS)
                fps = _FP_FP
            elif r < cpxfp:
                dest = next(fp_dests)
                op = Opcode.FMUL if random() < 0.8 else Opcode.FDIV
                fps = _FP_FP
            elif r < fpmem:
                stream = new_stream()
                if random() < frac_load:
                    op, dest, fps = Opcode.FLOAD, next(fp_dests), _INT
                else:
                    op, dest, fps = Opcode.FSTORE, None, _FP_INT
            elif random() < profile.frac_zero_src:
                op, dest, fps = Opcode.LUI, next(int_dests), ()
            else:
                dest = next(int_dests)
                op = choice(_SIMPLE_INT_OPS)
                fps = _INT_INT if random() < 0.6 else _INT
            body.append(Instruction(pc, op, dest, operands(fps, dest), stream))
        return body

    def _cond_branch(self, behavior: BranchBehavior) -> Instruction:
        pc = self.alloc_pc()
        op = Opcode.BEQ if self.rng.random() < 0.5 else Opcode.BNE
        self.behaviors[pc] = behavior
        return Instruction(pc, op, None, self.dataflow.operands(_BRANCH))

    def _diamond_behavior(self) -> BranchBehavior:
        """Branch behaviour of an if/else diamond, per the profile.

        Three pools: learnable repeating patterns, hard data-dependent
        branches around ``branch_bias``, and strongly biased branches
        (the dominant pool in real integer code).
        """
        profile = self.profile
        rng = self.rng
        r = rng.random()
        if r < profile.frac_pattern_branches:
            length = rng.randint(3, 6)
            taken_count = max(1, round(profile.branch_bias * length))
            pattern = [True] * taken_count + [False] * (length - taken_count)
            rng.shuffle(pattern)
            return PatternBranch(pattern)
        if r < profile.frac_pattern_branches + profile.frac_hard_branches:
            p = profile.branch_bias + rng.uniform(
                -profile.bias_spread, profile.bias_spread
            )
        else:
            p = rng.uniform(0.92, 0.99)
        p = min(0.99, max(0.02, p))
        if rng.random() < 0.5:
            p = 1.0 - p
        return BiasedBranch(p)

    def add_block(
        self,
        instructions: List[Instruction],
        taken_succ: Optional[int] = None,
        fall_succ: Optional[int] = None,
    ) -> int:
        block_id = len(self.blocks)
        for instr in instructions:
            instr.block_id = block_id
        self.blocks.append(BasicBlock(block_id, instructions, taken_succ, fall_succ))
        return block_id

    def patch(self, block_id: int, taken: Optional[int] = None,
              fall: Optional[int] = None) -> None:
        block = self.blocks[block_id]
        if taken is not None:
            block.taken_succ = taken
        if fall is not None:
            block.fall_succ = fall

    # ------------------------------------------------------------------
    # Structured generation.
    # ------------------------------------------------------------------
    def gen_diamond(self) -> tuple:
        """Generate an if/else hammock; return (entry_id, join_id)."""
        half = max(1, self._sample_block_len() // 2)
        head_body = self._body(self._sample_block_len() - 1)
        head_body.append(self._cond_branch(self._diamond_behavior()))
        head = self.add_block(head_body)
        # Both arms write an overlapping destination so that the consumer's
        # dynamic producer alternates with the branch direction (this is
        # what keeps Table 3's producer-repetition rates below 100%).
        shared_dest = next(self.dataflow.int_dests)
        then_body = self._body(half)
        then_body.append(
            Instruction(self.alloc_pc(), Opcode.MOV, shared_dest,
                        self.dataflow.operands(_INT, shared_dest))
        )
        then_block = self.add_block(then_body)
        else_body = self._body(half)
        else_body.append(
            Instruction(self.alloc_pc(), Opcode.MOV, shared_dest,
                        self.dataflow.operands(_INT, shared_dest))
        )
        jmp = Instruction(self.alloc_pc(), Opcode.JMP, None, ())
        else_body.append(jmp)
        else_block = self.add_block(else_body)
        join = self.add_block(self._body(self._sample_block_len()))
        # taken -> else arm; fall-through -> then arm (then falls into the
        # else arm's position, so then jumps... keep it simple: taken goes
        # to the else block, fall goes to then; then falls through to join;
        # else ends with JMP to join).
        self.patch(head, taken=else_block, fall=then_block)
        self.patch(then_block, fall=join)
        self.patch(else_block, taken=join)
        return head, join

    def gen_loop(self, depth: int = 1) -> tuple:
        """Generate a counted loop; return (entry_id, exit_id).

        With ``profile.loop_nesting > depth`` the loop body embeds an
        inner loop (shorter trip count) after its diamonds — the doubly
        nested shape of image/video kernels.
        """
        profile = self.profile
        entry = self.add_block(self._body(self._sample_block_len()))
        prev_exit = entry
        header: Optional[int] = None
        for _ in range(profile.diamonds_per_loop):
            head, join = self.gen_diamond()
            if header is None:
                header = head
            self.patch(prev_exit, fall=head, taken=None)
            prev_exit = join
        if depth < profile.loop_nesting:
            inner_entry, inner_exit = self.gen_loop(depth + 1)
            if header is None:
                header = inner_entry
            self.patch(prev_exit, fall=inner_entry)
            prev_exit = inner_exit
        if header is None:
            header = self.add_block(self._body(self._sample_block_len()))
            self.patch(prev_exit, fall=header)
            prev_exit = header
        # Latch block with the loop back-edge; inner loops run shorter.
        mean_trip = max(2, profile.loop_trip_mean // (4 ** (depth - 1)))
        trip = max(2, int(self.rng.gauss(mean_trip, mean_trip * 0.2)))
        latch_body = self._body(max(1, self._sample_block_len() - 1))
        latch_body.append(
            self._cond_branch(LoopBranch(trip, profile.loop_trip_jitter))
        )
        latch = self.add_block(latch_body)
        self.patch(prev_exit, fall=latch)
        exit_block = self.add_block(self._body(2))
        self.patch(latch, taken=header, fall=exit_block)
        # Entry falls into the loop header chain already via prev_exit wiring.
        return entry, exit_block

    def gen_function(self, is_main: bool, callees: List[int]) -> tuple:
        """Generate one function; return (entry_id, exit_id).

        ``callees`` are entry block ids this function should call between
        its loops (used by the main function).
        """
        profile = self.profile
        entry, prev_exit = self.gen_loop()
        for i in range(1, profile.loops_per_func):
            loop_entry, loop_exit = self.gen_loop()
            self.patch(prev_exit, fall=loop_entry)
            prev_exit = loop_exit
        for callee_entry in callees:
            call_body = self._body(2)
            call_instr = Instruction(self.alloc_pc(), Opcode.CALL, None, ())
            self.dataflow.operands(())
            call_body.append(call_instr)
            call_block = self.add_block(call_body, taken_succ=callee_entry)
            cont = self.add_block(self._body(2))
            self.patch(call_block, fall=cont)
            self.patch(prev_exit, fall=call_block)
            prev_exit = cont
        if is_main:
            # Outer infinite loop: jump back to the entry.
            tail_body = self._body(2)
            tail_body.append(Instruction(self.alloc_pc(), Opcode.JMP, None, ()))
            tail = self.add_block(tail_body, taken_succ=entry)
            self.patch(prev_exit, fall=tail)
            exit_block = tail
        else:
            ret_body = self._body(1)
            ret_body.append(Instruction(self.alloc_pc(), Opcode.RET, None, ()))
            self.dataflow.operands(())
            ret_block = self.add_block(ret_body)
            self.patch(prev_exit, fall=ret_block)
            exit_block = ret_block
        return entry, exit_block


def generate_program(profile: WorkloadProfile) -> Program:
    """Generate the synthetic program described by ``profile``."""
    builder = _ProgramBuilder(profile)
    # Generate callee functions first so the main function can target them.
    callee_entries: List[int] = []
    for _ in range(max(0, profile.num_funcs - 1)):
        entry, _exit = builder.gen_function(is_main=False, callees=[])
        callee_entries.append(entry)
    main_entry, _ = builder.gen_function(is_main=True, callees=callee_entries)
    return Program(
        name=profile.name,
        blocks=builder.blocks,
        entry_block=main_entry,
        branch_behaviors=builder.behaviors,
        address_streams=builder.streams,
        seed=profile.seed,
    )


# ----------------------------------------------------------------------
# Phased workloads (program-phase detection fixtures).
# ----------------------------------------------------------------------
#: Profile overrides per phase-segment kind.  Each kind pins the knobs
#: that move the interval signals the phase detector watches: the
#: instruction mix (which reservation stations fill), memory locality
#: (cache hit rates and ``mem_latency`` pressure), and branch shape
#: (front-end starvation).
PHASE_SEGMENT_KINDS: Dict[str, dict] = {
    "compute": dict(
        description="compute-bound: cache-resident, ALU-heavy",
        frac_mem=0.06,
        frac_cpx_int=0.10,
        loop_trip_mean=48,
        frac_pattern_branches=0.60,
        branch_bias=0.90,
        p_near=0.50,
        working_set_kb=32,
        stride_frac=0.90,
        num_regions=2,
        hot_region_kb=8,
        hot_frac=0.95,
    ),
    "memory": dict(
        description="memory-bound: large random working set",
        frac_mem=0.45,
        frac_load=0.75,
        loop_trip_mean=32,
        p_near=0.25,
        working_set_kb=4096,
        stride_frac=0.05,
        num_regions=16,
        hot_region_kb=4,
        hot_frac=0.05,
    ),
    "branchy": dict(
        description="branch-bound: short trips, hard branches",
        frac_mem=0.18,
        loop_trip_mean=6,
        loop_trip_jitter=3,
        frac_pattern_branches=0.05,
        frac_hard_branches=0.60,
        branch_bias=0.55,
        bias_spread=0.05,
        working_set_kb=128,
    ),
}


def generate_phased_program(
    segments: Sequence[WorkloadProfile],
    name: str = "phased",
    seed: int = 1,
) -> Program:
    """Generate one program whose dynamic stream alternates behaviours.

    Each profile in ``segments`` contributes ``loops_per_func`` counted
    loops generated under *its* instruction mix, branch shape, and
    memory locality; segments are chained in order and the final block
    jumps back to the first segment's entry, so execution cycles through
    the behaviours indefinitely (the functional simulator stops at the
    instruction budget, as with :func:`generate_program`'s main loop).
    One builder spans all segments, so PCs, streams, and dataflow state
    stay globally consistent.
    """
    if not segments:
        raise ValueError("phased program needs at least one segment")
    builder = _ProgramBuilder(dataclasses.replace(segments[0], seed=seed))
    first_entry: Optional[int] = None
    prev_exit: Optional[int] = None
    for profile in segments:
        builder.set_profile(profile)
        for _ in range(max(1, profile.loops_per_func)):
            entry, loop_exit = builder.gen_loop()
            if first_entry is None:
                first_entry = entry
            if prev_exit is not None:
                builder.patch(prev_exit, fall=entry)
            prev_exit = loop_exit
    # Outer infinite loop over all segments.
    tail_body = builder._body(2)
    tail_body.append(Instruction(builder.alloc_pc(), Opcode.JMP, None, ()))
    tail = builder.add_block(tail_body, taken_succ=first_entry)
    builder.patch(prev_exit, fall=tail)
    return Program(
        name=name,
        blocks=builder.blocks,
        entry_block=first_entry,
        branch_behaviors=builder.behaviors,
        address_streams=builder.streams,
        seed=seed,
    )


def phased_program(
    kinds: Sequence[str] = ("compute", "memory"),
    seed: int = 1,
    loops_per_segment: int = 2,
    name: Optional[str] = None,
) -> Program:
    """Build a phased program from :data:`PHASE_SEGMENT_KINDS` presets.

    ``kinds`` names the segment behaviours in execution order (repeats
    allowed); unknown names raise :class:`ValueError` listing the
    catalog.  This is the fixture ``repro timeline --phased`` and the CI
    phase-detection smoke run.
    """
    profiles = []
    for kind in kinds:
        preset = PHASE_SEGMENT_KINDS.get(kind)
        if preset is None:
            raise ValueError(
                f"unknown phase segment kind {kind!r}: expected one of "
                f"{', '.join(sorted(PHASE_SEGMENT_KINDS))}"
            )
        profiles.append(WorkloadProfile(
            name=f"phase-{kind}",
            loops_per_func=loops_per_segment,
            seed=seed,
            **preset,
        ))
    return generate_phased_program(
        profiles,
        name=name or ("phased-" + "-".join(kinds)),
        seed=seed,
    )
