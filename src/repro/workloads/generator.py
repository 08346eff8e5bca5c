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
from typing import Dict, List, Optional, Sequence

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


class _DataflowState:
    """Tracks recent register writes to realise dependency distances."""

    def __init__(self, rng: random.Random, profile: WorkloadProfile) -> None:
        self._rng = rng
        self._profile = profile
        self._gen_index = 0
        #: reg -> generation index of its last write.
        self._last_write: Dict[int, int] = {}
        #: recent writes per register file, newest last: (gen_index, reg).
        #: Trimming at ``3 * mid_window`` keeps every write of the last
        #: ``2 * mid_window`` generated instructions: more than either pick
        #: window reaches back while ``near_window <= 2 * mid_window``.
        self._recent_int: List[tuple] = []
        self._recent_fp: List[tuple] = []
        self._rot_int_pos = 0
        self._rot_fp_pos = 0

    def note_instruction(self, dest: Optional[int]) -> None:
        """Advance the generation clock, recording ``dest`` if any."""
        if dest is not None:
            index = self._gen_index
            self._last_write[dest] = index
            recent = (self._recent_fp if dest >= NUM_INT_REGS
                      else self._recent_int)
            recent.append((index, dest))
            mid_window = self._profile.mid_window
            if len(recent) > 3 * mid_window:
                del recent[:mid_window]
        self._gen_index += 1

    def next_dest(self, fp: bool) -> int:
        """Pick the next rotating destination register."""
        if fp:
            reg = _ROTATING_FP[self._rot_fp_pos % len(_ROTATING_FP)]
            self._rot_fp_pos += 1
        else:
            reg = _ROTATING_INT[self._rot_int_pos % len(_ROTATING_INT)]
            self._rot_int_pos += 1
        return reg

    def pick_source(self, fp: bool) -> int:
        """Pick a source register honouring the profile's distance model."""
        rng = self._rng
        p = rng.random()
        profile = self._profile
        if p < profile.p_near:
            reg = self._pick_recent(profile.near_window, fp)
            if reg is not None:
                return reg
        elif p < profile.p_near + profile.p_mid:
            reg = self._pick_recent(profile.mid_window, fp, skip=profile.near_window)
            if reg is not None:
                return reg
        return rng.choice(_LONG_LIVED_FP if fp else _LONG_LIVED_INT)

    def _pick_recent(self, window: int, fp: bool, skip: int = 0) -> Optional[int]:
        """Pick a register whose *current* value was produced within
        ``window`` generated instructions (optionally skipping the most
        recent ``skip``).  Candidates are ordered newest first."""
        horizon = self._gen_index - window
        ceiling = self._gen_index - skip
        last_write = self._last_write
        candidates = []
        for idx, reg in reversed(self._recent_fp if fp else self._recent_int):
            if idx < horizon:
                break
            # A register overwritten since would have another distance.
            if idx < ceiling and last_write[reg] == idx:
                candidates.append(reg)
        if not candidates:
            return None
        return self._rng.choice(candidates)


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
        self.dataflow._profile = profile
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

    def _body_instruction(self) -> Instruction:
        """Generate one non-terminator instruction per the mix."""
        profile = self.profile
        rng = self.rng
        dataflow = self.dataflow
        pick = dataflow.pick_source
        r = rng.random()
        mem, cpx, fp, cpxfp, fpmem = self._mix
        pc = self._next_pc
        self._next_pc = pc + 4
        if r < mem:
            stream = self.new_stream()
            if rng.random() < profile.frac_load:
                dest = dataflow.next_dest(fp=False)
                instr = Instruction(pc, Opcode.LOAD, dest, (pick(False),),
                                    stream)
            else:
                srcs = (pick(False), pick(False))
                instr = Instruction(pc, Opcode.STORE, None, srcs, stream)
        elif r < cpx:
            dest = dataflow.next_dest(fp=False)
            op = Opcode.MUL if rng.random() < 0.9 else Opcode.DIV
            instr = Instruction(pc, op, dest, (pick(False), pick(False)))
        elif r < fp:
            dest = dataflow.next_dest(fp=True)
            op = rng.choice(_SIMPLE_FP_OPS)
            instr = Instruction(pc, op, dest, (pick(True), pick(True)))
        elif r < cpxfp:
            dest = dataflow.next_dest(fp=True)
            op = Opcode.FMUL if rng.random() < 0.8 else Opcode.FDIV
            instr = Instruction(pc, op, dest, (pick(True), pick(True)))
        elif r < fpmem:
            stream = self.new_stream()
            if rng.random() < profile.frac_load:
                dest = dataflow.next_dest(fp=True)
                instr = Instruction(pc, Opcode.FLOAD, dest, (pick(False),),
                                    stream)
            else:
                srcs = (pick(True), pick(False))
                instr = Instruction(pc, Opcode.FSTORE, None, srcs, stream)
        elif rng.random() < profile.frac_zero_src:
            dest = dataflow.next_dest(fp=False)
            instr = Instruction(pc, Opcode.LUI, dest, ())
        else:
            dest = dataflow.next_dest(fp=False)
            op = rng.choice(_SIMPLE_INT_OPS)
            if rng.random() < 0.6:
                srcs = (pick(False), pick(False))
            else:
                srcs = (pick(False),)
            instr = Instruction(pc, op, dest, srcs)
        dataflow.note_instruction(instr.dest)
        return instr

    def _body(self, count: int) -> List[Instruction]:
        body_instruction = self._body_instruction
        return [body_instruction() for _ in range(count)]

    def _cond_branch(self, behavior: BranchBehavior) -> Instruction:
        pc = self.alloc_pc()
        op = Opcode.BEQ if self.rng.random() < 0.5 else Opcode.BNE
        srcs = (self.dataflow.pick_source(False),)
        if self.rng.random() < 0.5:
            srcs = srcs + (self.dataflow.pick_source(False),)
        self.behaviors[pc] = behavior
        instr = Instruction(pc, op, None, srcs)
        self.dataflow.note_instruction(None)
        return instr

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
        shared_dest = self.dataflow.next_dest(fp=False)
        then_body = self._body(half)
        then_body.append(
            Instruction(self.alloc_pc(), Opcode.MOV, shared_dest,
                        (self.dataflow.pick_source(False),))
        )
        self.dataflow.note_instruction(shared_dest)
        then_block = self.add_block(then_body)
        else_body = self._body(half)
        else_body.append(
            Instruction(self.alloc_pc(), Opcode.MOV, shared_dest,
                        (self.dataflow.pick_source(False),))
        )
        self.dataflow.note_instruction(shared_dest)
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
            self.dataflow.note_instruction(None)
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
            self.dataflow.note_instruction(None)
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
