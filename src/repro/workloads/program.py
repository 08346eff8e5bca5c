"""Static program representation: basic blocks, branch and address models.

A :class:`Program` is a control-flow graph of :class:`BasicBlock`s.  Blocks
hold :class:`~repro.isa.Instruction` objects; the last instruction of a
block may be a branch.  Because the timing experiments only depend on the
*structure* of execution (dependences, control flow, addresses), branch
outcomes and memory addresses are produced by small stochastic behaviour
models rather than by value computation.
"""

from __future__ import annotations

import copy
import random
from typing import Dict, List, Optional, Sequence

from repro.isa import BranchKind, Instruction


class BranchBehavior:
    """Base class for branch outcome models.

    Subclasses implement :meth:`next_outcome`, which returns ``True`` for
    taken.  A behaviour belongs to one static branch of a read-only
    :class:`Program`; each functional simulator runs the model
    :meth:`fresh` returns, so no run changes the program's own state
    and functional runs are reproducible.
    """

    def next_outcome(self, rng: random.Random) -> bool:
        """Return the next dynamic outcome of this branch."""
        raise NotImplementedError

    def reset(self) -> None:
        """Restore the initial state."""

    def fresh(self) -> "BranchBehavior":
        """A private model in the initial state.  The default is a
        shallow copy, reset: model state is scalars and tuples, so the
        copy shares nothing mutable with ``self``."""
        clone = copy.copy(self)
        clone.reset()
        return clone


class LoopBranch(BranchBehavior):
    """A loop back-edge: taken ``trip_count - 1`` times, then not taken.

    ``jitter`` adds a small random variation to the trip count of each loop
    visit, as real loop bounds vary with data.
    """

    def __init__(self, trip_count: int, jitter: int = 0) -> None:
        if trip_count < 1:
            raise ValueError("trip_count must be >= 1")
        self.trip_count = trip_count
        self.jitter = jitter
        self._remaining = -1

    def next_outcome(self, rng: random.Random) -> bool:
        if self._remaining < 0:
            trips = self.trip_count
            if self.jitter:
                trips = max(1, trips + rng.randint(-self.jitter, self.jitter))
            self._remaining = trips - 1
        if self._remaining > 0:
            self._remaining -= 1
            return True
        self._remaining = -1
        return False

    def reset(self) -> None:
        self._remaining = -1

    def fresh(self) -> "LoopBranch":
        return LoopBranch(self.trip_count, self.jitter)


class BiasedBranch(BranchBehavior):
    """A data-dependent branch taken with fixed probability ``p_taken``."""

    def __init__(self, p_taken: float) -> None:
        if not 0.0 <= p_taken <= 1.0:
            raise ValueError("p_taken must be in [0, 1]")
        self.p_taken = p_taken

    def next_outcome(self, rng: random.Random) -> bool:
        return rng.random() < self.p_taken

    def fresh(self) -> "BiasedBranch":
        return self  # stateless: shared by every simulator


class PatternBranch(BranchBehavior):
    """A branch following a short repeating outcome pattern.

    Patterns such as ``TTNT`` are perfectly learnable by a gshare predictor
    with enough history, modelling regular control flow.
    """

    def __init__(self, pattern: Sequence[bool]) -> None:
        if not pattern:
            raise ValueError("pattern must be non-empty")
        self.pattern = tuple(bool(p) for p in pattern)
        self._pos = 0

    def next_outcome(self, rng: random.Random) -> bool:
        outcome = self.pattern[self._pos]
        self._pos = (self._pos + 1) % len(self.pattern)
        return outcome

    def reset(self) -> None:
        self._pos = 0

    def fresh(self) -> "PatternBranch":
        return PatternBranch(self.pattern)


class AddressStream:
    """Base class for data-address generators owned by memory instructions."""

    def next_address(self, rng: random.Random) -> int:
        """Return the next effective address (byte address)."""
        raise NotImplementedError

    def reset(self) -> None:
        """Restore the initial state."""

    def fresh(self) -> "AddressStream":
        """A private model in the initial state (see
        :meth:`BranchBehavior.fresh`)."""
        clone = copy.copy(self)
        clone.reset()
        return clone


class StrideStream(AddressStream):
    """Sequential walk over a region: ``base + i*stride mod region``.

    Models array traversals; produces high spatial locality and therefore
    high cache hit rates once the region is resident.
    """

    def __init__(self, base: int, stride: int, region_size: int) -> None:
        if region_size <= 0 or stride == 0:
            raise ValueError("region_size and stride must be positive")
        self.base = base
        self.stride = stride
        self.region_size = region_size
        self._offset = 0

    def next_address(self, rng: random.Random) -> int:
        addr = self.base + self._offset
        self._offset = (self._offset + self.stride) % self.region_size
        return addr

    def reset(self) -> None:
        self._offset = 0

    def fresh(self) -> "StrideStream":
        return StrideStream(self.base, self.stride, self.region_size)


class RandomStream(AddressStream):
    """Uniformly random accesses within a region.

    Models pointer-chasing / hash-table behaviour; hit rate is set by the
    ratio of region size to cache capacity.
    """

    def __init__(self, base: int, region_size: int, align: int = 8) -> None:
        if region_size <= 0:
            raise ValueError("region_size must be positive")
        self.base = base
        self.region_size = region_size
        self.align = align

    def next_address(self, rng: random.Random) -> int:
        off = rng.randrange(0, self.region_size, self.align)
        return self.base + off

    def fresh(self) -> "RandomStream":
        return self  # stateless: shared by every simulator


class BasicBlock:
    """A straight-line sequence of instructions with one exit.

    ``taken_succ`` / ``fall_succ`` name successor block ids.  A block whose
    last instruction is not a branch falls through to ``fall_succ``.
    ``CALL`` blocks transfer to ``taken_succ`` (the callee entry) and return
    to ``fall_succ``; ``RET`` blocks return to the caller's pending
    fall-through block.
    """

    __slots__ = ("block_id", "instructions", "taken_succ", "fall_succ")

    def __init__(
        self,
        block_id: int,
        instructions: List[Instruction],
        taken_succ: Optional[int] = None,
        fall_succ: Optional[int] = None,
    ) -> None:
        if not instructions:
            raise ValueError("a basic block needs at least one instruction")
        self.block_id = block_id
        self.instructions = instructions
        self.taken_succ = taken_succ
        self.fall_succ = fall_succ

    @property
    def terminator(self) -> Instruction:
        """The last instruction of the block."""
        return self.instructions[-1]

    @property
    def size(self) -> int:
        """Number of instructions in the block."""
        return len(self.instructions)

    def __repr__(self) -> str:
        return (
            f"<BasicBlock {self.block_id} size={self.size} "
            f"T->{self.taken_succ} F->{self.fall_succ}>"
        )


class Program:
    """A complete synthetic program.

    Parameters
    ----------
    name:
        Benchmark name this program models.
    blocks:
        All basic blocks; ``blocks[i].block_id == i``.
    entry_block:
        Id of the block where execution starts.
    branch_behaviors:
        Map from branch pc to its :class:`BranchBehavior`.
    address_streams:
        Address stream per ``mem_stream_id`` referenced by memory
        instructions.
    seed:
        Seed for the stochastic parts of functional execution.
    """

    def __init__(
        self,
        name: str,
        blocks: List[BasicBlock],
        entry_block: int,
        branch_behaviors: Dict[int, BranchBehavior],
        address_streams: List[AddressStream],
        seed: int = 0,
    ) -> None:
        for i, block in enumerate(blocks):
            if block.block_id != i:
                raise ValueError("blocks must be indexed by block_id")
        self.name = name
        self.blocks = blocks
        self.entry_block = entry_block
        self.branch_behaviors = branch_behaviors
        self.address_streams = address_streams
        self.seed = seed
        self._validate()

    def _validate(self) -> None:
        n = len(self.blocks)
        for block in self.blocks:
            term = block.terminator
            kind = term.branch_kind
            if kind in (BranchKind.CONDITIONAL,):
                if block.taken_succ is None or block.fall_succ is None:
                    raise ValueError(
                        f"block {block.block_id}: conditional branch needs "
                        "both successors"
                    )
            if kind == BranchKind.CONDITIONAL and term.pc not in self.branch_behaviors:
                raise ValueError(
                    f"block {block.block_id}: conditional branch at "
                    f"{term.pc:#x} has no behaviour model"
                )
            for succ in (block.taken_succ, block.fall_succ):
                if succ is not None and not 0 <= succ < n:
                    raise ValueError(
                        f"block {block.block_id}: successor {succ} out of range"
                    )
            for instr in block.instructions:
                if instr.is_mem and not (
                    0 <= instr.mem_stream_id < len(self.address_streams)
                ):
                    raise ValueError(
                        f"pc {instr.pc:#x}: mem_stream_id out of range"
                    )

    @property
    def static_size(self) -> int:
        """Total number of static instructions."""
        return sum(block.size for block in self.blocks)

    def instruction_at(self, pc: int) -> Optional[Instruction]:
        """Linear lookup of a static instruction by pc (tests only)."""
        for block in self.blocks:
            for instr in block.instructions:
                if instr.pc == pc:
                    return instr
        return None

    def __repr__(self) -> str:
        return (
            f"<Program {self.name!r} blocks={len(self.blocks)} "
            f"static={self.static_size}>"
        )
