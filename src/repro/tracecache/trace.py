"""Trace line representation.

A trace is identified by its starting pc plus the directions of the
conditional branches *internal* to it (the path).  Physical slot order in
the line is the cluster assignment: with a 16-wide, four-cluster machine,
physical slots 0-3 issue to cluster 0, 4-7 to cluster 1 and so on.  The
logical (program) order is recorded separately per slot, exactly as the
paper's fill unit marks it.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, Optional, Tuple

from repro.isa import Instruction
from repro.isa.instruction import LeaderFollower

#: (start_pc, internal conditional-branch directions)
TraceKey = Tuple[int, Tuple[bool, ...]]

_LOGICAL = attrgetter("logical")


class TraceSlot:
    """One instruction slot of a trace line.

    Holds the static instruction, its logical position within the trace,
    and the two dynamic profile fields the paper adds to trace cache
    storage (Section 4.2): the chain cluster suggestion and the
    leader/follower marker.
    """

    __slots__ = ("instr", "logical", "chain_cluster", "leader_follower")

    def __init__(
        self,
        instr: Instruction,
        logical: int,
        chain_cluster: int = -1,
        leader_follower: LeaderFollower = LeaderFollower.NONE,
    ) -> None:
        self.instr = instr
        self.logical = logical
        self.chain_cluster = chain_cluster
        self.leader_follower = leader_follower

    def __repr__(self) -> str:
        return (
            f"<TraceSlot log={self.logical} pc={self.instr.pc:#x} "
            f"lf={self.leader_follower.name} chain={self.chain_cluster}>"
        )


class TraceLine:
    """A constructed trace: physically ordered slots plus metadata.

    ``slots[p]`` is the instruction issued from physical slot ``p``;
    ``None`` marks an empty slot (traces shorter than the line width leave
    trailing cluster slots empty).  ``key`` identifies the path;
    ``num_blocks`` is the number of basic blocks merged into the trace.
    """

    __slots__ = ("key", "slots", "num_blocks", "length")

    def __init__(
        self,
        key: TraceKey,
        slots: List[Optional[TraceSlot]],
        num_blocks: int,
    ) -> None:
        self.key = key
        self.slots = slots
        self.num_blocks = num_blocks
        self.length = len(slots) - slots.count(None)

    @property
    def start_pc(self) -> int:
        """pc of the logically first instruction."""
        return self.key[0]

    def logical_order(self) -> List[TraceSlot]:
        """Slots sorted by logical position (program order)."""
        filled = [s for s in self.slots if s is not None]
        return sorted(filled, key=_LOGICAL)

    def slot_of_logical(self, logical: int) -> Optional[int]:
        """Physical slot index of logical position ``logical``."""
        for p, slot in enumerate(self.slots):
            if slot is not None and slot.logical == logical:
                return p
        return None

    def __repr__(self) -> str:
        return (
            f"<TraceLine pc={self.start_pc:#x} len={self.length} "
            f"blocks={self.num_blocks}>"
        )
