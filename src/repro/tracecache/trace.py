"""Trace line representation.

A trace is identified by its starting pc plus the directions of the
conditional branches *internal* to it (the path).  Physical slot order in
the line is the cluster assignment: with a 16-wide, four-cluster machine,
physical slots 0-3 issue to cluster 0, 4-7 to cluster 1 and so on.  The
logical (program) order is recorded separately per slot, exactly as the
paper's fill unit marks it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.isa import Instruction
from repro.isa.instruction import LeaderFollower

#: (start_pc, internal conditional-branch directions)
TraceKey = Tuple[int, Tuple[bool, ...]]


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
    trailing cluster slots empty).  The filled slots hold logical
    positions ``0 .. length-1``.  ``key`` identifies the path;
    ``num_blocks`` is the number of basic blocks merged into the trace.

    Every fetch walks the line in program order, so that order is
    computed once, here: ``order[k]`` is the slot of logical position
    ``k`` and ``clusters[k]`` the cluster it issues to (physical slot
    ``p`` issues to cluster ``p // slots_per_cluster``; the default is
    the paper's 16-wide, four-cluster machine).
    """

    __slots__ = ("key", "start_pc", "slots", "num_blocks", "length",
                 "order", "clusters")

    def __init__(
        self,
        key: TraceKey,
        slots: List[Optional[TraceSlot]],
        num_blocks: int,
        slots_per_cluster: int = 4,
    ) -> None:
        self.key = key
        #: pc of the logically first instruction.
        self.start_pc = key[0]
        self.slots = slots
        self.num_blocks = num_blocks
        self.length = length = len(slots) - slots.count(None)
        order: List[TraceSlot] = [None] * length
        clusters = [0] * length
        for p, slot in enumerate(slots):
            if slot is not None:
                logical = slot.logical
                order[logical] = slot
                clusters[logical] = p // slots_per_cluster
        self.order = order
        self.clusters = clusters

    def logical_order(self) -> List[TraceSlot]:
        """Slots sorted by logical position (program order)."""
        return self.order

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
