"""Static and dynamic instruction representations.

``Instruction`` is the *static* form that lives in a program's basic
blocks; it is immutable once built.  ``DynInst`` is one dynamic execution
of a static instruction flowing through the pipeline; it carries renaming,
timing, cluster-assignment and trace-cache profile state, and is the unit
on which all of the paper's statistics are collected.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

from repro.isa.opcodes import (
    BRANCH_OPCODES,
    MEMORY_OPCODES,
    Opcode,
    OpClass,
    is_load,
    is_store,
    op_class,
)


class BranchKind(enum.IntEnum):
    """Control-flow category of a branch instruction."""

    NOT_BRANCH = 0
    CONDITIONAL = 1
    UNCONDITIONAL = 2
    CALL = 3
    RETURN = 4


_BRANCH_KIND = {
    Opcode.BEQ: BranchKind.CONDITIONAL,
    Opcode.BNE: BranchKind.CONDITIONAL,
    Opcode.JMP: BranchKind.UNCONDITIONAL,
    Opcode.CALL: BranchKind.CALL,
    Opcode.RET: BranchKind.RETURN,
}


class LeaderFollower(enum.IntEnum):
    """Value of the two-bit leader/follower trace cache profile field."""

    NONE = 0
    LEADER = 1
    FOLLOWER = 2


class Instruction:
    """A static instruction.

    Parameters
    ----------
    pc:
        Static address.  Unique within a program; used for BTB/predictor
        indexing and producer-repetition statistics.
    opcode:
        One of :class:`~repro.isa.opcodes.Opcode`.
    dest:
        Destination register id, or ``None`` for instructions that produce
        no register value (stores, branches).
    srcs:
        Source register ids, up to two (RS1, RS2).
    mem_stream_id:
        For memory instructions, the index of the address stream (in the
        owning program) that generates this instruction's addresses.
    """

    __slots__ = (
        "pc",
        "opcode",
        "dest",
        "srcs",
        "op_class",
        "branch_kind",
        "is_mem",
        "is_load",
        "is_store",
        "mem_stream_id",
        "block_id",
    )

    def __init__(
        self,
        pc: int,
        opcode: Opcode,
        dest: Optional[int] = None,
        srcs: Tuple[int, ...] = (),
        mem_stream_id: Optional[int] = None,
        block_id: int = -1,
    ) -> None:
        if len(srcs) > 2:
            raise ValueError("at most two source registers (RS1, RS2)")
        self.pc = pc
        self.opcode = opcode
        self.dest = dest
        self.srcs = tuple(srcs)
        self.op_class: OpClass = op_class(opcode)
        self.branch_kind = _BRANCH_KIND.get(opcode, BranchKind.NOT_BRANCH)
        self.is_mem = opcode in MEMORY_OPCODES
        self.is_load = is_load(opcode)
        self.is_store = is_store(opcode)
        self.mem_stream_id = mem_stream_id
        self.block_id = block_id
        if self.is_mem and mem_stream_id is None:
            raise ValueError("memory instructions need a mem_stream_id")

    @property
    def is_branch(self) -> bool:
        """True if this instruction may redirect control flow."""
        return self.opcode in BRANCH_OPCODES

    def __repr__(self) -> str:
        parts = [f"pc={self.pc:#x}", self.opcode.name]
        if self.dest is not None:
            parts.append(f"d={self.dest}")
        if self.srcs:
            parts.append(f"s={list(self.srcs)}")
        return f"<Instruction {' '.join(parts)}>"


class DynInst:
    """One dynamic execution of a static instruction.

    Created by the functional simulator (with architectural outcome state:
    branch direction/target, memory address) and annotated by the timing
    simulator as it flows through the pipeline.
    """

    __slots__ = (
        # Architectural identity and outcome.
        "static",
        "seq",
        "taken",
        "target",
        "fall_target",
        "mem_addr",
        # Fetch provenance.
        "from_trace_cache",
        "trace_instance",
        "trace_key",
        "slot_in_packet",
        "slot_cluster",
        # Trace cache profile fields (carried from the fetched line).
        "chain_cluster",
        "leader_follower",
        # Cluster assignment.
        "cluster",
        # Renaming: producer DynInst per source operand (None = from RF).
        "src_producers",
        # Issue-time snapshot: per-source "forwarded vs register file".
        "src_forwarded",
        # Cached wake-up time within the assigned cluster (None = unknown).
        "ready_time",
        # Producer whose completion the wake-up computation waits for.
        "wait_producer",
        # Consumers waiting for this instruction's completion (or None).
        "waiters",
        # Reservation station buffering the instruction until dispatch.
        "station",
        # Timing (cycle numbers; -1 = not yet reached).
        "fetch_cycle",
        "issue_cycle",
        "dispatch_cycle",
        "complete_cycle",
        "retire_cycle",
        # Derived forwarding statistics, filled at dispatch.
        "critical_src",
        "critical_forwarded",
        "critical_inter_trace",
        "critical_distance",
        "critical_producer",
        "mispredicted",
    )

    def __init__(self, static: Instruction, seq: int) -> None:
        self.static = static
        self.seq = seq
        self.taken = False
        self.target: Optional[int] = None
        self.fall_target: Optional[int] = None
        self.mem_addr: Optional[int] = None
        self.from_trace_cache = False
        self.trace_instance = -1
        self.trace_key = None
        self.slot_in_packet = -1
        self.slot_cluster = -1
        self.chain_cluster = -1
        self.leader_follower = LeaderFollower.NONE
        self.cluster = -1
        self.src_producers: Tuple[Optional["DynInst"], ...] = ()
        self.src_forwarded: Tuple[bool, ...] = ()
        self.ready_time: Optional[int] = None
        self.wait_producer: Optional["DynInst"] = None
        self.waiters: Optional[list] = None
        self.station = None
        self.fetch_cycle = -1
        self.issue_cycle = -1
        self.dispatch_cycle = -1
        self.complete_cycle = -1
        self.retire_cycle = -1
        self.critical_src = -1
        self.critical_forwarded = False
        self.critical_inter_trace = False
        self.critical_distance = 0
        self.critical_producer: Optional["DynInst"] = None
        self.mispredicted = False

    @property
    def pc(self) -> int:
        """Static address of the instruction."""
        return self.static.pc

    @property
    def opcode(self) -> Opcode:
        """Opcode of the instruction."""
        return self.static.opcode

    def __repr__(self) -> str:
        return (
            f"<DynInst #{self.seq} pc={self.static.pc:#x} "
            f"{self.static.opcode.name} cl={self.cluster}>"
        )
