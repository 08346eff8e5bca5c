"""Special-purpose functional units (paper Figure 3).

Each cluster owns eight units: two simple-integer ALUs, one integer memory
unit, one branch unit, one complex-integer unit, one basic FP unit, one
complex FP unit and one FP memory unit.  Units are pipelined according to
their issue latency (a divider with issue latency 19 accepts a new
instruction every 19 cycles).
"""

from __future__ import annotations

from typing import List

from repro.isa import DynInst, OpClass
from repro.isa.opcodes import EXEC_LATENCY, ISSUE_LATENCY


class FunctionalUnit:
    """One execution unit accepting a single :class:`OpClass`."""

    __slots__ = ("kind", "name", "busy_until", "dispatched")

    def __init__(self, kind: OpClass, name: str) -> None:
        self.kind = kind
        self.name = name
        self.busy_until = -1
        self.dispatched = 0

    def free(self, now: int) -> bool:
        """True if the unit can accept an instruction in cycle ``now``."""
        return now >= self.busy_until

    def dispatch(self, inst: DynInst, now: int) -> int:
        """Occupy the unit; return the execution latency of ``inst``.

        The caller adds any memory-system latency for loads/stores.
        """
        opcode = inst.static.opcode
        self.busy_until = now + ISSUE_LATENCY[opcode]
        self.dispatched += 1
        return EXEC_LATENCY[opcode]

    def __repr__(self) -> str:
        return f"<FU {self.name} busy_until={self.busy_until}>"


def make_cluster_units() -> List[FunctionalUnit]:
    """The eight per-cluster units of the paper's cluster design."""
    return [
        FunctionalUnit(OpClass.SIMPLE_INT, "alu0"),
        FunctionalUnit(OpClass.SIMPLE_INT, "alu1"),
        FunctionalUnit(OpClass.INT_MEM, "mem"),
        FunctionalUnit(OpClass.BRANCH, "br"),
        FunctionalUnit(OpClass.COMPLEX_INT, "cpx"),
        FunctionalUnit(OpClass.SIMPLE_FP, "fp"),
        FunctionalUnit(OpClass.COMPLEX_FP, "cpxfp"),
        FunctionalUnit(OpClass.FP_MEM, "fpmem"),
    ]

