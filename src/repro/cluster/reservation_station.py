"""Eight-entry reservation stations with out-of-order selection.

The paper partitions each cluster's window into five small stations (one
memory, one branch, one complex-arithmetic, two simple) to keep wake-up
and select logic cheap while retaining a large aggregate window.  Each
station has two write ports, bounding insertions per cycle.  Entries are
kept in program order (instructions issue in order), which is the order
the cluster's select scans them.
"""

from __future__ import annotations

from typing import List

from repro.isa import DynInst


class ReservationStation:
    """One reservation station: a bounded, program-ordered buffer.

    ``rank`` is the station's position in its cluster's select scan
    (memory, branch, complex, simple0, simple1).
    """

    __slots__ = ("name", "capacity", "write_ports", "rank", "entries",
                 "_writes_cycle", "_writes_used")

    def __init__(self, name: str, capacity: int = 8, write_ports: int = 2,
                 rank: int = 0) -> None:
        self.name = name
        self.capacity = capacity
        self.write_ports = write_ports
        self.rank = rank
        self.entries: List[DynInst] = []
        self._writes_cycle = -1
        self._writes_used = 0

    def __len__(self) -> int:
        return len(self.entries)

    def can_insert(self, now: int) -> bool:
        """True if an entry and a write port are free in cycle ``now``."""
        if len(self.entries) >= self.capacity:
            return False
        if now == self._writes_cycle and self._writes_used >= self.write_ports:
            return False
        return True

    def try_insert(self, inst: DynInst, now: int) -> bool:
        """Buffer ``inst`` if an entry and a write port are free in cycle
        ``now``; False (and no change) otherwise."""
        entries = self.entries
        if len(entries) >= self.capacity:
            return False
        if now != self._writes_cycle:
            self._writes_cycle = now
            self._writes_used = 1
        elif self._writes_used >= self.write_ports:
            return False
        else:
            self._writes_used += 1
        entries.append(inst)
        inst.station = self
        return True

    def insert(self, inst: DynInst, now: int) -> None:
        """Buffer ``inst`` (caller has checked :meth:`can_insert`)."""
        if not self.try_insert(inst, now):
            raise RuntimeError(f"{self.name}: insert without free entry/port")

    def remove(self, inst: DynInst) -> None:
        """Remove a dispatched instruction."""
        self.entries.remove(inst)

    def clear(self) -> None:
        """Drop all entries (pipeline reset)."""
        self.entries.clear()
        self._writes_cycle = -1
        self._writes_used = 0
