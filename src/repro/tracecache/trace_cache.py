"""The trace cache structure (paper Table 7: 2-way, 1K-entry, 3-cycle).

Lines are indexed by starting pc and matched on the full path key, giving
path associativity within a set.  The cache also exposes the in-place
profile-field update used by the paper's feedback mechanism: when an
executing instruction learns chain information, the trace line it was
fetched from is patched (if still resident), so the next fetch of that
line carries the feedback.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.isa.instruction import LeaderFollower
from repro.tracecache.trace import TraceKey, TraceLine


class TraceCache:
    """Set-associative trace cache with LRU replacement."""

    def __init__(self, entries: int = 1024, assoc: int = 2,
                 access_latency: int = 3) -> None:
        if entries % assoc:
            raise ValueError("entries must be a multiple of assoc")
        self.entries = entries
        self.assoc = assoc
        self.sets = entries // assoc
        self.access_latency = access_latency
        # Per set: TraceLines in LRU order (MRU last); the shared empty
        # tuple until :meth:`insert` gives the set its own list.
        self._sets: List[Sequence[TraceLine]] = [()] * self.sets
        self.lookups = 0
        self.hits = 0
        self.inserts = 0
        self.evictions = 0

    def _set_index(self, start_pc: int) -> int:
        return (start_pc >> 2) % self.sets

    def lookup(self, key: TraceKey) -> Optional[TraceLine]:
        """Return the line matching ``key`` (path match), or ``None``."""
        self.lookups += 1
        ways = self._sets[self._set_index(key[0])]
        for i, line in enumerate(ways):
            if line.key == key:
                ways.append(ways.pop(i))
                self.hits += 1
                return line
        return None

    def lines_starting_at(self, start_pc: int) -> List[TraceLine]:
        """Candidate lines whose trace starts at ``start_pc``, MRU first.

        Path associativity: the fetch engine selects among these using the
        branch predictor's predicted directions.  Does not touch LRU or
        statistics; call :meth:`record_fetch` once a line is selected.
        """
        ways = self._sets[self._set_index(start_pc)]
        return [line for line in reversed(ways) if line.start_pc == start_pc]

    def record_fetch(self, line: Optional[TraceLine]) -> None:
        """Account one fetch lookup; ``line`` is the selected hit or None."""
        self.lookups += 1
        if line is None:
            return
        self.hits += 1
        ways = self._sets[self._set_index(line.start_pc)]
        if line in ways:
            ways.remove(line)
            ways.append(line)

    def probe(self, key: TraceKey) -> Optional[TraceLine]:
        """Like :meth:`lookup` but without touching LRU or statistics."""
        ways = self._sets[self._set_index(key[0])]
        for line in ways:
            if line.key == key:
                return line
        return None

    def insert(self, line: TraceLine) -> None:
        """Install ``line``, replacing any line with the same key."""
        self.inserts += 1
        set_index = self._set_index(line.start_pc)
        ways = self._sets[set_index]
        for i, existing in enumerate(ways):
            if existing.key == line.key:
                ways.pop(i)
                break
        else:
            if not ways:
                ways = self._sets[set_index] = []
            elif len(ways) >= self.assoc:
                ways.pop(0)
                self.evictions += 1
        ways.append(line)

    def update_profile(
        self,
        key: TraceKey,
        logical: int,
        chain_cluster: Optional[int] = None,
        leader_follower: Optional[LeaderFollower] = None,
    ) -> bool:
        """Patch the profile fields of one instruction of a resident line.

        ``logical`` selects the instruction by its logical position within
        the trace.  Returns ``True`` if the line was resident and patched.
        This is the feedback path of Section 4.2: consumers discovering
        inter-trace producers write chain state back into the trace cache.
        """
        line = self.probe(key)
        if line is None:
            return False
        if not 0 <= logical < line.length:
            return False
        slot = line.order[logical]
        if chain_cluster is not None:
            slot.chain_cluster = chain_cluster
        if leader_follower is not None:
            slot.leader_follower = leader_follower
        return True

    @property
    def hit_rate(self) -> float:
        """Lookup hit fraction (1.0 when never accessed)."""
        return self.hits / self.lookups if self.lookups else 1.0

    def resident_lines(self) -> int:
        """Number of lines currently stored."""
        return sum(len(ways) for ways in self._sets)

    def reset_stats(self) -> None:
        """Zero statistics, keeping contents (used after warmup)."""
        self.lookups = 0
        self.hits = 0
        self.inserts = 0
        self.evictions = 0
