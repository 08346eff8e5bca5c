"""Data TLB timing model (paper: 128-entry, 4-way, 1-cycle hit, 30-cycle miss)."""

from __future__ import annotations

from typing import List, Sequence


class TLB:
    """Set-associative translation lookaside buffer.

    Only timing is modelled: a hit costs ``hit_latency`` (overlapped with
    the cache access in the pipeline), a miss adds ``miss_latency`` cycles
    of page walk before the cache access can start.
    """

    def __init__(
        self,
        entries: int = 128,
        assoc: int = 4,
        page_size: int = 4096,
        hit_latency: int = 1,
        miss_latency: int = 30,
    ) -> None:
        if entries % assoc:
            raise ValueError("entries must be a multiple of assoc")
        self.entries = entries
        self.assoc = assoc
        self.page_size = page_size
        self.sets = entries // assoc
        self.hit_latency = hit_latency
        self.miss_latency = miss_latency
        # Per set: pages in LRU order (MRU last); the shared empty tuple
        # until its first miss.
        self._sets: List[Sequence[int]] = [()] * self.sets
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> int:
        """Translate ``addr``; return the translation latency in cycles."""
        page = addr // self.page_size
        set_index = page % self.sets
        ways = self._sets[set_index]
        if page in ways:
            ways.remove(page)
            ways.append(page)
            self.hits += 1
            return self.hit_latency
        self.misses += 1
        if not ways:
            ways = self._sets[set_index] = []
        elif len(ways) >= self.assoc:
            ways.pop(0)
        ways.append(page)
        return self.hit_latency + self.miss_latency

    @property
    def hit_rate(self) -> float:
        """Hit fraction (1.0 when never accessed)."""
        total = self.hits + self.misses
        return self.hits / total if total else 1.0

    def reset_stats(self) -> None:
        """Zero the statistics counters, keeping TLB contents."""
        self.hits = 0
        self.misses = 0
