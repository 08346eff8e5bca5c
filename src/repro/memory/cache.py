"""Set-associative, non-blocking cache timing model.

Latency-oriented: :meth:`Cache.access` returns the number of cycles until
the data is available, and updates tag/LRU/MSHR state.  Bandwidth between
levels is not modelled (the paper models none either); miss status holding
registers (MSHRs) bound the number of outstanding misses, and accesses to a
line that is already being filled merge with the outstanding miss.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


class MainMemory:
    """Fixed-latency backing store (paper: infinite capacity, +65 cycles)."""

    def __init__(self, latency: int = 65) -> None:
        self.latency = latency
        self.accesses = 0

    def access(self, addr: int, now: int, is_write: bool = False) -> int:
        """Return the access latency in cycles."""
        self.accesses += 1
        return self.latency


class Cache:
    """One level of set-associative cache.

    Parameters
    ----------
    name:
        Label used in statistics output.
    size_bytes / assoc / line_size:
        Geometry; ``size_bytes`` must be ``sets * assoc * line_size``.
    hit_latency:
        Cycles from access to data on a hit.
    next_level:
        Object with an ``access(addr, now, is_write)`` method supplying the
        additional miss latency (another :class:`Cache` or
        :class:`MainMemory`).
    mshrs:
        Maximum outstanding misses; further misses queue behind the oldest
        outstanding fill (approximated by serialising on its ready time).
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        line_size: int,
        hit_latency: int,
        next_level,
        mshrs: int = 16,
    ) -> None:
        if size_bytes % (assoc * line_size):
            raise ValueError(f"{name}: size not divisible by assoc*line_size")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_size = line_size
        self.sets = size_bytes // (assoc * line_size)
        self.hit_latency = hit_latency
        self.next_level = next_level
        self.mshr_limit = mshrs
        # Per set: line tags in LRU order (MRU last).  Every set starts as
        # the one shared empty tuple; :meth:`_install` gives a set its own
        # list on its first fill.
        self._sets: List[Sequence[int]] = [()] * self.sets
        # Outstanding fills: line address -> cycle the fill completes.
        self._outstanding: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        self.mshr_merges = 0
        self.mshr_stalls = 0

    def _set_and_tag(self, addr: int) -> tuple:
        line = addr // self.line_size
        return line % self.sets, line

    def present(self, addr: int) -> bool:
        """True if the line holding ``addr`` is resident (no state change)."""
        set_index, tag = self._set_and_tag(addr)
        return tag in self._sets[set_index]

    def access(self, addr: int, now: int, is_write: bool = False) -> int:
        """Access ``addr`` at cycle ``now``; return total latency in cycles.

        Expired outstanding fills are retired lazily on access.
        """
        self._drain_outstanding(now)
        set_index, tag = self._set_and_tag(addr)
        ways = self._sets[set_index]
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            self.hits += 1
            return self.hit_latency

        self.misses += 1
        if tag in self._outstanding:
            # Merge with the in-flight fill of the same line.
            self.mshr_merges += 1
            return (self._outstanding[tag] - now) + self.hit_latency

        start = now
        if len(self._outstanding) >= self.mshr_limit:
            # All MSHRs busy: the miss waits for the earliest fill to free
            # one, then proceeds.
            self.mshr_stalls += 1
            start = min(self._outstanding.values())
        miss_latency = self.next_level.access(addr, start, is_write)
        ready = start + self.hit_latency + miss_latency
        self._outstanding[tag] = ready
        return ready - now

    def _drain_outstanding(self, now: int) -> None:
        """Install lines whose fill completed at or before ``now``."""
        if not self._outstanding:
            return
        done = [tag for tag, ready in self._outstanding.items() if ready <= now]
        for tag in done:
            del self._outstanding[tag]
            self._install(tag)

    def _install(self, tag: int) -> None:
        set_index = tag % self.sets
        ways = self._sets[set_index]
        if tag in ways:
            return
        if not ways:
            ways = self._sets[set_index] = []
        elif len(ways) >= self.assoc:
            ways.pop(0)  # evict LRU
        ways.append(tag)

    @property
    def accesses(self) -> int:
        """Total accesses so far."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit fraction (1.0 when never accessed)."""
        total = self.accesses
        return self.hits / total if total else 1.0

    def reset_stats(self) -> None:
        """Zero the statistics counters (state is kept — used after warmup)."""
        self.hits = 0
        self.misses = 0
        self.mshr_merges = 0
        self.mshr_stalls = 0

    def __repr__(self) -> str:
        return (
            f"<Cache {self.name} {self.size_bytes >> 10}KB {self.assoc}-way "
            f"hit={self.hit_latency}cyc>"
        )
