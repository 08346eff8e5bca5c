"""Store buffer and load queue (paper Table 7).

* 32-entry store buffer **with load forwarding**: a load whose address
  matches a buffered older store receives the data directly, skipping the
  cache.
* 32-entry load queue with **no speculative disambiguation**: a load may
  not execute past an older store whose address is still unknown; the
  pipeline enforces this by executing memory operations through the shared
  memory unit in order with respect to unresolved older stores.

Entries are tracked by sequence number so age comparisons are exact.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Tuple

#: Larger than any sequence number: "no entry".
_NEVER = 1 << 62


class StoreBuffer:
    """Bounded buffer of retired-but-unwritten (or executed) stores."""

    def __init__(self, entries: int = 32, word_size: int = 8) -> None:
        self.capacity = entries
        self.word_size = word_size
        #: (seq, word-aligned address) in insertion (dispatch) order,
        #: which is not program order: stores dispatch out of order.
        self._entries: List[Tuple[int, int]] = []
        #: Smallest buffered sequence number (``_NEVER`` when empty).
        self._oldest = _NEVER
        self.forwards = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        """True when no entry is free."""
        return len(self._entries) >= self.capacity

    def insert(self, seq: int, addr: int) -> bool:
        """Buffer a store; returns ``False`` when the buffer is full."""
        if self.full:
            return False
        self._entries.append((seq, addr // self.word_size))
        if seq < self._oldest:
            self._oldest = seq
        return True

    def forward_for_load(self, seq: int, addr: int) -> bool:
        """True if an older buffered store to the same word can forward."""
        word = addr // self.word_size
        for store_seq, store_word in reversed(self._entries):
            if store_seq < seq and store_word == word:
                self.forwards += 1
                return True
        return False

    def release_up_to(self, seq: int) -> None:
        """Drain stores with sequence number <= ``seq`` (written to cache).

        Most retiring cycles drain nothing, and then cost one comparison.
        """
        if seq < self._oldest:
            return
        entries = [e for e in self._entries if e[0] > seq]
        self._entries = entries
        self._oldest = min(entries)[0] if entries else _NEVER

    def clear(self) -> None:
        """Empty the buffer (used on reset)."""
        self._entries.clear()
        self._oldest = _NEVER


class LoadQueue:
    """Bounded queue tracking in-flight loads (occupancy only).

    The paper's load queue performs no speculative disambiguation, so its
    architectural role here is purely as a structural resource: when it is
    full, further loads cannot issue to the memory unit.  Loads enter at
    issue, in program order, so the queue is sorted by sequence number.
    """

    def __init__(self, entries: int = 32) -> None:
        self.capacity = entries
        self._seqs: List[int] = []

    def __len__(self) -> int:
        return len(self._seqs)

    @property
    def full(self) -> bool:
        """True when no entry is free."""
        return len(self._seqs) >= self.capacity

    def insert(self, seq: int) -> bool:
        """Track a load (younger than every tracked one); returns
        ``False`` when the queue is full."""
        if self.full:
            return False
        self._seqs.append(seq)
        return True

    def release_up_to(self, seq: int) -> None:
        """Remove loads with sequence number <= ``seq`` (retired): the
        queue's oldest prefix."""
        seqs = self._seqs
        if seqs and seqs[0] <= seq:
            del seqs[:bisect_right(seqs, seq)]

    def clear(self) -> None:
        """Empty the queue (used on reset)."""
        self._seqs.clear()
