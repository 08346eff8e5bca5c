"""Branch direction prediction, branch target buffer, return address stack.

The baseline machine (paper Table 7) uses a 16k-entry gshare/bimodal hybrid
and a 512-entry 4-way BTB.  The hybrid follows McFarling's design: both
components predict, and a selector table of 2-bit counters (indexed like
the bimodal table) picks the component to trust; the selector trains toward
whichever component was right.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def _saturate_up(counter: int, maximum: int = 3) -> int:
    return counter + 1 if counter < maximum else counter


def _saturate_down(counter: int, minimum: int = 0) -> int:
    return counter - 1 if counter > minimum else counter


class BimodalPredictor:
    """Per-pc table of 2-bit saturating counters."""

    def __init__(self, entries: int = 16384) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.entries = entries
        self._mask = entries - 1
        self._table = bytearray(b"\x02") * entries  # weakly taken

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self._mask

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        """Train the counter with the resolved direction."""
        i = self._index(pc)
        counter = self._table[i]
        self._table[i] = _saturate_up(counter) if taken else _saturate_down(counter)


class GsharePredictor:
    """Global-history predictor: pc XOR history indexes a counter table."""

    def __init__(self, entries: int = 16384, history_bits: Optional[int] = None) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.entries = entries
        self._mask = entries - 1
        self.history_bits = (
            history_bits if history_bits is not None else entries.bit_length() - 1
        )
        self._history_mask = (1 << self.history_bits) - 1
        self._table = bytearray(b"\x02") * entries
        self.history = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self.history) & self._mask

    def predict(self, pc: int) -> bool:
        """Predicted direction given the current global history."""
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        """Train the indexed counter (history must not yet include this
        branch; call :meth:`push_history` afterwards)."""
        i = self._index(pc)
        counter = self._table[i]
        self._table[i] = _saturate_up(counter) if taken else _saturate_down(counter)

    def push_history(self, taken: bool) -> None:
        """Shift the resolved direction into the global history."""
        self.history = ((self.history << 1) | int(taken)) & self._history_mask


class HybridPredictor:
    """McFarling-style gshare/bimodal hybrid with a 2-bit selector table."""

    def __init__(self, entries: int = 16384) -> None:
        self.bimodal = BimodalPredictor(entries)
        self.gshare = GsharePredictor(entries)
        self._selector = bytearray(b"\x02") * entries  # >=2 prefers gshare
        self._mask = entries - 1
        self.lookups = 0
        self.mispredictions = 0

    def predict(self, pc: int) -> bool:
        """Predicted direction for the conditional branch at ``pc``."""
        if self._selector[(pc >> 2) & self._mask] >= 2:
            return self.gshare.predict(pc)
        return self.bimodal.predict(pc)

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict, train all components with ``taken``, return prediction.

        This is the trace-driven usage: the fetch engine knows the actual
        outcome, so prediction and training happen together and the global
        history always holds resolved outcomes.
        """
        bim = self.bimodal.predict(pc)
        gsh = self.gshare.predict(pc)
        sel_index = (pc >> 2) & self._mask
        use_gshare = self._selector[sel_index] >= 2
        prediction = gsh if use_gshare else bim
        # Train the selector toward the component that was right.
        if gsh != bim:
            if gsh == taken:
                self._selector[sel_index] = _saturate_up(self._selector[sel_index])
            else:
                self._selector[sel_index] = _saturate_down(self._selector[sel_index])
        self.bimodal.update(pc, taken)
        self.gshare.update(pc, taken)
        self.gshare.push_history(taken)
        self.lookups += 1
        if prediction != taken:
            self.mispredictions += 1
        return prediction

    @property
    def accuracy(self) -> float:
        """Fraction of lookups predicted correctly so far."""
        if self.lookups == 0:
            return 1.0
        return 1.0 - self.mispredictions / self.lookups


class BranchTargetBuffer:
    """Set-associative BTB storing branch targets (512-entry 4-way)."""

    def __init__(self, entries: int = 512, assoc: int = 4) -> None:
        if entries % assoc:
            raise ValueError("entries must be a multiple of assoc")
        self.entries = entries
        self.assoc = assoc
        self.sets = entries // assoc
        # Per set: (tag, target) pairs in LRU order (MRU last); the shared
        # empty tuple until :meth:`update` gives the set its own list.
        self._sets: List[Sequence[tuple]] = [()] * self.sets
        self.lookups = 0
        self.misses = 0

    def _set_and_tag(self, pc: int) -> tuple:
        line = pc >> 2
        return line % self.sets, line // self.sets

    def lookup(self, pc: int) -> Optional[int]:
        """Return the stored target for ``pc`` or ``None`` on a BTB miss."""
        self.lookups += 1
        set_index, tag = self._set_and_tag(pc)
        ways = self._sets[set_index]
        for i, (way_tag, target) in enumerate(ways):
            if way_tag == tag:
                ways.append(ways.pop(i))  # move to MRU
                return target
        self.misses += 1
        return None

    def update(self, pc: int, target: int) -> None:
        """Install/refresh the target of the branch at ``pc``."""
        set_index, tag = self._set_and_tag(pc)
        ways = self._sets[set_index]
        for i, (way_tag, _) in enumerate(ways):
            if way_tag == tag:
                ways.pop(i)
                break
        if not ways:
            ways = self._sets[set_index] = []
        elif len(ways) >= self.assoc:
            ways.pop(0)  # evict LRU
        ways.append((tag, target))


class ReturnAddressStack:
    """Bounded return-address stack for CALL/RET prediction."""

    def __init__(self, depth: int = 32) -> None:
        self.depth = depth
        self._stack = []

    def push(self, return_pc: int) -> None:
        """Record the return address of a call."""
        if len(self._stack) >= self.depth:
            del self._stack[0]
        self._stack.append(return_pc)

    def pop(self) -> Optional[int]:
        """Predicted return target, or ``None`` when the stack is empty."""
        if self._stack:
            return self._stack.pop()
        return None

    def __len__(self) -> int:
        return len(self._stack)
