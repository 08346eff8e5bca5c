"""Per-layer self time from class-level wrappers.

The traced runs replace public per-cycle methods *on their classes* with
timing wrappers for the duration of a ``with`` block.  Patching the
class, not the instance, is required: ``CycleAccounting`` uses
``__slots__``, so its instances cannot take a rebound attribute, and the
pipeline looks its callables up on every cycle, so a class attribute is
picked up everywhere.

A layer's self time is its wrapped call's duration minus the time spent
in wrapped calls nested inside it.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Sequence, Tuple

from harness import clock

_MISSING = object()

#: (metric prefix, class, method name).
Hook = Tuple[str, type, str]


class LayerTrace:
    """Call counts and self time of each hooked method.

    With ``keep_durations`` every call's total duration is also kept, for
    percentiles; leave it off for per-cycle hooks called millions of
    times.
    """

    def __init__(self, hooks: Sequence[Hook],
                 keep_durations: bool = False) -> None:
        self.hooks = list(hooks)
        self.calls: Dict[str, int] = {name: 0 for name, _, _ in hooks}
        self.self_seconds: Dict[str, float] = {
            name: 0.0 for name, _, _ in hooks}
        self.durations: Dict[str, List[float]] = {
            name: [] for name, _, _ in hooks}
        self._keep = keep_durations
        # Child time accumulated by each open wrapped call; the bottom
        # entry collects time of outermost calls.
        self._stack: List[float] = [0.0]
        self._saved: List[Tuple[type, str, object]] = []
        #: Wall time spent inside the ``with`` block.
        self.elapsed = 0.0
        self._entered = 0.0

    def __enter__(self) -> "LayerTrace":
        for name, cls, attr in self.hooks:
            self._saved.append((cls, attr, cls.__dict__.get(attr, _MISSING)))
            setattr(cls, attr, self._wrap(name, getattr(cls, attr)))
        self._entered = clock()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed += clock() - self._entered
        while self._saved:
            cls, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)

    def _wrap(self, name: str, method):
        stack = self._stack
        calls = self.calls
        self_seconds = self.self_seconds
        durations = self.durations[name] if self._keep else None

        @functools.wraps(method)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return method(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_seconds[name] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
                if durations is not None:
                    durations.append(elapsed)

        return traced
