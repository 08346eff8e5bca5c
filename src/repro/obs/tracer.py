"""Cycle-level pipeline tracing in Chrome trace-event format.

Two pieces live here:

* :class:`PipelineObserver` — the hook protocol the timing model calls
  on its hot paths.  :class:`~repro.core.pipeline.Pipeline` and
  :class:`~repro.tracecache.fill_unit.FillUnit` share one ``observers``
  tuple, empty by default; every attached observer sees every event,
  and with none attached the only cost on the hot path is one truth
  test per event, which keeps untraced runs byte-identical and
  effectively free.
* :class:`CycleTracer` — an observer that turns fetch packets,
  instruction lifetimes, and fill-unit installs into Chrome
  trace-event JSON (the ``chrome://tracing`` / `Perfetto
  <https://ui.perfetto.dev>`_ format).  Each cluster gets its own lane
  (thread), plus one lane for fetch and one for the fill unit;
  instruction execution appears as duration events so dependence
  stalls and cross-cluster bubbles are visible at cycle granularity.

Timestamps are simulator cycles reported in the format's microsecond
field: one cycle renders as one microsecond, which keeps Perfetto's
zoom/measure tooling meaningful (a measured "µs" span *is* a cycle
count).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, List, Optional

#: Lane (thread) ids for the non-cluster lanes.  Cluster ``i`` uses lane
#: ``i`` directly, so these start far above any plausible cluster count.
FETCH_LANE = 1000
FILL_LANE = 1001


class PipelineObserver:
    """No-op base for pipeline observers; subclass and override.

    The pipeline invokes (``now`` is always the current cycle):

    * :meth:`on_fetch` — once per non-empty fetch packet;
    * :meth:`on_dispatch` — when an instruction leaves its reservation
      station for a functional unit;
    * :meth:`on_retire` — when an instruction leaves the ROB;
    * :meth:`on_fill_install` — when the fill unit installs a finished
      trace line into the trace cache (``ready`` is the install cycle).
    """

    _pipeline = None

    def on_fetch(self, packet, now: int) -> None:  # pragma: no cover
        pass

    def on_dispatch(self, inst, now: int) -> None:  # pragma: no cover
        pass

    def on_retire(self, inst, now: int) -> None:  # pragma: no cover
        pass

    def on_fill_install(self, line, ready: int, now: int) -> None:  # pragma: no cover
        pass

    # ------------------------------------------------------------------
    # Attachment lifecycle.
    # ------------------------------------------------------------------
    def attach(self, pipeline) -> "PipelineObserver":
        """Append this observer to ``pipeline.observers`` (mirrored on
        its fill unit); observers attached together all see every event.

        Returns ``self`` so ``with tracer.attach(pipeline):`` reads
        naturally; :meth:`detach` runs on scope exit either way.
        """
        if self._pipeline is not None:
            raise RuntimeError("observer is already attached")
        self._configure(pipeline)
        self._pipeline = pipeline
        _set_observers(pipeline, pipeline.observers + (self,))
        return self

    def _configure(self, pipeline) -> None:
        """Override to read machine parameters at attach time."""

    def detach(self) -> None:
        """Remove this observer; with none left the pipeline reverts to
        zero overhead."""
        pipeline = self._pipeline
        if pipeline is None:
            return
        _set_observers(pipeline, tuple(
            observer for observer in pipeline.observers
            if observer is not self))
        self._pipeline = None

    def __enter__(self) -> "PipelineObserver":
        return self

    def __exit__(self, *exc_info) -> None:
        self.detach()


def _set_observers(pipeline, observers: tuple) -> None:
    pipeline.observers = observers
    pipeline.fill_unit.observers = observers


class CycleTracer(PipelineObserver):
    """Records pipeline activity as Chrome trace duration events.

    ``capacity`` bounds memory: the newest ``capacity`` events are kept
    in a ring buffer and older ones are dropped (:attr:`dropped` counts
    them), so tracing an arbitrarily long run cannot exhaust memory.
    """

    def __init__(self, capacity: int = 200_000) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.events: Deque[dict] = deque(maxlen=capacity)
        self.recorded = 0
        self._num_clusters = 0
        self._fill_latency = 1

    # ------------------------------------------------------------------
    def _configure(self, pipeline) -> None:
        self._num_clusters = pipeline.config.num_clusters
        self._fill_latency = max(1, pipeline.config.fill_unit_latency)

    @property
    def dropped(self) -> int:
        """Events evicted by the ring buffer."""
        return self.recorded - len(self.events)

    def _emit(self, event: dict) -> None:
        self.recorded += 1
        self.events.append(event)

    # ------------------------------------------------------------------
    # Observer callbacks.
    # ------------------------------------------------------------------
    def on_fetch(self, packet, now: int) -> None:
        head = packet[0]
        self._emit({
            "name": "tc-fetch" if head.from_trace_cache else "ic-fetch",
            "ph": "X", "pid": 0, "tid": FETCH_LANE,
            "ts": now, "dur": 1,
            "args": {
                "instructions": len(packet),
                "pc": f"{head.static.pc:#x}",
            },
        })

    def on_retire(self, inst, now: int) -> None:
        dispatch = inst.dispatch_cycle
        self._emit({
            "name": inst.static.opcode.name,
            "ph": "X", "pid": 0, "tid": inst.cluster,
            "ts": dispatch,
            "dur": max(1, inst.complete_cycle - dispatch),
            "args": {
                "seq": inst.seq,
                "pc": f"{inst.static.pc:#x}",
                "tc": inst.from_trace_cache,
                "fetch": inst.fetch_cycle,
                "issue": inst.issue_cycle,
                "retire": now,
            },
        })

    def on_fill_install(self, line, ready: int, now: int) -> None:
        self._emit({
            "name": "fill",
            "ph": "X", "pid": 0, "tid": FILL_LANE,
            "ts": max(0, ready - self._fill_latency),
            "dur": self._fill_latency,
            "args": {
                "start_pc": f"{line.key[0]:#x}",
                "instructions": sum(1 for s in line.slots if s is not None),
            },
        })

    # ------------------------------------------------------------------
    # Export.
    # ------------------------------------------------------------------
    def _lane_names(self) -> Dict[int, str]:
        names = {i: f"cluster {i}" for i in range(self._num_clusters)}
        names[FETCH_LANE] = "fetch"
        names[FILL_LANE] = "fill unit"
        return names

    def lane_counts(self) -> Dict[str, int]:
        """Recorded events per lane, keyed by lane name."""
        names = self._lane_names()
        counts: Dict[str, int] = {name: 0 for name in names.values()}
        for event in self.events:
            name = names.get(event["tid"], f"lane {event['tid']}")
            counts[name] = counts.get(name, 0) + 1
        return counts

    def to_chrome_trace(self) -> dict:
        """The complete trace document (``json.dump``-able)."""
        metadata: List[dict] = [{
            "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
            "args": {"name": "repro pipeline"},
        }]
        for tid, name in sorted(self._lane_names().items()):
            metadata.append({
                "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                "args": {"name": name},
            })
        events = sorted(self.events, key=lambda e: (e["ts"], e["tid"]))
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
            "otherData": {
                "recorded": self.recorded,
                "dropped": self.dropped,
                "time_unit": "1 ts = 1 cycle",
            },
        }

    def write(self, path: str) -> None:
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle)
