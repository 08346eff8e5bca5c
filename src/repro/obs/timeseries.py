"""Interval-resolved microarchitectural time series.

Every observability layer so far reports *whole-run aggregates*; the
:class:`IntervalRecorder` adds the time axis.  Attached to a pipeline it
joins the periodic schedule that progress hooks share
(:meth:`Pipeline.schedule`): every ``interval_cycles`` simulated cycles
the :meth:`Pipeline.run` loop calls the recorder once — before any
progress hook due in the same cycle — and the recorder snapshots
*deltas* of the counters that already exist — IPC, per-cluster
reservation-station occupancy, ``rs_full`` and ``fetch_starve``
pressure, inter-cluster forwarding traffic, trace-cache hit rate, and
the full top-down cycle-accounting category vector — into one
**window** record.  Windows live in a ring
buffer (:attr:`dropped` counts evictions), export as JSONL or as
Chrome-trace counter tracks (pid 2, merging with
:meth:`~repro.obs.tracer.CycleTracer.to_chrome_trace` and
:func:`~repro.obs.spans.spans_to_chrome` output), and feed
:mod:`repro.analysis.phases` for offline phase segmentation.

The recorder only *reads* pipeline state, so a recorded run is
byte-identical to an unrecorded one, and an unrecorded run pays one
integer comparison per cycle — the same contract as every other tap.

Window record shape (:data:`INTERVAL_SCHEMA_VERSION`):

``index``
    Zero-based window sequence number (monotonic even after ring
    eviction).
``start`` / ``end`` / ``cycles``
    Measured-cycle interval covered by the window (``stats.cycles``
    coordinates: 0 is the warmup boundary).
``retired`` / ``ipc``
    Instructions retired in the window and the window-local IPC.
``width``
    Machine retire width (the ideal IPC; normalisation constant for
    phase signatures).
``occupancy`` / ``occupancy_frac``
    Instantaneous per-cluster RS occupancy at the window boundary, and
    the machine-wide buffered fraction of total RS capacity.
``rs_full`` / ``fetch_starve``
    Retire slots lost to those accounting categories in the window
    (convenience aliases of the ``accounting`` vector).
``forwarded_operands`` / ``forwarded_hops``
    Inter-cluster forwarding traffic in the window.
``tc_lookups`` / ``tc_hits`` / ``tc_hit_rate``
    Trace-cache activity in the window (rate is 1.0 when idle, matching
    :attr:`~repro.tracecache.trace_cache.TraceCache.hit_rate`).
``accounting``
    Lost retire slots per cycle-loss category (summed across clusters)
    in the window; categories sum to ``width * cycles - retired``.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from typing import Deque, List, Optional

from repro.core.accounting import CYCLE_LOSS_CATEGORIES

#: Bump on any change to the window record shape.
INTERVAL_SCHEMA_VERSION = 1

#: Default cycles per window (``REPRO_INTERVAL_CYCLES`` overrides).
DEFAULT_INTERVAL_CYCLES = 1_000

#: Default ring-buffer capacity (windows kept).
DEFAULT_CAPACITY = 10_000

#: Chrome-trace pid for the counter tracks (CycleTracer owns pid 0,
#: service spans own pid 1).
TIMELINE_PID = 2


class IntervalRecorder:
    """Ring-buffered windowed snapshots of pipeline counters.

    Attach to a pipeline (directly or via ``simulate(recorder=...)``)::

        recorder = IntervalRecorder(interval_cycles=1_000)
        with recorder.attach(simulator.pipeline):
            simulator.run(30_000)
        recorder.write_jsonl("timeline.jsonl")

    ``interval_cycles`` sets the window width in simulated cycles;
    ``capacity`` bounds memory — the newest ``capacity`` windows are
    kept and :attr:`dropped` counts evictions, so recording an
    arbitrarily long run cannot exhaust memory.
    """

    def __init__(self, interval_cycles: int = DEFAULT_INTERVAL_CYCLES,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        if interval_cycles <= 0:
            raise ValueError(
                f"interval_cycles must be positive, got {interval_cycles}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.interval_cycles = interval_cycles
        self.capacity = capacity
        self.windows: Deque[dict] = deque(maxlen=capacity)
        self.recorded = 0
        self._pipeline = None
        self._base: Optional[dict] = None
        self._width = 0
        self._rs_capacity = 0

    # ------------------------------------------------------------------
    # Attachment lifecycle (mirrors PhaseProfiler's).
    # ------------------------------------------------------------------
    def attach(self, pipeline) -> "IntervalRecorder":
        if self._pipeline is not None:
            raise RuntimeError("recorder is already attached")
        self._pipeline = pipeline
        self._width = pipeline.config.width
        self._rs_capacity = sum(
            station.capacity
            for cluster in pipeline.clusters
            for station in cluster.stations.values()
        )
        self._base = self._snapshot(pipeline)
        # First window closes a full interval after attach (never an
        # immediate empty window at the attach cycle).  Registered ahead
        # of progress hooks: a heartbeat due in the same cycle carries
        # the window that just closed.
        pipeline.schedule(self, self.interval_cycles,
                          due=pipeline.now + self.interval_cycles,
                          first=True)
        return self

    def detach(self) -> None:
        pipeline = self._pipeline
        if pipeline is None:
            return
        self.finish()
        pipeline.unschedule(self)
        self._pipeline = None

    def __enter__(self) -> "IntervalRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.detach()

    # ------------------------------------------------------------------
    # Sampling (called by the pipeline's periodic schedule).
    # ------------------------------------------------------------------
    def __call__(self, pipeline) -> None:
        self.finish()

    def finish(self) -> None:
        """Flush the final partial window (idempotent).

        Without this, a run shorter than one window — or the tail of any
        run — would be silently invisible.  After flushing, the baseline
        advances, so calling :meth:`finish` again records nothing.
        """
        pipeline = self._pipeline
        if pipeline is None:
            return
        snapshot = self._snapshot(pipeline)
        self._append_window(snapshot, pipeline)
        self._base = snapshot

    @staticmethod
    def _snapshot(pipeline) -> dict:
        stats = pipeline.stats
        trace_cache = pipeline.trace_cache
        return {
            "cycles": stats.cycles,
            "retired": stats.retired,
            "forwarded_hops": stats.forwarded_hops,
            "forwarded_operands": stats.forwarded_operands,
            "tc_lookups": trace_cache.lookups,
            "tc_hits": trace_cache.hits,
            "accounting": Counter(pipeline.accounting.counts),
        }

    def _append_window(self, snapshot: dict, pipeline) -> None:
        base = self._base
        cycles = snapshot["cycles"] - base["cycles"]
        if cycles <= 0:
            return
        retired = snapshot["retired"] - base["retired"]
        losses = {category: 0 for category in CYCLE_LOSS_CATEGORIES}
        delta = snapshot["accounting"] - base["accounting"]
        for (_cluster, category), slots in delta.items():
            losses[category] += slots
        occupancy = [cluster.occupancy for cluster in pipeline.clusters]
        lookups = snapshot["tc_lookups"] - base["tc_lookups"]
        hits = snapshot["tc_hits"] - base["tc_hits"]
        window = {
            "schema": INTERVAL_SCHEMA_VERSION,
            "index": self.recorded,
            "start": base["cycles"],
            "end": snapshot["cycles"],
            "cycles": cycles,
            "retired": retired,
            "ipc": retired / cycles,
            "width": self._width,
            "occupancy": occupancy,
            "occupancy_frac": (
                sum(occupancy) / self._rs_capacity
                if self._rs_capacity else 0.0),
            "rs_full": losses["rs_full"],
            "fetch_starve": losses["fetch_starve"],
            "forwarded_hops":
                snapshot["forwarded_hops"] - base["forwarded_hops"],
            "forwarded_operands":
                snapshot["forwarded_operands"] - base["forwarded_operands"],
            "tc_lookups": lookups,
            "tc_hits": hits,
            "tc_hit_rate": hits / lookups if lookups else 1.0,
            "accounting": losses,
        }
        self.recorded += 1
        self.windows.append(window)

    # ------------------------------------------------------------------
    # Views.
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Windows evicted by the ring buffer."""
        return self.recorded - len(self.windows)

    def last_window(self) -> Optional[dict]:
        """The newest complete window, or ``None`` before the first."""
        return self.windows[-1] if self.windows else None

    def meta(self) -> dict:
        """Series-level header (the first JSONL line)."""
        return {
            "schema": INTERVAL_SCHEMA_VERSION,
            "kind": "interval-series",
            "interval_cycles": self.interval_cycles,
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "width": self._width,
        }

    # ------------------------------------------------------------------
    # Export.
    # ------------------------------------------------------------------
    def write_jsonl(self, path: str, meta: Optional[dict] = None) -> None:
        """Write the series: one header line, then one line per window.

        ``meta`` keys (benchmark, strategy, seed, ...) merge into the
        header so the file is self-describing.
        """
        header = self.meta()
        if meta:
            header.update(meta)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for window in self.windows:
                handle.write(json.dumps(window, sort_keys=True) + "\n")

    def to_chrome_trace(self, cycle_trace: Optional[dict] = None) -> dict:
        """The series as Chrome-trace counter tracks (pid 2).

        One ``ph: "C"`` counter event per window per track — ``ipc``,
        per-cluster ``occupancy``, ``tc_hit_rate``, and the ``blockers``
        accounting vector — timestamped at the window start (1 ts = 1
        cycle, matching :class:`~repro.obs.tracer.CycleTracer`).  Pass a
        cycle-trace document to merge its lanes in, exactly like
        :func:`~repro.obs.spans.spans_to_chrome`.
        """
        events: List[dict] = [{
            "name": "process_name", "ph": "M", "pid": TIMELINE_PID,
            "tid": 0, "args": {"name": "repro timeline"},
        }]
        for window in self.windows:
            ts = window["start"]
            events.append({
                "name": "ipc", "ph": "C", "pid": TIMELINE_PID, "ts": ts,
                "args": {"ipc": round(window["ipc"], 4)},
            })
            events.append({
                "name": "occupancy", "ph": "C", "pid": TIMELINE_PID,
                "ts": ts,
                "args": {f"cluster {i}": occ
                         for i, occ in enumerate(window["occupancy"])},
            })
            events.append({
                "name": "tc_hit_rate", "ph": "C", "pid": TIMELINE_PID,
                "ts": ts,
                "args": {"tc_hit_rate": round(window["tc_hit_rate"], 4)},
            })
            events.append({
                "name": "blockers", "ph": "C", "pid": TIMELINE_PID,
                "ts": ts, "args": dict(window["accounting"]),
            })
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "exporter": "repro timeline",
                "interval_cycles": self.interval_cycles,
                "windows": len(self.windows),
                "windows_dropped": self.dropped,
            },
        }
        if cycle_trace:
            document["traceEvents"] = (
                list(cycle_trace.get("traceEvents", [])) + events)
            merged_other = dict(cycle_trace.get("otherData", {}))
            merged_other.update(document["otherData"])
            document["otherData"] = merged_other
        return document

    def write_chrome_trace(self, path: str,
                           cycle_trace: Optional[dict] = None) -> None:
        """Write :meth:`to_chrome_trace` JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(cycle_trace), handle)
