"""Distributed span tracing: follow one :class:`SimJob` end to end.

Where ``events.jsonl`` answers "what happened inside this run" and the
queue journal answers "what happened inside this service", neither can
answer *why one fetch was slow*: the submit, the queue wait, the lease,
the worker's simulate, the cache store, and the client's poll all live
in different processes on different hosts.  This module gives every
submitted job one **trace** — a W3C-``traceparent``-style context minted
by whoever first sees the job — and lets each hop append **spans**
(named, timed intervals keyed to the trace) to a ``spans.jsonl`` that
sits beside ``events.jsonl``.

Design points, all inherited from the existing observability layer:

* **stdlib only** — ids come from :mod:`uuid`, timestamps from
  :func:`time.time`, storage is append-only JSONL.
* **fail-soft** — span I/O trouble counts ``write_errors`` and warns
  once on stderr, exactly like
  :class:`~repro.obs.manifest.TelemetryWriter`; a sick disk degrades
  observability, never a result.
* **byte-identical off-path** — nothing here touches simulation state;
  an unsampled or untraced run takes one ``is not None`` test per
  instrumented call and produces bit-for-bit the same results,
  manifests, and cache entries.
* **sampling-capable** — the root sampling decision is a deterministic
  hash of the trace id against ``REPRO_TRACE_SAMPLE`` (default 1.0),
  so no RNG state is perturbed and children always inherit the
  parent's decision through the propagated flags.

Context propagation: :meth:`TraceContext.to_header` renders
``00-<32 hex trace>-<16 hex span>-<01|00>``, carried both as a
``traceparent`` HTTP header and as a ``trace`` field in the job payload
(peeled off before validation exactly like ``run_id``).  Readers
(:func:`read_spans`) skip torn tails by the torn-line rule of
:mod:`repro._jsonfile`.  ``repro spans DIR|URL`` renders the per-trace
waterfall (:func:`render_spans`) and the cross-trace critical-path
summary (:func:`critical_path`); :func:`spans_to_chrome` merges spans
with an existing :class:`~repro.obs.tracer.CycleTracer` export into one
Perfetto-loadable Chrome trace.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import uuid
from typing import Dict, List, Optional, Sequence, Union

from repro._jsonfile import append_jsonl, read_jsonl

#: Bump on any change to the span record shape.
SPAN_SCHEMA_VERSION = 1

#: The W3C traceparent version this codebase emits.
TRACEPARENT_VERSION = "00"

#: File name of the span journal (beside ``events.jsonl``).
SPANS_FILENAME = "spans.jsonl"

#: The pipeline stages a full submit→fetch trace moves through, in
#: critical-path order (``phase`` spans are children of ``simulate``).
SPAN_STAGES = ("submit", "queue", "claim", "cache", "simulate", "phase",
               "store", "report", "fetch", "engine")

#: Sub-second-resolution histogram bounds for service latencies (the
#: default simulator buckets are integer cycle counts, far too coarse).
LATENCY_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                   1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0)

_HEX = set("0123456789abcdef")


def _is_hex(value: str, length: int) -> bool:
    return (len(value) == length and set(value) <= _HEX
            and value != "0" * length)


def trace_sampled(trace_id: str, rate: float) -> bool:
    """Deterministic sampling decision for ``trace_id`` at ``rate``.

    Hashes the leading 8 hex digits against the rate so every process
    agrees on the decision without sharing state, and no
    ``random``-module RNG is consumed (determinism guards stay intact).
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    return int(trace_id[:8], 16) < rate * 0x100000000


class TraceContext:
    """One hop's view of a trace: ids plus the inherited sampling flag."""

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: str,
                 sampled: bool = True) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled

    @classmethod
    def root(cls, sample_rate: Optional[float] = None) -> "TraceContext":
        """Mint a new trace; the sampling decision is made exactly once
        here and inherited by every child."""
        if sample_rate is None:
            from repro.runtime.settings import resolve_trace_sample

            sample_rate = resolve_trace_sample()
        trace_id = uuid.uuid4().hex
        return cls(trace_id, uuid.uuid4().hex[:16],
                   sampled=trace_sampled(trace_id, sample_rate))

    def child(self) -> "TraceContext":
        """A context for a child span (fresh span id, same decision)."""
        return TraceContext(self.trace_id, uuid.uuid4().hex[:16],
                            sampled=self.sampled)

    def to_header(self) -> str:
        """The ``traceparent`` form: ``00-<trace>-<span>-<flags>``."""
        flags = "01" if self.sampled else "00"
        return (f"{TRACEPARENT_VERSION}-{self.trace_id}-"
                f"{self.span_id}-{flags}")

    @classmethod
    def from_header(cls, value) -> Optional["TraceContext"]:
        """Parse a traceparent string; ``None`` on anything malformed.

        Propagation must never raise: a junk header from a foreign
        client simply means "no trace".
        """
        if not isinstance(value, str):
            return None
        parts = value.strip().lower().split("-")
        if len(parts) != 4:
            return None
        version, trace_id, span_id, flags = parts
        if len(version) != 2 or not set(version) <= _HEX:
            return None
        if version == "ff":
            return None
        if not _is_hex(trace_id, 32) or not _is_hex(span_id, 16):
            return None
        if len(flags) != 2 or not set(flags) <= _HEX:
            return None
        return cls(trace_id, span_id, sampled=bool(int(flags, 16) & 1))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TraceContext({self.to_header()!r})"


class Span:
    """One named, timed interval of a trace (mutable until finished)."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "stage",
                 "start", "end", "status", "attrs")

    def __init__(self, trace_id: str, span_id: str,
                 parent_id: Optional[str], name: str,
                 stage: Optional[str] = None,
                 start: Optional[float] = None,
                 end: Optional[float] = None, status: str = "ok",
                 attrs: Optional[dict] = None) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.stage = stage
        self.start = time.time() if start is None else start
        self.end = end
        self.status = status
        self.attrs = dict(attrs) if attrs else {}

    @property
    def duration(self) -> float:
        end = self.end if self.end is not None else time.time()
        return max(0.0, end - self.start)

    def to_record(self) -> dict:
        record = {
            "schema": SPAN_SCHEMA_VERSION,
            "trace": self.trace_id,
            "span": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end if self.end is not None else self.start,
            "status": self.status,
        }
        if self.parent_id is not None:
            record["parent"] = self.parent_id
        if self.stage is not None:
            record["stage"] = self.stage
        record.update(self.attrs)
        return record


class SpanRecorder:
    """Per-process sink of finished spans.

    With a ``directory``, each finished span appends one line to
    ``<directory>/spans.jsonl`` (single ``write`` call per line, so
    concurrent appenders interleave whole records).  With
    ``keep=True`` finished records additionally accumulate in
    :attr:`buffer` for :meth:`drain`-and-ship over HTTP — the worker
    and client mode, where the service's ``spans.jsonl`` is the
    authoritative store.  Both may be combined; neither is required
    (a recorder with neither is a cheap in-memory no-op).

    The recorder also carries the *ambient* trace context as a
    thread-local stack (:meth:`push` / :meth:`pop` / :meth:`current`),
    which is how deep layers — the result cache, notably — emit spans
    without threading a context through every call signature.
    """

    def __init__(self, directory: Union[str, os.PathLike, None] = None,
                 keep: bool = False,
                 run_id: Optional[str] = None) -> None:
        self.directory = os.fspath(directory) if directory else None
        self.keep = keep
        self.run_id = run_id
        self.buffer: List[dict] = []
        self.write_errors = 0
        self.recorded = 0
        #: Optional callback invoked (fail-soft) with every record —
        #: the service server feeds its per-stage histograms here.
        self.observer = None
        self._warned = False
        self._local = threading.local()
        self._lock = threading.Lock()
        if self.directory is not None:
            try:
                os.makedirs(self.directory, exist_ok=True)
            except OSError as error:
                self._degrade(error)

    @property
    def spans_path(self) -> Optional[str]:
        if self.directory is None:
            return None
        return os.path.join(self.directory, SPANS_FILENAME)

    # ------------------------------------------------------------------
    # Ambient context (thread-local).
    # ------------------------------------------------------------------
    def push(self, context: TraceContext) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(context)

    def pop(self) -> Optional[TraceContext]:
        stack = getattr(self._local, "stack", None)
        return stack.pop() if stack else None

    def current(self) -> Optional[TraceContext]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # Span lifecycle.
    # ------------------------------------------------------------------
    def start(self, name: str, context: TraceContext,
              stage: Optional[str] = None, root: bool = False,
              **attrs) -> Span:
        """Open a span under ``context``.

        ``root=True`` makes the span *be* ``context``'s own span (the
        id clients propagated) instead of a fresh child — used for the
        submit span, which is the root of the whole trace.
        """
        if root:
            span_id, parent = context.span_id, None
        else:
            span_id, parent = uuid.uuid4().hex[:16], context.span_id
        return Span(context.trace_id, span_id, parent, name,
                    stage=stage, attrs=attrs)

    def finish(self, span: Span, status: str = "ok", **attrs) -> Span:
        """Close ``span`` now and record it."""
        span.end = time.time()
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        self.record(span)
        return span

    def emit(self, name: str, context: TraceContext, start: float,
             end: float, stage: Optional[str] = None,
             status: str = "ok", root: bool = False, **attrs) -> Span:
        """Record a span whose interval is already known — the
        reconstructed queue-phase spans and the profiler's phase
        children are emitted this way."""
        span = self.start(name, context, stage=stage, root=root, **attrs)
        span.start = start
        span.end = end
        span.status = status
        self.record(span)
        return span

    def record(self, span: Span) -> None:
        record = span.to_record()
        if self.run_id is not None:
            record.setdefault("run_id", self.run_id)
        self._sink(record)

    def ingest(self, records: Sequence[dict]) -> int:
        """Accept foreign span records (the ``POST /spans`` path).

        Minimal validation only — a record needs a trace id, a span id,
        and numeric start/end; everything else is passenger data.
        """
        accepted = 0
        for record in records:
            if not isinstance(record, dict):
                continue
            if not isinstance(record.get("trace"), str):
                continue
            if not isinstance(record.get("span"), str):
                continue
            if not isinstance(record.get("start"), (int, float)):
                continue
            if not isinstance(record.get("end"), (int, float)):
                continue
            self._sink(dict(record))
            accepted += 1
        return accepted

    def drain(self) -> List[dict]:
        """Hand over (and clear) the buffered records for shipping."""
        with self._lock:
            records, self.buffer = self.buffer, []
        return records

    # ------------------------------------------------------------------
    # Fail-soft sink (the TelemetryWriter discipline).
    # ------------------------------------------------------------------
    def _sink(self, record: dict) -> None:
        self.recorded += 1
        if self.keep:
            with self._lock:
                self.buffer.append(record)
        if self.directory is not None:
            try:
                append_jsonl(self.spans_path, record)
            except OSError as error:
                self._degrade(error)
        if self.observer is not None:
            try:
                self.observer(record)
            except Exception:
                pass

    def _degrade(self, error: OSError) -> None:
        self.write_errors += 1
        if not self._warned:
            self._warned = True
            print(f"warning: span write failed ({error}); run continues "
                  f"with degraded tracing", file=sys.stderr)


# ----------------------------------------------------------------------
# Reading.
# ----------------------------------------------------------------------
def read_spans(source: Union[str, os.PathLike]) -> List[dict]:
    """Every parseable span record in ``source`` (a directory holding
    ``spans.jsonl``, or the file itself).

    Torn tail lines are skipped and a missing file is an empty trace
    set (the torn-line rule of :mod:`repro._jsonfile`).
    """
    path = os.fspath(source)
    if os.path.isdir(path):
        path = os.path.join(path, SPANS_FILENAME)
    records, _ = read_jsonl(path)
    return [record for record in records
            if isinstance(record.get("trace"), str)]


def group_traces(spans: Sequence[dict]) -> "Dict[str, List[dict]]":
    """Spans bucketed by trace id, each bucket sorted by start time,
    buckets ordered by earliest span."""
    traces: Dict[str, List[dict]] = {}
    for record in spans:
        traces.setdefault(record["trace"], []).append(record)
    for bucket in traces.values():
        bucket.sort(key=lambda r: (r.get("start", 0.0), r.get("name", "")))
    return dict(sorted(traces.items(),
                       key=lambda item: item[1][0].get("start", 0.0)))


def _span_depth(record: dict, by_id: Dict[str, dict]) -> int:
    depth = 0
    seen = set()
    parent = record.get("parent")
    while parent is not None and parent not in seen:
        seen.add(parent)
        node = by_id.get(parent)
        if node is None:
            break
        depth += 1
        parent = node.get("parent")
    return depth


# ----------------------------------------------------------------------
# Rendering: waterfall + critical path.
# ----------------------------------------------------------------------
#: ANSI SGR codes for the waterfall (only on interactive terminals —
#: callers gate on :func:`repro.runtime.observe.stream_is_tty`).
_ANSI_RESET = "\x1b[0m"
_ANSI_DIM = "\x1b[2m"
_ANSI_CYAN = "\x1b[36m"
_ANSI_RED = "\x1b[31m"


def render_spans(spans: Sequence[dict], limit: int = 20,
                 width: int = 32, ansi: bool = False) -> str:
    """Per-trace waterfall tables (``repro spans``'s main view).

    ``ansi=False`` (the default) keeps the output free of escape
    sequences, so piped/redirected output is plain text; ``ansi=True``
    colours the bars and flags error statuses.
    """
    traces = group_traces(spans)
    if not traces:
        return "no spans recorded"
    lines: List[str] = []
    shown = 0
    for trace_id, bucket in traces.items():
        if shown >= limit:
            lines.append(
                f"... {len(traces) - shown} more trace(s) (raise --limit)")
            break
        shown += 1
        t0 = min(r.get("start", 0.0) for r in bucket)
        t1 = max(r.get("end", r.get("start", 0.0)) for r in bucket)
        total = max(t1 - t0, 1e-9)
        label = next((r.get("label") for r in bucket if r.get("label")),
                     None)
        key = next((r.get("key") for r in bucket if r.get("key")), None)
        head = f"trace {trace_id[:16]}  total {total:.3f}s"
        if label:
            head += f"  {label}"
        if key:
            head += f"  key {key[:12]}"
        lines.append(head)
        lines.append(f"  {'span':<28} {'stage':<9} {'start':>8} "
                     f"{'dur':>9}  waterfall")
        by_id = {r["span"]: r for r in bucket}
        for record in bucket:
            start = record.get("start", t0)
            end = record.get("end", start)
            depth = _span_depth(record, by_id)
            name = ("  " * depth + record.get("name", "?"))[:28]
            left = int((start - t0) / total * width)
            bar = max(1, int((end - start) / total * width))
            bar = min(bar, width - min(left, width - 1))
            gutter = " " * min(left, width - 1) + "█" * bar
            status = record.get("status", "ok")
            flag = "" if status == "ok" else f"  [{status}]"
            if ansi:
                color = _ANSI_RED if status != "ok" else (
                    _ANSI_CYAN if depth == 0 else _ANSI_DIM)
                gutter = f"{color}{gutter:<{width}}{_ANSI_RESET}"
                if flag:
                    flag = f"  {_ANSI_RED}[{status}]{_ANSI_RESET}"
            lines.append(
                f"  {name:<28} {record.get('stage', '-'):<9} "
                f"{start - t0:>7.3f}s {end - start:>8.3f}s  "
                f"|{gutter:<{width}}|{flag}")
        lines.append("")
    return "\n".join(lines).rstrip()


def critical_path(spans: Sequence[dict]) -> "Dict[str, dict]":
    """p50/p95 per stage across every trace (the summary table).

    Uses the shared :class:`~repro.obs.metrics.Histogram` quantile
    interpolation over :data:`LATENCY_BUCKETS`.
    """
    from repro.obs.metrics import Histogram

    durations: Dict[str, List[float]] = {}
    for record in spans:
        stage = record.get("stage")
        if stage is None:
            continue
        start = record.get("start")
        end = record.get("end")
        if not isinstance(start, (int, float)) \
                or not isinstance(end, (int, float)):
            continue
        durations.setdefault(stage, []).append(max(0.0, end - start))
    summary: Dict[str, dict] = {}
    for stage, values in durations.items():
        histogram = Histogram.of(values, buckets=LATENCY_BUCKETS)
        summary[stage] = histogram.summary()
    return summary


def render_critical_path(spans: Sequence[dict]) -> str:
    """The cross-trace stage summary as a terminal table."""
    summary = critical_path(spans)
    if not summary:
        return "no staged spans recorded"
    lines = [f"{'stage':<10} {'count':>6} {'p50':>9} {'p95':>9} "
             f"{'mean':>9} {'total':>9}"]
    ordered = [s for s in SPAN_STAGES if s in summary]
    ordered += [s for s in sorted(summary) if s not in SPAN_STAGES]
    for stage in ordered:
        cell = summary[stage]
        lines.append(
            f"{stage:<10} {cell['count']:>6} {cell['p50']:>8.3f}s "
            f"{cell['p95']:>8.3f}s {cell['mean']:>8.3f}s "
            f"{cell['sum']:>8.3f}s")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Perfetto export.
# ----------------------------------------------------------------------
#: Chrome-trace pid for the service spans (the CycleTracer owns pid 0).
SPAN_PID = 1


def spans_to_chrome(spans: Sequence[dict],
                    cycle_trace: Optional[dict] = None) -> dict:
    """Spans as a Chrome trace-event document, optionally merged with a
    :meth:`~repro.obs.tracer.CycleTracer.to_chrome_trace` export.

    Service spans land on ``pid 1`` with one thread lane per trace
    (timestamps in microseconds since the earliest span); the cycle
    trace's lanes ride along untouched on ``pid 0``, so one Perfetto
    tab shows the request path above the pipeline it paid for.
    """
    events: List[dict] = [{
        "name": "process_name", "ph": "M", "pid": SPAN_PID, "tid": 0,
        "args": {"name": "repro service trace"},
    }]
    traces = group_traces(spans)
    t0 = min((bucket[0].get("start", 0.0)
              for bucket in traces.values()), default=0.0)
    for lane, (trace_id, bucket) in enumerate(traces.items()):
        label = next((r.get("label") for r in bucket if r.get("label")),
                     None)
        lane_name = f"trace {trace_id[:8]}"
        if label:
            lane_name += f" ({label})"
        events.append({
            "name": "thread_name", "ph": "M", "pid": SPAN_PID,
            "tid": lane, "args": {"name": lane_name},
        })
        for record in bucket:
            start = record.get("start", t0)
            end = record.get("end", start)
            args = {field: record[field]
                    for field in ("stage", "status", "key", "run_id",
                                  "worker", "label")
                    if record.get(field) is not None}
            events.append({
                "name": record.get("name", "?"),
                "cat": record.get("stage", "span"),
                "ph": "X",
                "pid": SPAN_PID,
                "tid": lane,
                "ts": (start - t0) * 1e6,
                "dur": max(0.0, end - start) * 1e6,
                "args": args,
            })
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro spans",
                      "traces": len(traces),
                      "spans": len(spans)},
    }
    if cycle_trace:
        document["traceEvents"] = (
            list(cycle_trace.get("traceEvents", [])) + events)
        merged_other = dict(cycle_trace.get("otherData", {}))
        merged_other.update(document["otherData"])
        document["otherData"] = merged_other
    return document
