"""Client side of the simulation service: submit cells, fetch results.

``repro submit`` and ``repro fetch`` are thin shells over these
helpers.  The client computes the same content keys the server does
(``SimJob.key``), so a submission is idempotent end-to-end: submitting
the same sweep twice queues nothing the second time, and a sweep whose
cells are already cached never queues at all.

:func:`fetch_results` polls ``GET /jobs/<key>`` until every key is
terminal and returns :class:`~repro.core.simulator.SimResult` objects
in submission order — the same order, and byte-for-byte the same
results, a local :func:`~repro.runtime.run_jobs` call would produce.

Both paths ride the hardened
:class:`~repro.service.transport.ServiceTransport`: submissions retry
idempotently under one ``X-Repro-Request-Id`` per job, 429 shedding is
honored via ``Retry-After``, 5xx bursts retry within a bounded budget,
and the fetch loop additionally rides out whole server restarts
(``server.crash``) with a consecutive-outage budget on top of the
transport's per-call retries — none of which ever reaches the user as
a traceback.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro._http import ServiceUnavailable, json_round_trip
from repro.core.result import SimResult
from repro.obs.manifest import new_run_id
from repro.obs.spans import SpanRecorder, TraceContext
from repro.runtime.job import SimJob
from repro.runtime.settings import resolve_trace_dir
from repro.service.transport import ServiceTransport

#: Default seconds between result polls.
DEFAULT_FETCH_INTERVAL = 0.5

#: Consecutive poll sweeps that may end in :class:`ServiceUnavailable`
#: (each already a full transport retry budget) before
#: :func:`fetch_results` gives up — sized to ride out a server
#: SIGKILL + journal-replay restart.
FETCH_OUTAGE_BUDGET = 8


def _ship_spans(url: str, recorder: SpanRecorder) -> None:
    """POST buffered client spans to the service (best-effort)."""
    records = recorder.drain()
    if not records:
        return
    try:
        json_round_trip(f"{url.rstrip('/')}/spans",
                        {"spans": records, "worker": "client"}, timeout=5.0)
    except ServiceUnavailable:
        pass


class JobRejected(ValueError):
    """The server refused a submission (validation failure)."""


class RemoteJobFailed(RuntimeError):
    """A job reached the ``failed`` state on the service."""


def submit_jobs(url: str, jobs: Sequence[SimJob],
                stream=None, run_id: Optional[str] = None,
                trace_contexts: Optional[Dict[str, str]] = None,
                ) -> Dict[str, str]:
    """Submit every job; returns ``{key: state}`` as acknowledged.

    Every submission in one call shares one ``run_id`` correlation id
    (minted here when the caller has none), which the service journals
    with the entry — the cross-host analogue of the engine's manifest
    stamp.  Each job additionally mints a fresh distributed-trace root
    (subject to ``REPRO_TRACE_SAMPLE``); the context travels in the
    payload's ``trace`` field and the ``traceparent`` header, and the
    submission round trip itself becomes the trace's root span.  Pass a
    dict as ``trace_contexts`` to receive ``{key: traceparent}`` for the
    sampled jobs.  Raises :class:`JobRejected` on a validation failure
    (the sweep is malformed — pushing on would just fail every cell) and
    :class:`ServiceUnavailable` when the server cannot be reached.
    """
    run_id = run_id or new_run_id()
    states: Dict[str, str] = {}
    recorder = SpanRecorder(directory=resolve_trace_dir(), keep=True,
                            run_id=run_id)
    transport = ServiceTransport(url, name=f"submit:{run_id}")
    try:
        for job in jobs:
            if not job.cacheable:
                raise JobRejected(
                    f"ad-hoc Program job {job.label!r} has no canonical form "
                    "and cannot be submitted to a service"
                )
            payload = dict(job.canonical())
            payload["run_id"] = run_id
            context = TraceContext.root()
            span = None
            headers = None
            if context.sampled:
                header = context.to_header()
                payload["trace"] = header
                headers = {"traceparent": header}
                if trace_contexts is not None:
                    trace_contexts[job.key] = header
                span = recorder.start("client.submit", context,
                                      stage="submit", root=True,
                                      key=job.key, label=job.label)
            response = transport.post_json("/jobs", payload,
                                           headers=headers)
            if "error" in response:
                if span is not None:
                    recorder.finish(span, status="error")
                raise JobRejected(f"{job.label}: {response['error']}")
            states[job.key] = response.get("state", "pending")
            if span is not None:
                recorder.finish(span, state=states[job.key],
                                cached=bool(response.get("cached")))
            if stream is not None:
                tag = "cached" if response.get("cached") else states[job.key]
                print(f"submitted {job.label}: {tag}", file=stream)
    finally:
        _ship_spans(url, recorder)
    return states


def fetch_results(
    url: str,
    jobs: Sequence[SimJob],
    timeout: Optional[float] = None,
    poll_interval: float = DEFAULT_FETCH_INTERVAL,
    stream=None,
    _sleep=time.sleep,
) -> List[SimResult]:
    """Poll until every job is terminal; results in submission order.

    Raises :class:`RemoteJobFailed` if any job fails on the service,
    :class:`TimeoutError` when ``timeout`` seconds pass with jobs still
    in flight, and :class:`ServiceUnavailable` on connection loss.
    """
    deadline = (time.monotonic() + timeout) if timeout is not None else None
    results: Dict[str, SimResult] = {}
    failed: Dict[str, str] = {}
    keys = [job.key for job in jobs]
    announced: Dict[str, str] = {}
    recorder = SpanRecorder(directory=resolve_trace_dir(), keep=True)
    transport = ServiceTransport(url, name="fetch", _sleep=_sleep)
    outages = 0
    poll_started = time.time()
    try:
        while True:
            for job, key in zip(jobs, keys):
                if key in results or key in failed:
                    continue
                try:
                    document = transport.get_json(f"/jobs/{key}")
                except ServiceUnavailable:
                    # The transport already spent a full retry budget;
                    # tolerate a bounded run of such sweeps so a server
                    # restart (journal replay included) doesn't abort a
                    # fetch that would succeed seconds later.
                    outages += 1
                    if outages > FETCH_OUTAGE_BUDGET:
                        raise
                    if stream is not None and outages == 1:
                        print("service unreachable; retrying...",
                              file=stream)
                    break
                outages = 0
                if document is None:
                    continue  # not submitted yet (or evicted): keep polling
                state = document.get("state")
                if stream is not None and announced.get(key) != state:
                    announced[key] = state
                    print(f"{job.label}: {state}", file=stream)
                if state == "done" and document.get("result") is not None:
                    results[key] = SimResult.from_dict(document["result"])
                    _fetch_span(recorder, document, key, poll_started)
                elif state == "failed":
                    failed[key] = document.get("reason") or "unknown failure"
                    _fetch_span(recorder, document, key, poll_started,
                                status="error")
            if failed:
                details = "; ".join(
                    f"{job.label}: {failed[key]}"
                    for job, key in zip(jobs, keys) if key in failed)
                raise RemoteJobFailed(details)
            if len(results) == len(keys):
                return [results[key] for key in keys]
            if deadline is not None and time.monotonic() > deadline:
                missing = [job.label for job, key in zip(jobs, keys)
                           if key not in results]
                raise TimeoutError(
                    f"{len(missing)} job(s) still in flight after {timeout}s: "
                    + ", ".join(missing[:5]))
            _sleep(poll_interval)
    finally:
        _ship_spans(url, recorder)


def _fetch_span(recorder: SpanRecorder, document: dict, key: str,
                poll_started: float, status: str = "ok") -> None:
    """Record the client-side wait for one job reaching a terminal
    state — from the first poll of this :func:`fetch_results` call to
    the poll that observed it done (untraced jobs record nothing)."""
    context = TraceContext.from_header(document.get("trace"))
    if context is None or not context.sampled:
        return
    recorder.emit("client.fetch", context, poll_started, time.time(),
                  stage="fetch", status=status, key=key,
                  state=document.get("state"))


def latency_breakdown(url: str, jobs: Sequence[SimJob]) -> Optional[dict]:
    """Mean per-segment latency (seconds) across ``jobs``.

    Reads each job's ``times`` (queue-journal timestamps exposed by
    ``GET /jobs/<key>``) and averages the submitted→claimed (queue
    wait), claimed→done (execution + report), and submitted→done
    segments.  Returns ``None`` when no job carries all three
    timestamps — e.g. the whole sweep was served from cache and never
    touched the queue.
    """
    waits: List[float] = []
    runs: List[float] = []
    totals: List[float] = []
    for job in jobs:
        try:
            status, _, document = json_round_trip(
                f"{url.rstrip('/')}/jobs/{job.key}")
        except ServiceUnavailable:
            return None
        if status == 404:
            continue  # not on this service (evicted, or never queued)
        if status >= 400:
            return None
        times = document.get("times") or {}
        stamps = [times.get(name)
                  for name in ("submitted", "claimed", "finished")]
        if not all(isinstance(value, (int, float)) for value in stamps):
            continue
        submitted, claimed, finished = stamps
        waits.append(max(0.0, claimed - submitted))
        runs.append(max(0.0, finished - claimed))
        totals.append(max(0.0, finished - submitted))
    if not totals:
        return None
    count = len(totals)
    return {
        "jobs": count,
        "queue_wait": sum(waits) / count,
        "execute": sum(runs) / count,
        "total": sum(totals) / count,
    }


def render_latency(breakdown: Optional[dict]) -> str:
    """One-line latency summary for the CLI (empty when no data)."""
    if not breakdown:
        return ""
    return (
        f"latency: {breakdown['jobs']} job(s) queued, "
        f"queue-wait {breakdown['queue_wait']:.2f}s, "
        f"execute {breakdown['execute']:.2f}s, "
        f"submit->done {breakdown['total']:.2f}s (mean)"
    )
