"""The simulation service's HTTP server: job API + shared cache tier.

:class:`ServiceServer` is a :class:`~repro.obs.server.TelemetryServer`
whose route table adds a writable job API fronting a :class:`JobQueue`
and the sharded :class:`~repro.runtime.cache.ResultCache`.  It shares
the exporter's request path (route table → dispatch → handler → one
``_respond``), so routing, request ids, 404s and the fail-soft 500 are
the exporter's; its handlers only return ``(status, document[,
headers])``.  Its POST steps run in :meth:`ServiceServer._answer_post`,
in this order: body parse (400), idempotent replay, deadline (408),
``traceparent`` fill-in, then the route.

``POST /jobs``
    Body: a job's canonical form (``SimJob.canonical()``).  Validated
    strictly — schema version, catalog benchmark, spec/config field
    checks — and keyed by the same SHA-256 content hash clients
    compute, so submission is idempotent: a duplicate key returns the
    existing job.  A key already in the cache is answered ``done``
    *without queueing anything* — that is the warm-sweep fast path.
``GET /jobs/<key>``
    Status + (when done) the cached result document.
``GET /queue``
    Queue depth, per-state counts, oldest pending age, entry list.
``GET /cache/<key>``
    The raw cache entry — the HTTP cache backend remote
    :class:`ResultCache` instances consult on local misses.
``POST /claim`` / ``POST /complete`` / ``POST /fail`` / ``POST /heartbeat``
    The worker protocol (see :mod:`repro.service.worker` and
    ``docs/SERVICE.md``).  Heartbeats renew the job's lease and are
    written to the service data directory's heartbeat channel in
    :mod:`repro.obs.heartbeat` format, so ``/metrics`` and ``repro top``
    see remote workers exactly like local pool workers.
``GET /metrics``
    Everything the telemetry exporter serves, plus queue gauges and
    per-shard cache hit/miss/eviction counters.

All mutating endpoints are journaled through the queue before they are
acknowledged, so a SIGKILL'd server restarted on the same data
directory resumes pending work and re-queues whatever was running.

Overload and failure degrade, never corrupt (``docs/RESILIENCE.md``):

* **Idempotent replay** — mutating POSTs carrying a client-supplied
  ``X-Repro-Request-Id`` are answered from a bounded replay cache on
  retry, so a response lost in flight (``http.drop_response``) is
  re-acknowledged without re-applying the mutation.
* **Load shedding** — with ``max_depth`` set, submissions beyond the
  queue's depth bound are answered ``429`` + ``Retry-After`` instead of
  growing without limit (``repro_service_shed_total`` counts them).
* **Graceful drain** — :meth:`drain` (wired to SIGTERM by ``repro
  service``) stops granting claims and sheds new submissions while
  in-flight completions keep landing; ``/healthz`` announces it.
* **Read-only degradation** — a failed journal append (real ``ENOSPC``
  or injected ``disk.full``) flips the queue read-only: submissions
  shed with 503 until an append succeeds again (see
  :mod:`repro.service.queue`).
* **Deadline propagation** — a POST whose ``X-Repro-Deadline`` (unix
  seconds) already passed is answered ``408`` without side effects; a
  claim leased to a client that gave up would only burn a lease.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from typing import Optional

from repro._jsonfile import write_json_atomic
from repro.core.result import SimResult
from repro.obs.heartbeat import HEARTBEAT_FIELDS, heartbeat_dir
from repro.obs.metrics import Histogram
from repro.obs.server import PrometheusText, Route, TelemetryServer
from repro.obs.spans import (
    LATENCY_BUCKETS,
    SpanRecorder,
    TraceContext,
    read_spans,
)
from repro.runtime.cache import ResultCache
from repro.runtime.job import SimJob
from repro.service.queue import (
    DEFAULT_LEASE_SECONDS,
    JobQueue,
    QueueReadOnly,
)

#: Bump on any change to the service's request/response shapes.
SERVICE_API_VERSION = 1

#: Cap on span records accepted per ``POST /spans`` request.
MAX_SPANS_PER_POST = 10_000

#: Mutating endpoints whose responses enter the idempotent-replay cache.
REPLAYABLE_PATHS = ("/jobs", "/claim", "/complete", "/fail")

#: Bound on remembered (request-id → response) pairs.
REPLAY_CACHE_LIMIT = 4096

#: ``Retry-After`` seconds suggested on 429/503 shed responses.
SHED_RETRY_AFTER = 0.5


class ServiceServer(TelemetryServer):
    """Job-submission and shared-cache HTTP service.

    ``data_dir`` holds everything durable: ``queue.jsonl`` and the
    ``heartbeats/`` channel.  The cache root is whatever the
    :class:`ResultCache` resolves (``REPRO_CACHE_DIR`` or the explicit
    ``cache``); the server's own cache never consults a remote tier —
    it *is* the remote tier.
    """

    def __init__(
        self,
        data_dir: str,
        port: int = 0,
        host: str = "127.0.0.1",
        cache: Optional[ResultCache] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        registry=None,
        stale_after: Optional[float] = None,
        max_depth: Optional[int] = None,
        faults=None,
    ) -> None:
        super().__init__(port=port, host=host, registry=registry,
                         telemetry_dir=data_dir, stale_after=stale_after)
        self.data_dir = os.fspath(data_dir)
        os.makedirs(self.data_dir, exist_ok=True)
        self.queue = JobQueue(self.data_dir, lease_seconds=lease_seconds,
                              faults=faults)
        self.cache = cache if cache is not None else ResultCache(remote=False)
        if faults is not None and self.cache.faults is None:
            # Arm the cache's hook too: `disk.full` specs scoped
            # ``path="cache"`` fail result stores, not journal appends.
            self.cache.faults = faults
        #: Queue-depth bound (pending+running) beyond which submissions
        #: are shed with 429; ``None`` disables shedding entirely.
        self.max_depth = max_depth
        #: True once :meth:`drain` ran: no new claims, no new jobs.
        self.draining = False
        self.submits = 0
        self.submit_cache_hits = 0
        self.submit_duplicates = 0
        self.submit_rejected = 0
        self.shed_total = 0
        self.request_replays = 0
        self.deadline_rejected = 0
        self._replay_cache: "OrderedDict[str, tuple]" = OrderedDict()
        # Distributed tracing: the service's spans.jsonl is the
        # authoritative trace store — workers and clients ship their
        # spans here (POST /spans), and the queue observer reconstructs
        # the queue-phase spans from journal-derived timestamps.
        self.spans = SpanRecorder(directory=self.data_dir)
        self._span_hist: dict = {}
        self.spans.observer = self._observe_span
        self.queue.observer = self._queue_span

    # ------------------------------------------------------------------
    # Distributed tracing.
    # ------------------------------------------------------------------
    def _observe_span(self, record: dict) -> None:
        """Feed one span into the per-stage latency histograms."""
        start = record.get("start")
        end = record.get("end")
        if not isinstance(start, (int, float)) \
                or not isinstance(end, (int, float)):
            return
        stage = record.get("stage") or "other"
        histogram = self._span_hist.get(stage)
        if histogram is None:
            histogram = self._span_hist[stage] = Histogram(
                buckets=LATENCY_BUCKETS)
        histogram.observe(max(0.0, end - start))

    def _queue_span(self, event: str, entry) -> None:
        """Reconstruct a queue-phase span for one entry transition.

        Called by the queue (fail-soft) right after the journal write;
        the timestamps come from the entry, which is itself rebuilt
        from the journal on restart — so a replayed queue produces the
        same spans a live one would.
        """
        context = TraceContext.from_header(entry.trace)
        if context is None or not context.sampled:
            return
        now = time.time()
        common = {"key": entry.key, "run_id": entry.run_id,
                  "worker": entry.worker}
        common = {k: v for k, v in common.items() if v is not None}
        if event == "claim":
            # Submission to lease grant: the pure queue-wait phase.
            self.spans.emit("queue.wait", context, entry.submitted, now,
                            stage="queue", claims=entry.claims, **common)
        elif event in ("complete", "fail"):
            start = entry.claimed if entry.claimed is not None \
                else entry.submitted
            self.spans.emit("queue.lease", context, start, now,
                            stage="queue",
                            status="ok" if event == "complete" else "error",
                            **common)
        elif event == "requeue":
            start = entry.claimed if entry.claimed is not None \
                else entry.submitted
            self.spans.emit("queue.requeue", context, start, now,
                            stage="queue", status="requeued",
                            requeues=entry.requeues, **common)

    # ------------------------------------------------------------------
    # GET handlers.
    # ------------------------------------------------------------------
    def _spans_document(self, query: str):
        """``GET /spans``: the service's span journal as JSON.

        ``?trace=<id>`` filters to one trace, ``?limit=N`` keeps the
        newest N records (the journal is append-ordered).
        """
        from urllib.parse import parse_qs

        query = parse_qs(query)
        records = read_spans(self.data_dir)
        trace = query.get("trace", [None])[0]
        if trace:
            records = [r for r in records if r.get("trace") == trace]
        limit = query.get("limit", [None])[0]
        if limit:
            try:
                records = records[-max(0, int(limit)):]
            except ValueError:
                pass
        return 200, {
            "count": len(records),
            "spans": records,
            "write_errors": self.spans.write_errors,
        }

    def _job_status(self, key: str):
        # One snapshot under the queue lock, which _post_complete holds
        # across its cache store and queue transition: a completion is
        # seen whole or not at all, so ``done`` comes with its result
        # and, for a queued job, its ``times.finished``.
        with self.queue.lock:
            entry = self.queue.get(key)
            view = entry.public() if entry is not None else None
            cached = self.cache.load_key(key)
        if view is None and cached is None:
            return 404, {"error": f"unknown job {key}"}
        document = {"key": key, "api": SERVICE_API_VERSION}
        if view is not None:
            document.update(view)
        if cached is not None:
            document["state"] = "done"
            document["result"] = cached.get("result")
            document.setdefault("elapsed", cached.get("elapsed"))
            document["cached"] = True
        return 200, document

    def _cache_entry(self, key: str):
        payload = self.cache.load_key(key)
        if payload is None:
            return 404, {"error": f"cache miss for {key}"}
        return 200, payload

    # ------------------------------------------------------------------
    # POST steps and handlers (the writable half the exporter lacks).
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Enter drain mode (SIGTERM path): grant no new claims, shed
        new submissions, keep accepting completions and heartbeats so
        in-flight work lands and the journal finishes cleanly.
        ``/healthz`` announces the state for orchestrators."""
        self.draining = True

    def _replayed_response(self, request, path: str, rid: str):
        """The cached answer to a retried mutation, or ``None``.

        The cache is keyed on the *client-supplied* request id — the
        transport reuses one id across every retry of a logical
        operation, so a response lost to ``http.drop_response`` is
        re-acknowledged here without the mutation running twice.
        """
        if path not in REPLAYABLE_PATHS:
            return None
        if not request.headers.get("X-Repro-Request-Id"):
            return None  # no client id: nothing to key replay on
        cached = self._replay_cache.get(rid)
        if cached is None:
            return None
        self.request_replays += 1
        status, document = cached
        return status, dict(document, replayed=True)

    def _remember_response(self, request, path: str, rid: str,
                           status: int, document) -> None:
        """Record a replayable response; transient statuses excluded.

        Shed/drain/deadline answers (408/429/5xx) must never replay —
        a retry that arrives after the pressure passed deserves a
        fresh verdict.  Applied mutations (2xx) and deterministic
        validation verdicts (400/404) replay byte-for-byte.
        """
        if path not in REPLAYABLE_PATHS or not isinstance(document, dict):
            return
        if not request.headers.get("X-Repro-Request-Id"):
            return
        if status >= 400 and status not in (400, 404):
            return
        self._replay_cache[rid] = (status, dict(document))
        while len(self._replay_cache) > REPLAY_CACHE_LIMIT:
            self._replay_cache.popitem(last=False)

    @staticmethod
    def _deadline_expired(request) -> bool:
        """True when the client's ``X-Repro-Deadline`` already passed.

        The header carries absolute unix seconds (same-host clocks in
        the chaos harness; cross-host deployments accept the skew) so a
        request delayed past its sender's patience — e.g. held by an
        ``http.delay`` fault — is refused before it can burn a lease.
        """
        raw = request.headers.get("X-Repro-Deadline")
        if raw is None:
            return False
        try:
            return time.time() > float(raw)
        except (TypeError, ValueError):
            return False

    def _answer_post(self, request, path: str, rid: str):
        """Body parse (400), replay, deadline (408), ``traceparent``
        fill-in, then the route; only routed answers enter the replay
        cache."""
        try:
            body = self._read_json_body(request)
        except ValueError as error:
            return 400, {"error": f"bad request body: {error}"}
        replayed = self._replayed_response(request, path, rid)
        if replayed is not None:
            return replayed
        if self._deadline_expired(request):
            self.deadline_rejected += 1
            return 408, {"error": "client deadline exceeded before "
                                  "processing"}
        # Trace context rides both the payload ("trace") and the
        # W3C-style HTTP header; the header fills in when a client only
        # speaks traceparent.
        header = request.headers.get("traceparent")
        if path == "/jobs" and header is not None and "trace" not in body:
            body["trace"] = header
        outcome = self._routed("POST", path, body)
        self._remember_response(request, path, rid, *outcome[:2])
        return outcome

    def _post_job(self, body: dict):
        """Validate, dedupe, and enqueue one submission.

        ``run_id`` and ``trace`` in the body are routing fields, not
        part of the job's canonical form: they are peeled off before
        validation; ``run_id`` correlates the entry with the submitting
        run, ``trace`` carries the submitter's traceparent so every
        downstream hop joins the same distributed trace.
        """
        self.submits += 1
        run_id = body.pop("run_id", None)
        if run_id is not None:
            run_id = str(run_id)
        trace = body.pop("trace", None)
        context = TraceContext.from_header(trace)
        # Only a well-formed, sampled context is worth propagating.
        trace = trace if context is not None and context.sampled else None
        try:
            job = SimJob.from_canonical(body)
            # Resolve the benchmark now so an unknown name is a clean
            # 400 at submission, not a failed job on some worker later.
            from repro.workloads.profiles import profile_for
            profile_for(job.benchmark)
        except (KeyError, ValueError, TypeError) as error:
            self.submit_rejected += 1
            return 400, {"error": f"invalid job: {error}"}
        key = job.key
        if self.cache.load_key(key) is not None:
            # Warm path: the cell is already computed; nothing queues,
            # no worker wakes, the submit is answered from disk.
            self.submit_cache_hits += 1
            return 200, {"key": key, "state": "done", "cached": True}
        retry_after = {"Retry-After": SHED_RETRY_AFTER}
        entry = self.queue.get(key)
        # Done, yet the cache just missed: the result was evicted, so
        # the job runs again.
        rerun = entry is not None and entry.state == "done"
        if entry is None or rerun:
            # Only new or re-run entries add depth; duplicates and cache
            # hits are answered even while draining or full.
            if self.draining:
                self.shed_total += 1
                return 503, {"error": "server is draining",
                             "draining": True}, retry_after
            if self.max_depth is not None:
                counts = self.queue.counts()
                depth = counts["pending"] + counts["running"]
                if depth >= self.max_depth:
                    self.shed_total += 1
                    return 429, {"error": f"queue full (depth {depth} >= "
                                          f"max {self.max_depth})",
                                 "depth": depth}, retry_after
        try:
            if rerun:
                entry, created = self.queue.reopen(key)
            else:
                entry, created = self.queue.submit(
                    key, job.canonical(), run_id=run_id, trace=trace)
        except QueueReadOnly as error:
            self.shed_total += 1
            return 503, {"error": str(error), "read_only": True}, retry_after
        if not created:
            self.submit_duplicates += 1
        return (202 if created else 200), {
            "key": key,
            "state": entry.state,
            "cached": False,
            "created": created,
        }

    def _post_claim(self, body: dict):
        worker = str(body.get("worker") or "anonymous")
        if self.draining:
            # Drain mode: existing leases run to completion, but no new
            # work leaves the queue.  Workers see an idle queue and
            # wind down on their own ``max_idle``.
            return 200, {"job": None, "draining": True,
                         "depth": self.queue.counts()["pending"]}
        entry = self.queue.claim(worker)
        if entry is None:
            return 200, {"job": None,
                         "depth": self.queue.counts()["pending"]}
        document = {
            "job": entry.payload,
            "key": entry.key,
            "index": entry.index,
            "claims": entry.claims,
            "lease_seconds": self.queue.lease_seconds,
            "run_id": entry.run_id,
        }
        if entry.trace is not None:
            document["trace"] = entry.trace
        return 200, document

    def _post_spans(self, body: dict):
        """Ingest span records shipped by workers and clients."""
        records = body.get("spans")
        if not isinstance(records, list):
            return 400, {"error": "spans needs a 'spans' list"}
        accepted = self.spans.ingest(records[:MAX_SPANS_PER_POST])
        return 200, {"accepted": accepted,
                     "dropped": len(records) - accepted}

    def _post_complete(self, body: dict):
        key = body.get("key")
        result = body.get("result")
        if not isinstance(key, str) or not isinstance(result, dict):
            return 400, {"error": "complete needs 'key' and 'result'"}
        entry = self.queue.get(key)
        if entry is None:
            return 404, {"error": f"unknown job {key}"}
        try:
            job = SimJob.from_canonical(entry.payload)
            sim_result = SimResult.from_dict(result)
        except (KeyError, ValueError, TypeError) as error:
            return 400, {"error": f"invalid result payload: {error}"}
        elapsed = body.get("elapsed")
        # Cache first, then journal: if we die between the two the
        # restarted server finds the key cached and answers done anyway.
        # Both under the queue lock, so _job_status never sees one
        # without the other.
        with self.queue.lock:
            try:
                self.cache.store(job, sim_result, elapsed=elapsed)
            except OSError as error:
                # Full disk (real or injected): without the cached
                # result the completion has no durable half, so refuse
                # it — the worker retries, and past its budget the lease
                # expires and the job re-queues.  State stays consistent
                # either way.
                return 503, {"error": f"cache store failed: {error}"}, \
                    {"Retry-After": SHED_RETRY_AFTER}
            accepted = self.queue.complete(
                key, worker=body.get("worker"), elapsed=elapsed)
        return 200, {"key": key, "accepted": accepted, "state": "done"}

    def _post_fail(self, body: dict):
        key = body.get("key")
        if not isinstance(key, str):
            return 400, {"error": "fail needs 'key'"}
        if self.queue.get(key) is None:
            return 404, {"error": f"unknown job {key}"}
        accepted = self.queue.fail(
            key, reason=str(body.get("reason") or "worker reported failure"),
            worker=body.get("worker"))
        return 200, {"key": key, "accepted": accepted}

    def _post_heartbeat(self, body: dict):
        """Record a worker heartbeat and renew its job lease.

        The body is an :mod:`repro.obs.heartbeat` record plus ``key`` /
        ``worker`` routing fields.  It is rewritten server-side with the
        server's clock so staleness math never trusts a remote clock,
        then stored as ``heartbeats/hb-<index>.json`` — the exact
        channel HeartbeatMonitor, ``/metrics``, and ``repro top`` read.
        """
        key = body.get("key")
        renewed = False
        if isinstance(key, str):
            renewed = self.queue.renew(key, worker=body.get("worker"))
        record = {field: body[field] for field in HEARTBEAT_FIELDS
                  if body.get(field) is not None}
        record["ts"] = time.time()
        index = record.get("index", 0)
        directory = heartbeat_dir(self.data_dir)
        try:
            os.makedirs(directory, exist_ok=True)
            write_json_atomic(os.path.join(directory, f"hb-{index}.json"),
                              record)
        except OSError:
            pass  # a sick disk degrades observability, not scheduling
        return 200, {"renewed": renewed}

    # ------------------------------------------------------------------
    # Health and the route table.
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        document = super().healthz()
        document["role"] = "service"
        document["draining"] = self.draining
        document["read_only"] = self.queue.read_only
        if self.max_depth is not None:
            document["max_depth"] = self.max_depth
        return document

    #: The exporter's routes with the service's reads listed after
    #: ``/jobs``, then the job API and the worker protocol.
    ROUTES = (
        *TelemetryServer.ROUTES[:2],
        Route("GET", "/jobs/<key>", _job_status),
        Route("GET", "/queue", lambda s, _: (200, s.queue.snapshot())),
        Route("GET", "/cache/<key>", _cache_entry),
        Route("GET", "/spans", _spans_document),
        *TelemetryServer.ROUTES[2:],
        Route("POST", "/jobs", _post_job),
        Route("POST", "/claim", _post_claim),
        Route("POST", "/complete", _post_complete),
        Route("POST", "/fail", _post_fail),
        Route("POST", "/heartbeat", _post_heartbeat),
        Route("POST", "/spans", _post_spans),
    )

    # ------------------------------------------------------------------
    # /metrics: queue + sharded cache + spans between the exporter's
    # preamble and its heartbeat and registry families.
    # ------------------------------------------------------------------
    def _source_metrics(self, text: PrometheusText) -> None:
        self._queue_metrics(text)
        self._cache_metrics(text)
        self._span_metrics(text)

    def _queue_metrics(self, text: PrometheusText) -> None:
        snapshot = self.queue.snapshot()
        text.sample("service.queue_depth", "gauge", snapshot["depth"])
        text.sample("service.queue_oldest_pending_seconds", "gauge",
                    snapshot["oldest_pending_seconds"])
        for state, count in sorted(snapshot["counts"].items()):
            text.sample("service.jobs", "gauge", count, state=state)
        text.sample("service.queue_write_errors", "counter",
                    self.queue.write_errors)
        text.sample("service.submits", "counter", self.submits)
        text.sample("service.submit_cache_hits", "counter",
                    self.submit_cache_hits)
        text.sample("service.submit_duplicates", "counter",
                    self.submit_duplicates)
        text.sample("service.submit_rejected", "counter",
                    self.submit_rejected)
        text.sample("service.shed_total", "counter", self.shed_total)
        text.sample("service.request_replays", "counter",
                    self.request_replays)
        text.sample("service.deadline_rejected", "counter",
                    self.deadline_rejected)
        text.sample("service.draining", "gauge", self.draining)
        text.sample("service.read_only", "gauge", self.queue.read_only)
        requeues = sum(entry.get("requeues", 0)
                       for entry in snapshot["entries"])
        text.sample("service.requeues", "counter", requeues)
        # Queue-wait (submit -> claim) from journal-derived timestamps:
        # the latency gap between the submit counters and the worker
        # heartbeats.
        waits = []
        for entry in snapshot["entries"]:
            times = entry.get("times") or {}
            if "claimed" in times and "submitted" in times:
                waits.append(max(0.0, times["claimed"]
                                 - times["submitted"]))
        if waits:
            text.summary("service.queue_wait_seconds", Histogram.of(
                waits, buckets=LATENCY_BUCKETS).summary())

    def _span_metrics(self, text: PrometheusText) -> None:
        """``repro_service_span_seconds{stage=}``: per-stage latency
        summaries over every span this server recorded or ingested."""
        text.sample("service.spans", "counter", self.spans.recorded)
        text.sample("service.span_write_errors", "counter",
                    self.spans.write_errors)
        for stage in sorted(self._span_hist):
            text.summary("service.span_seconds",
                         self._span_hist[stage].summary(), stage=stage)

    def _cache_metrics(self, text: PrometheusText) -> None:
        stats = self.cache.stats
        for field in ("hits", "misses", "stores", "corrupt", "evicted",
                      "migrated", "remote_hits"):
            text.sample(f"cache.{field}", "counter", getattr(stats, field))
        text.sample("cache.hit_rate", "gauge", stats.hit_rate)
        text.sample("cache.shards", "gauge", self.cache.shards)
        for index in sorted(self.cache.shard_stats):
            shard = self.cache.shard_stats[index]
            labels = {"shard": f"{index:03d}"}
            for field in ("hits", "misses", "stores", "evicted"):
                text.sample(f"cache.shard_{field}", "counter",
                            getattr(shard, field), **labels)
