"""Pull-based worker agent: claims, executes, heartbeats, completes.

``repro worker URL`` runs a :class:`WorkerAgent` loop against a
:class:`~repro.service.server.ServiceServer`:

1. ``POST /claim`` — lease the oldest pending job.  An idle queue is
   polled at ``poll_interval``; ``max_idle`` bounds how long an idle
   worker lingers (fleet scale-down), ``max_jobs`` bounds how many jobs
   one agent runs (CI smoke tests).
2. Check the *local* result cache — the service deduplicates at
   submission, but a cell can land in the cache between submit and
   claim, and serving it from disk beats re-simulating.
3. Execute via the exact :meth:`SimJob.run` path the
   :class:`~repro.runtime.executor.ExperimentEngine` uses, with a
   simulator progress hook that ``POST /heartbeat``s every
   ``heartbeat_cycles`` simulated cycles — the same cadence contract as
   :mod:`repro.obs.heartbeat`, carried over HTTP.  Each heartbeat
   renews the job's lease, so "alive" and "making progress" are the
   same signal.
4. ``POST /complete`` with the result document (or ``POST /fail`` when
   the simulation itself raises — a deterministic error no retry can
   fix).  Results are also stored in the worker's local cache.

Crash-safety falls out of the lease protocol, not worker cleverness: a
SIGKILL'd worker simply stops heartbeating, the server's next sweep
re-queues the job, and another claim re-executes it.  Because jobs are
content-addressed and simulations deterministic, the re-executed result
is byte-identical — a late completion from a zombie worker is
indistinguishable from the re-queued one.

Fault injection: arming ``worker.lease_expire`` in a
:class:`~repro.resilience.FaultPlan` makes the agent *abandon* a job
right after claiming it — no execution, no heartbeat, no completion —
which is exactly what a worker killed at the worst moment looks like to
the server.  The chaos suite uses it to prove the lease path re-queues
exactly once with an unchanged final result.

Connection trouble is never a traceback: claims retry with exponential
backoff, and a server that stays gone ends the loop with a clean
message (exit 0 if this agent ever did useful work, 1 if it could never
connect).

All protocol round trips go through a
:class:`~repro.service.transport.ServiceTransport`: retries reuse one
``X-Repro-Request-Id`` (so the server's replay cache absorbs duplicated
completions), backoff is deterministically jittered by worker name (no
thundering herd after ``server.crash``), per-endpoint circuit breakers
gate a flapping server, and claims carry the worker's deadline.
Heartbeats are fail-soft *for any reason* — an HTTP error, a torn
response, a local I/O failure — the simulation keeps running and the
lease-expiry path covers true worker death.
"""

from __future__ import annotations

import os
import socket
import sys
import time
from typing import Optional

from repro._http import REQUEST_TIMEOUT, ServiceUnavailable, json_round_trip
from repro.obs.heartbeat import heartbeat_record
from repro.obs.spans import SpanRecorder, TraceContext
from repro.runtime.cache import ResultCache, flush_persistent_stats
from repro.runtime.job import SimJob
from repro.runtime.settings import setting

#: Default seconds between claim polls when the queue is empty.
DEFAULT_POLL_INTERVAL = 1.0

#: Claim-connection retry schedule: attempts and backoff base seconds.
CONNECT_RETRIES = 4
CONNECT_BACKOFF = 0.25


class WorkerAgent:
    """One pull-based execution loop against a service URL."""

    def __init__(
        self,
        url: str,
        name: Optional[str] = None,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        max_jobs: Optional[int] = None,
        max_idle: Optional[float] = None,
        heartbeat_cycles: Optional[int] = None,
        interval_cycles: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        faults=None,
        stream=None,
        outage_grace: float = 0.0,
        _sleep=time.sleep,
    ) -> None:
        self.url = url.rstrip("/")
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.poll_interval = max(0.05, float(poll_interval))
        self.max_jobs = max_jobs
        self.max_idle = max_idle
        #: Seconds a *connected* worker keeps polling through a service
        #: outage before exiting.  0 keeps the historical behavior
        #: (exit cleanly on the first exhausted retry budget); the
        #: chaos soak raises it so workers ride out server restarts.
        self.outage_grace = max(0.0, float(outage_grace))
        # ``None`` reads $REPRO_HEARTBEAT_CYCLES, as pool workers do.
        self.heartbeat_cycles = setting("heartbeat_cycles",
                                        heartbeat_cycles)
        # Interval time series: > 0 attaches an IntervalRecorder to
        # every executed job and rides its freshest window on each
        # heartbeat (the `interval` field), which the service stores
        # and /metrics exports as repro_worker_interval_* gauges.
        self.interval_cycles = setting("interval_cycles", interval_cycles)
        # The worker's cache never goes remote: the service already
        # told us the key was a miss when it queued the job.
        self.cache = cache if cache is not None else ResultCache(remote=False)
        self.faults = faults
        self.stream = stream if stream is not None else sys.stderr
        self._sleep = _sleep
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_abandoned = 0
        self.cache_hits = 0
        self.heartbeats = 0
        self.heartbeat_errors = 0
        # Distributed tracing: spans buffer here and ship to the
        # service's POST /spans after each job (REPRO_TRACE_DIR adds a
        # local spans.jsonl).  The cache emits its lookup/store spans
        # through the same recorder whenever a trace context is active.
        self.spans = SpanRecorder(directory=setting("trace_dir"), keep=True)
        self.span_ship_errors = 0
        self.cache.tracer = self.spans
        # Every protocol round trip rides the hardened transport:
        # request-id-keyed idempotent retries, jittered backoff keyed
        # on this worker's name, per-endpoint circuit breakers.
        from repro.service.transport import ServiceTransport

        self.transport = ServiceTransport(
            self.url, name=self.name, retries=CONNECT_RETRIES,
            backoff=CONNECT_BACKOFF, _sleep=_sleep)

    def _say(self, message: str) -> None:
        print(f"worker {self.name}: {message}", file=self.stream)

    # ------------------------------------------------------------------
    def _claim(self) -> Optional[dict]:
        """One claim via the transport's retry/breaker/jitter stack;
        raises when the server stays unreachable through the whole
        budget.  The claim carries this worker's deadline so a claim
        delayed past our patience is refused server-side instead of
        burning a lease on a request we already gave up on."""
        return self.transport.post_json(
            "/claim", {"worker": self.name},
            deadline=time.time()
            + REQUEST_TIMEOUT * (CONNECT_RETRIES + 1) + 30.0)

    def run(self) -> int:
        """The claim/execute loop; returns a process exit code."""
        connected = False
        idle_since: Optional[float] = None
        outage_since: Optional[float] = None
        while True:
            if self.max_jobs is not None and self.jobs_done >= self.max_jobs:
                self._say(f"done: {self.jobs_done} job(s) executed")
                return 0
            claim_started = time.time()
            try:
                response = self._claim()
            except ServiceUnavailable as error:
                if connected and self.outage_grace > 0:
                    now = time.monotonic()
                    if outage_since is None:
                        outage_since = now
                        self._say(f"service unreachable ({error}); "
                                  f"retrying for up to "
                                  f"{self.outage_grace:.0f}s")
                    if now - outage_since < self.outage_grace:
                        self._sleep(self.poll_interval)
                        continue
                if connected:
                    self._say(f"service went away ({error}); exiting")
                    return 0
                self._say(f"cannot connect to {self.url} ({error})")
                return 1
            connected = True
            outage_since = None
            job_payload = response.get("job") if response else None
            if not job_payload:
                now = time.monotonic()
                idle_since = idle_since if idle_since is not None else now
                if (self.max_idle is not None
                        and now - idle_since >= self.max_idle):
                    self._say("queue idle; exiting")
                    return 0
                self._sleep(self.poll_interval)
                continue
            idle_since = None
            self._handle(response, claim_started=claim_started)

    # ------------------------------------------------------------------
    def _handle(self, claim: dict,
                claim_started: Optional[float] = None) -> None:
        key = claim.get("key")
        index = claim.get("index", 0)
        attempt = max(0, int(claim.get("claims", 1)) - 1)
        run_id = claim.get("run_id")
        try:
            job = SimJob.from_canonical(claim["job"])
        except (KeyError, ValueError, TypeError) as error:
            self._report_fail(key, f"undecodable job payload: {error}")
            return
        if key is not None and job.key != key:
            self._report_fail(
                key, f"key mismatch: payload hashes to {job.key}")
            return
        if (self.faults is not None
                and self.faults.fires("worker.lease_expire",
                                      index=index, attempt=attempt)):
            # Injected abandonment: hold the claim silently until the
            # lease lapses — to the server, a worker killed post-claim.
            # No spans either: a dead worker records nothing.
            self.jobs_abandoned += 1
            self._say(f"abandoning {job.label} (injected lease expiry)")
            return
        self._say(f"claimed {job.label} (attempt {attempt})")
        context = TraceContext.from_header(claim.get("trace"))
        if context is not None and not context.sampled:
            context = None
        claim_span = None
        if context is not None:
            # Lease-to-claim: from the claim POST leaving this process
            # to the moment execution actually starts.
            claim_span = self.spans.start(
                "worker.claim", context, stage="claim",
                worker=self.name, attempt=attempt, key=job.key,
                run_id=run_id)
            if claim_started is not None:
                claim_span.start = claim_started
            self.spans.push(context)
        try:
            self._execute(claim, job, key, index, attempt, run_id,
                          context, claim_span)
        finally:
            flush_persistent_stats()
            if context is not None:
                self.spans.pop()
                self._ship_spans()

    def _execute(self, claim, job, key, index, attempt, run_id,
                 context, claim_span) -> None:
        """Cache-check, run, store, report — span-annotated when traced."""
        cached = self.cache.load(job)
        if cached is not None:
            self.cache_hits += 1
            if claim_span is not None:
                self.spans.finish(claim_span, cache_hit=True)
            self._report_complete(job, cached.to_dict(), elapsed=0.0,
                                  context=context, run_id=run_id)
            return
        started = time.monotonic()
        profiler = None
        sim_span = None
        if context is not None:
            self.spans.finish(claim_span, cache_hit=False)
            # Totals-only profiler: the phase split rides along as
            # child spans of the simulate span (byte-identical result).
            from repro.obs.profiler import PhaseProfiler

            profiler = PhaseProfiler(sample_cycles=0)
            sim_span = self.spans.start(
                "worker.simulate", context, stage="simulate",
                worker=self.name, key=job.key, label=job.label,
                run_id=run_id)
        recorder = None
        if self.interval_cycles > 0:
            from repro.obs.timeseries import IntervalRecorder

            recorder = IntervalRecorder(
                interval_cycles=self.interval_cycles)
        hook = self._heartbeat_hook(job, index, attempt, started,
                                    run_id=run_id, recorder=recorder)
        try:
            result = job.run(
                progress_hook=hook if self.heartbeat_cycles else None,
                progress_interval=self.heartbeat_cycles or 2_000,
                profiler=profiler,
                recorder=recorder,
            )
        except Exception as error:
            # Deterministic simulation error: retrying on another
            # worker would fail identically, so tell the server.
            if sim_span is not None:
                self.spans.finish(sim_span, status="error",
                                  error=type(error).__name__)
            self._report_fail(key, f"{type(error).__name__}: {error}",
                              context=context, run_id=run_id)
            return
        elapsed = time.monotonic() - started
        if sim_span is not None:
            self.spans.finish(sim_span, ipc=result.ipc)
            self._phase_spans(context, sim_span, profiler, run_id)
        self.cache.store(job, result, elapsed=elapsed)
        self._report_complete(job, result.to_dict(), elapsed=elapsed,
                              context=context, run_id=run_id)

    def _phase_spans(self, context, sim_span, profiler, run_id) -> None:
        """The profiler's phase split as children of the simulate span,
        laid head-to-tail from its start (speedscope-style)."""
        from repro.obs.profiler import PHASES

        parent = TraceContext(context.trace_id, sim_span.span_id,
                              sampled=True)
        at = sim_span.start
        for phase in PHASES:
            seconds = profiler.seconds.get(phase, 0.0)
            if seconds <= 0.0:
                continue
            self.spans.emit(f"phase.{phase}", parent, at, at + seconds,
                            stage="phase", worker=self.name,
                            run_id=run_id)
            at += seconds

    def _ship_spans(self) -> None:
        """POST buffered spans to the service (best-effort)."""
        records = self.spans.drain()
        if not records:
            return
        try:
            json_round_trip(f"{self.url}/spans",
                            {"spans": records, "worker": self.name},
                            timeout=5.0)
        except ServiceUnavailable:
            self.span_ship_errors += 1

    def _heartbeat_hook(self, job: SimJob, index: int, attempt: int,
                        started: float, run_id=None, recorder=None):
        """A simulator progress hook posting heartbeats over HTTP."""
        def beat(pipeline) -> None:
            stats = pipeline.stats
            window = recorder.last_window() if recorder is not None else None
            record = heartbeat_record(
                index, job.key, job.label, attempt, self.heartbeats,
                stats.cycles, stats.retired, stats.ipc,
                time.monotonic() - started, worker=self.name,
                run_id=run_id, interval=window)
            try:
                status, _, reply = json_round_trip(
                    f"{self.url}/heartbeat", record, timeout=5.0)
            except Exception as error:
                problem = f"{type(error).__name__}: {error}"
            else:
                # A beat counts only when the server renewed the lease.
                if status < 400 and reply.get("renewed") is True:
                    self.heartbeats += 1
                    return
                problem = (f"HTTP {status}: "
                           f"{reply.get('error', 'lease not renewed')}")
            # Beats are best-effort: ANY failure — connection loss, torn
            # response, a lease the server did not renew, local I/O —
            # degrades liveness reporting, never the simulation.  Warn
            # once so logs show the degradation without a line per beat;
            # if this worker is truly dead, lease expiry re-queues the
            # job.
            if self.heartbeat_errors == 0:
                self._say(f"heartbeat failed ({problem}); "
                          "continuing without heartbeats")
            self.heartbeat_errors += 1
        return beat

    def _report_complete(self, job: SimJob, result: dict,
                         elapsed: float, context=None,
                         run_id=None) -> None:
        span = None
        if context is not None:
            span = self.spans.start("worker.report", context,
                                    stage="report", worker=self.name,
                                    key=job.key, run_id=run_id)
        try:
            # Transport retries reuse one request id, so a completion
            # whose acknowledgement was lost (http.drop_response) is
            # replayed server-side, not applied twice.
            self.transport.post_json("/complete", {
                "key": job.key,
                "worker": self.name,
                "result": result,
                "elapsed": elapsed,
            })
            self.jobs_done += 1
            if span is not None:
                self.spans.finish(span)
            self._say(f"completed {job.label} in {elapsed:.2f}s")
        except ServiceUnavailable as error:
            # The lease will expire and the job re-queue; our local
            # cache keeps the work so the re-execution is instant here.
            if span is not None:
                self.spans.finish(span, status="error")
            self._say(f"could not report completion ({error})")

    def _report_fail(self, key, reason: str, context=None,
                     run_id=None) -> None:
        self.jobs_failed += 1
        self._say(f"job failed: {reason}")
        if key is None:
            return
        span = None
        if context is not None:
            span = self.spans.start("worker.report", context,
                                    stage="report", worker=self.name,
                                    key=key, run_id=run_id)
        try:
            self.transport.post_json("/fail", {
                "key": key, "worker": self.name, "reason": reason,
            })
            if span is not None:
                self.spans.finish(span)
        except ServiceUnavailable:
            if span is not None:
                self.spans.finish(span, status="error")
