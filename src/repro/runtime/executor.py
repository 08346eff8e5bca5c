"""The scheduler: runs :class:`SimJob` batches, in parallel, through cache.

:class:`ExperimentEngine` is the one entry point.  For each submitted
job it first replays any journal checkpoint (``resume=``), then
consults the :class:`~repro.runtime.cache.ResultCache`; misses are
executed either inline (worker count 1, or when no process pool can be
created on this platform) or on a
:class:`concurrent.futures.ProcessPoolExecutor`.

Failure semantics (see ``docs/RESILIENCE.md``):

* an exception raised *by the simulation itself* is deterministic and
  propagates immediately — retrying cannot help;
* infrastructure failures — a worker process dying
  (:class:`BrokenProcessPool`), a per-job deadline expiring, or an
  injected :class:`~repro.resilience.InjectedFault` — are retried on a
  fresh pool with deterministic exponential backoff, up to ``retries``
  times per job; a job that exhausts its budget is *quarantined*:
  with ``keep_going=True`` it is recorded as ``failed`` in the report
  and manifest and the batch continues, otherwise
  :class:`JobFailedError` (carrying the structured failure list)
  aborts the batch;
* per-job deadlines are real: each job's clock starts when its future
  begins running, so a 60s timeout means 60s for every job, not 60s
  plus however long earlier jobs blocked the harvest loop;
* whenever a pool is abandoned (timeout, broken worker, interrupt) the
  :mod:`repro.resilience.watchdog` force-kills wedged workers instead
  of leaking them;
* SIGINT/SIGTERM during :meth:`ExperimentEngine.run` raise
  :class:`RunInterrupted` after flushing telemetry with a
  ``status: interrupted`` manifest that ``--resume`` accepts;
* if the pool cannot be created at all (or jobs cannot be pickled), the
  engine silently degrades to inline execution — results are identical,
  only slower.

Per-job wall-clock is measured *inside* the worker (``_run_job``
returns ``(result, elapsed)``), so reported times are true execution
times, not execution plus harvest-queue waiting.

Results are returned in submission order regardless of completion
order, so parallel runs are byte-identical to sequential ones.

With a telemetry directory configured (``telemetry=`` argument,
``--telemetry-dir``, or ``REPRO_TELEMETRY_DIR``) every run additionally
streams per-job events to ``events.jsonl`` and snapshots a
``manifest.json`` run manifest via
:class:`repro.obs.manifest.TelemetryWriter` — see
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
import signal
import sys
import tempfile
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple, Union

# Fork preload: pool workers inherit this process's modules, so import
# everything SimJob.run() reaches here, once, instead of in every fresh
# worker: the simulator and each strategy make_strategy() can build.
import repro.assign.fdrt  # noqa: F401
import repro.assign.friendly  # noqa: F401
import repro.assign.issue_time  # noqa: F401
import repro.assign.slot  # noqa: F401
import repro.assign.static_pc  # noqa: F401
import repro.core.simulator  # noqa: F401
from repro.core.result import SimResult
from repro.obs.heartbeat import (
    HeartbeatMonitor,
    HeartbeatWriter,
    clear_heartbeats,
    heartbeat_dir,
)
from repro.obs.journal import FINISHES
from repro.obs.manifest import TelemetryWriter, new_run_id
from repro.obs.spans import SpanRecorder, TraceContext
from repro.resilience.faults import FaultPlan, InjectedFault
from repro.resilience.resume import ResumeState, load_resume_state
from repro.resilience.watchdog import reap_executor
from repro.runtime.cache import ResultCache, flush_persistent_stats
from repro.runtime.job import SimJob
from repro.runtime.observe import EngineReport, JobEvent, ProgressCallback
from repro.runtime.settings import setting

#: Re-exported so tests (and exotic callers) can substitute the pool class.
ProcessPoolExecutor = concurrent.futures.ProcessPoolExecutor

#: Seam for tests: backoff sleeps go through this.
_sleep = time.sleep

#: How often the harvest loop polls for newly-running futures when a
#: per-job timeout is set (seconds).
_POLL_INTERVAL = 0.05

#: Exponential backoff is capped here so a long retry ladder cannot
#: stall a sweep for minutes.
_BACKOFF_CAP = 30.0

#: Minimum seconds between heartbeat-staleness sweeps of the telemetry
#: directory (each sweep is a directory listing plus small JSON reads).
_STALE_CHECK_INTERVAL = 0.5


@dataclasses.dataclass(frozen=True)
class JobFailure:
    """One quarantined job: which, why, and after how many attempts."""

    index: int
    job: SimJob
    reason: str
    attempts: int

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "label": self.job.label,
            "key": self.job.key if self.job.cacheable else None,
            "reason": self.reason,
            "attempts": self.attempts,
        }


class JobFailedError(RuntimeError):
    """Jobs kept failing on infrastructure errors after bounded retries.

    Carries the structured failure list so callers can report and
    re-run precisely: :attr:`failures` is a list of
    :class:`JobFailure`, :attr:`failed_jobs` the ``(index, job)``
    pairs.
    """

    def __init__(self, failures: Sequence[JobFailure]) -> None:
        self.failures: List[JobFailure] = list(failures)
        first = self.failures[0] if self.failures else None
        detail = (f"; first: {first.job.label} ({first.reason})"
                  if first else "")
        super().__init__(
            f"{len(self.failures)} job(s) still failing after bounded "
            f"retries{detail}"
        )

    @property
    def failed_jobs(self) -> List[Tuple[int, SimJob]]:
        return [(f.index, f.job) for f in self.failures]


class RunInterrupted(KeyboardInterrupt):
    """SIGINT/SIGTERM arrived mid-run; telemetry was flushed first.

    Subclasses :class:`KeyboardInterrupt` so generic ``except
    Exception`` recovery code never swallows a shutdown request.
    """

    def __init__(self, signum: Optional[int] = None) -> None:
        self.signum = signum
        name = signal.Signals(signum).name if signum else "signal"
        super().__init__(f"run interrupted by {name}")


def _run_job(
    job: SimJob,
    faults: Optional[FaultPlan] = None,
    index: Optional[int] = None,
    attempt: int = 0,
    origin_pid: Optional[int] = None,
    heartbeat_dir: Optional[str] = None,
    heartbeat_cycles: int = 0,
    profile: bool = False,
    run_id: Optional[str] = None,
) -> Tuple[SimResult, float]:
    """Module-level worker entry point (must be picklable by name).

    Returns ``(result, elapsed)`` with wall-clock measured around the
    simulation itself, so recorded per-job times never include pool
    queueing or harvest-order waiting.  ``origin_pid`` is the
    submitting process: only a genuinely separate worker process may
    hard-exit or sleep for injected faults — in-process execution
    raises the equivalent :class:`InjectedFault` instead.

    With ``heartbeat_dir`` set the worker beats its live progress (pid,
    job key, cycles, sim-IPC) into that directory every
    ``heartbeat_cycles`` simulated cycles; ``profile`` additionally
    attaches a :class:`~repro.obs.profiler.PhaseProfiler` whose
    per-phase wall-clock split rides along in each beat.  Both are
    read-only observers: the result is byte-identical either way.
    """
    hook = None
    writer = None
    profiler = None
    if heartbeat_dir is not None and heartbeat_cycles > 0:
        if profile:
            from repro.obs.profiler import PhaseProfiler

            profiler = PhaseProfiler(sample_cycles=0)
        writer = HeartbeatWriter(
            heartbeat_dir,
            index=index if index is not None else 0,
            key=job.key if job.cacheable else None,
            label=job.label,
            attempt=attempt,
            profiler=profiler,
            run_id=run_id,
        )
        hook = writer.beat
    # Faults fire *after* the claim beat: a worker that wedges mid-run
    # has already beaten at least once, so an injected hang must too —
    # that record going silent is exactly what staleness detection sees.
    if faults is not None:
        in_worker = origin_pid is not None and os.getpid() != origin_pid
        faults.maybe_fail_worker(index=index, attempt=attempt,
                                 in_worker=in_worker)
    t0 = time.perf_counter()
    result = job.run(progress_hook=hook,
                     progress_interval=heartbeat_cycles or 2_000,
                     profiler=profiler)
    elapsed = time.perf_counter() - t0
    if writer is not None:
        writer.final(result)
    return result, elapsed


class ExperimentEngine:
    """Parallel, cached, fault-tolerant executor for simulation batches."""

    def __init__(
        self,
        jobs: Union[int, str, None] = None,
        cache: Union[ResultCache, bool, None] = None,
        timeout: Optional[float] = None,
        retries: int = 2,
        progress: Optional[ProgressCallback] = None,
        telemetry: Union[TelemetryWriter, str, os.PathLike, None] = None,
        faults: Optional[FaultPlan] = None,
        keep_going: bool = False,
        backoff: Optional[float] = None,
        resume: Union[ResumeState, str, os.PathLike, None] = None,
        serve: Union[int, str, None] = None,
        heartbeat_cycles: Optional[int] = None,
        stale_after: Optional[float] = None,
    ) -> None:
        self.workers = setting("jobs", jobs)
        if isinstance(cache, ResultCache):
            self.cache = cache
        elif isinstance(cache, bool):
            self.cache = ResultCache(enabled=cache)
        else:
            self.cache = ResultCache()
        self.timeout = setting("timeout", timeout)
        self.retries = retries
        self.progress = progress
        if isinstance(telemetry, TelemetryWriter):
            self.telemetry: Optional[TelemetryWriter] = telemetry
        else:
            directory = setting("telemetry_dir", telemetry)
            self.telemetry = (
                TelemetryWriter(directory) if directory else None
            )
        self.faults = faults
        if faults is not None:
            # Arm the parent-side fault sites.
            self.cache.faults = faults
            if self.telemetry is not None:
                self.telemetry.faults = faults
        # Distributed tracing: with a telemetry directory (or
        # REPRO_TRACE_DIR) configured, every job gets a root
        # ``engine.job`` span and the cache's lookup/store spans nest
        # under it in ``spans.jsonl``.  Without one the recorder is
        # absent and the run path is byte-identical to pre-tracing.
        span_dir = setting("trace_dir") or (
            self.telemetry.directory if self.telemetry is not None else None)
        self.spans: Optional[SpanRecorder] = (
            SpanRecorder(directory=span_dir) if span_dir else None)
        if self.spans is not None:
            self.cache.tracer = self.spans
        self._job_contexts: Dict[int, TraceContext] = {}
        self._job_started: Dict[int, float] = {}
        self._job_keys: Dict[int, Optional[str]] = {}
        self.keep_going = keep_going
        self.backoff = setting("backoff", backoff)
        if resume is None or isinstance(resume, ResumeState):
            self.resume = resume
        else:
            self.resume = load_resume_state(resume)
        #: Report of the most recent :meth:`run` call.
        self.report = EngineReport()
        #: Correlation id of the most recent :meth:`run` call; stamped
        #: on the manifest, event lines, and heartbeat records.
        self.run_id: Optional[str] = None
        self._failures: List[JobFailure] = []
        # --- live observability (all optional, all read-only) -------------
        self.heartbeat_cycles = setting("heartbeat_cycles", heartbeat_cycles)
        self.stale_after = setting("stale_after", stale_after)
        self.server = None
        self._hb_tmp: Optional[str] = None
        self._monitor: Optional[HeartbeatMonitor] = None
        serve_port = setting("serve", serve)
        if serve_port is not None:
            self._start_server(serve_port)

    def _heartbeat_directory(self) -> Optional[str]:
        """Where workers beat, or ``None`` when heartbeats are off.

        Heartbeats ride in the run's telemetry directory when one is
        configured (so ``repro top DIR`` works with plain telemetry);
        with ``--serve`` but no telemetry they fall back to a private
        temp directory that only the exporter reads.
        """
        if self.heartbeat_cycles <= 0:
            return None
        if self.telemetry is not None:
            return heartbeat_dir(self.telemetry.directory)
        if self._hb_tmp is not None:
            return heartbeat_dir(self._hb_tmp)
        return None

    def _start_server(self, port: int) -> None:
        """Start the telemetry exporter; bind failure degrades, loudly.

        The exporter is an observer — a port collision (or a sandbox
        with no sockets) must never fail the science, so errors turn
        into a warning on stderr and ``self.server = None``.
        """
        from repro.obs.server import TelemetryServer

        if self.telemetry is None and self.heartbeat_cycles > 0:
            # No run directory to piggyback on: heartbeats go to a
            # private temp dir that only this exporter reads.
            self._hb_tmp = tempfile.mkdtemp(prefix="repro-heartbeats-")
        server = TelemetryServer(
            port=port,
            engine=self,
            telemetry_dir=self._hb_tmp,
            stale_after=self.stale_after,
        )
        try:
            server.start()
        except OSError as exc:
            print(f"repro: telemetry server disabled ({exc})",
                  file=sys.stderr)
            return
        self.server = server
        print(f"repro: telemetry server listening on {server.url}",
              file=sys.stderr)

    def close(self) -> None:
        """Stop the telemetry server (if any) and drop temp state."""
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self._hb_tmp is not None:
            import shutil

            shutil.rmtree(self._hb_tmp, ignore_errors=True)
            self._hb_tmp = None

    # ------------------------------------------------------------------
    # Public API

    def run(self, jobs: Sequence[SimJob]) -> List[Optional[SimResult]]:
        """Execute ``jobs``, returning results in submission order.

        With ``keep_going=True`` a quarantined job leaves ``None`` at
        its position and is listed in ``report.failures``; otherwise
        any quarantine raises :class:`JobFailedError`.
        """
        jobs = list(jobs)
        report = EngineReport(total=len(jobs), workers=self.workers)
        self.report = report
        self._failures = []
        self.run_id = new_run_id()
        if self.spans is not None:
            self.spans.run_id = self.run_id
        self._job_contexts = {}
        self._job_started = {}
        self._job_keys = {}
        if self.telemetry is not None:
            self.telemetry.start_run(jobs, run_id=self.run_id)
        self._monitor = None
        hb_dir = self._heartbeat_directory()
        if hb_dir is not None:
            # A previous run's last record (same index, same attempt)
            # would otherwise read as a worker gone stale before it beat.
            clear_heartbeats(hb_dir)
            self._monitor = HeartbeatMonitor(
                hb_dir, stale_after=self.stale_after)
        started = time.perf_counter()
        results: List[Optional[SimResult]] = [None] * len(jobs)
        previous_handlers = self._install_signals()
        status = "complete"
        try:
            pending: List[Tuple[int, SimJob]] = []
            for index, job in enumerate(jobs):
                context = self._trace_start(index)
                try:
                    replayed = self._replay(job)
                    if replayed is not None:
                        results[index] = replayed
                        report.resumed += 1
                        self._emit(report, index, job, "resumed", 0.0,
                                   "journal", result=replayed)
                        continue
                    cached = self.cache.load(job)
                    if cached is not None:
                        results[index] = cached
                        report.cache_hits += 1
                        self._emit(report, index, job, "hit", 0.0, "cache",
                                   result=cached)
                    else:
                        pending.append((index, job))
                finally:
                    if context is not None:
                        self.spans.pop()

            if pending:
                if self.workers <= 1 or len(pending) == 1:
                    self._run_inline(pending, results, report)
                else:
                    self._run_pool(pending, results, report)
        except KeyboardInterrupt:       # including RunInterrupted
            status = "interrupted"
            raise
        except JobFailedError:
            status = "failed"
            raise
        except BaseException:
            status = "error"
            raise
        else:
            status = "partial" if report.failed else "complete"
        finally:
            self._restore_signals(previous_handlers)
            flush_persistent_stats()
            report.elapsed = time.perf_counter() - started
            if self.telemetry is not None:
                report.telemetry_write_errors = self.telemetry.write_errors
                try:
                    self.telemetry.finalize(
                        report, cache_stats=self.cache.stats, status=status,
                    )
                except Exception:
                    # Telemetry trouble must never mask the run outcome.
                    pass
                # Pick up any errors finalize() itself just suffered.
                report.telemetry_write_errors = self.telemetry.write_errors
        return results

    # ------------------------------------------------------------------
    # Signal-safe shutdown

    def _install_signals(self):
        """Route SIGINT/SIGTERM into :class:`RunInterrupted`.

        Only possible from the main thread; elsewhere the engine runs
        with whatever disposition the host application chose.
        """
        if threading.current_thread() is not threading.main_thread():
            return None

        origin_pid = os.getpid()

        def handler(signum, frame):
            if os.getpid() != origin_pid:
                # Forked pool workers inherit this handler; when the
                # watchdog terminates them the interrupt belongs to the
                # worker, not the engine — die quietly with the
                # conventional fatal-signal status instead of raising
                # RunInterrupted inside the child.
                os._exit(128 + signum)
            raise RunInterrupted(signum)

        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, handler)
            except (ValueError, OSError, RuntimeError):
                pass
        return previous

    def _restore_signals(self, previous) -> None:
        for sig, old in (previous or {}).items():
            try:
                signal.signal(sig, old)
            except (ValueError, OSError, RuntimeError):
                pass

    # ------------------------------------------------------------------
    # Journal replay

    def _replay(self, job: SimJob) -> Optional[SimResult]:
        if self.resume is None or not job.cacheable:
            return None
        payload = self.resume.results.get(job.key)
        if payload is None:
            return None
        try:
            result = SimResult.from_dict(payload)
        except Exception:
            return None  # malformed journal payload: re-execute
        # Warm the cache so the *next* resume (or plain re-run) hits it
        # even if this run's journal is lost; a cell it already holds
        # is not stored again.
        if not self.cache.holds(job):
            self.cache.store(job, result)
        return result

    # ------------------------------------------------------------------
    # Inline path

    def _run_inline(self, pending, results, report,
                    attempts=None, reasons=None) -> None:
        report.inline = True
        if attempts is None:
            attempts = {index: 0 for index, _ in pending}
        if reasons is None:
            reasons = {}
        hb_dir = (self._monitor.directory
                  if self._monitor is not None else None)
        remaining = sorted(pending, key=lambda item: item[0])
        backoff_round = 0
        while remaining:
            failed: List[Tuple[int, SimJob]] = []
            for index, job in remaining:
                try:
                    result, elapsed = _run_job(
                        job, faults=self.faults, index=index,
                        attempt=attempts.get(index, 0),
                        heartbeat_dir=hb_dir,
                        heartbeat_cycles=self.heartbeat_cycles,
                        profile=self.server is not None,
                        run_id=self.run_id,
                    )
                except InjectedFault as fault:
                    reasons[index] = str(fault)
                    failed.append((index, job))
                    report.retried += 1
                    self._emit(report, index, job, "retry", 0.0, "inline",
                               reason=reasons[index])
                else:
                    self._complete(index, job, result, elapsed,
                                   results, report, "inline")
            remaining = self._next_round(failed, [], attempts, reasons,
                                         results, report)
            if remaining and failed:
                backoff_round += 1
                self._backoff(backoff_round, report)

    # ------------------------------------------------------------------
    # Pool path

    def _run_pool(self, pending, results, report) -> None:
        attempts: Dict[int, int] = {index: 0 for index, _ in pending}
        reasons: Dict[int, str] = {}
        remaining = list(pending)
        backoff_round = 0
        while remaining:
            pool = self._make_pool(len(remaining))
            if pool is None:
                self._run_inline(remaining, results, report,
                                 attempts=attempts, reasons=reasons)
                return
            hb_dir = (self._monitor.directory
                      if self._monitor is not None else None)
            try:
                futures = {}
                for index, job in remaining:
                    future = pool.submit(
                        _run_job, job, faults=self.faults, index=index,
                        attempt=attempts[index], origin_pid=os.getpid(),
                        heartbeat_dir=hb_dir,
                        heartbeat_cycles=self.heartbeat_cycles,
                        profile=self.server is not None,
                        run_id=self.run_id,
                    )
                    futures[future] = (index, job)
            except Exception:
                # Unpicklable job (ad-hoc Program with exotic payload):
                # the pool cannot help; degrade to inline.
                reap_executor(pool)
                self._run_inline(remaining, results, report,
                                 attempts=attempts, reasons=reasons)
                return
            except BaseException:
                # Interrupt mid-submission: reap before propagating.
                reap_executor(pool)
                raise

            clean = False
            try:
                failed, displaced, broken = self._harvest(
                    futures, results, report, reasons, attempts)
                clean = not (failed or displaced or broken)
            finally:
                if clean:
                    pool.shutdown(wait=False)
                else:
                    # Watchdog: never leak a wedged worker.
                    report.workers_reaped += reap_executor(pool)

            remaining = self._next_round(failed, displaced, attempts,
                                         reasons, results, report)
            if remaining and failed:
                backoff_round += 1
                self._backoff(backoff_round, report)

    def _harvest(self, futures, results, report, reasons, attempts=None):
        """Collect one round of pool futures with real per-job deadlines.

        A job's clock starts when its future is first observed running
        (checked every :data:`_POLL_INTERVAL`), so queued jobs are not
        charged for their predecessors.  A round with no progress for a
        full timeout window is declared wedged even if nothing ever
        reached the running state (a broken pool that accepts work but
        never schedules it).  With heartbeats and ``stale_after``
        active, workers whose heartbeat goes silent for longer than the
        budget are expired early — the monitor feeds the same
        cancel-and-reap path as a deadline, without waiting out the
        (much longer) per-job timeout.  Returns ``(failed, displaced,
        broken)``: ``failed`` jobs burned an attempt, ``displaced``
        jobs were cancelled before starting and retry for free,
        ``broken`` means the pool must be reaped.
        """
        failed: List[Tuple[int, SimJob]] = []
        displaced: List[Tuple[int, SimJob]] = []
        broken = False
        not_done = set(futures)
        started: Dict[object, float] = {}
        last_progress = time.monotonic()
        monitor = (self._monitor
                   if self._monitor is not None
                   and self._monitor.stale_after is not None else None)
        last_stale_check = time.monotonic()
        while not_done:
            if self.timeout is not None:
                now = time.monotonic()
                for future in not_done:
                    if future not in started and future.running():
                        started[future] = now
                        last_progress = now
            if self.timeout is not None:
                wait_for = min(_POLL_INTERVAL, self.timeout / 4)
            elif monitor is not None:
                wait_for = _POLL_INTERVAL
            else:
                wait_for = None
            done, not_done = concurrent.futures.wait(
                not_done, timeout=wait_for,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            for future in done:
                index, job = futures[future]
                try:
                    result, elapsed = future.result()
                except BrokenProcessPool:
                    broken = True
                    reasons[index] = "worker process died (BrokenProcessPool)"
                    failed.append((index, job))
                    report.retried += 1
                    self._emit(report, index, job, "retry", 0.0, "pool",
                               reason=reasons[index])
                except InjectedFault as fault:
                    reasons[index] = str(fault)
                    failed.append((index, job))
                    report.retried += 1
                    self._emit(report, index, job, "retry", 0.0, "pool",
                               reason=reasons[index])
                except concurrent.futures.CancelledError:
                    displaced.append((index, job))
                except Exception:
                    # The simulation itself raised: deterministic,
                    # retrying is pointless — propagate (the caller's
                    # finally reaps the pool).
                    raise
                else:
                    self._complete(index, job, result, elapsed,
                                   results, report, "pool")
            if done:
                last_progress = time.monotonic()
            if not not_done:
                continue
            now = time.monotonic()
            # future -> (reason, elapsed-for-the-event)
            expired: Dict[object, Tuple[str, float]] = {}
            if self.timeout is not None:
                timed_out = [future for future in not_done
                             if future in started
                             and now - started[future] >= self.timeout]
                if not timed_out and now - last_progress >= self.timeout:
                    timed_out = list(not_done)  # wedged before starting any
                for future in timed_out:
                    expired[future] = (
                        f"timed out after {self.timeout:g}s", self.timeout)
            if (monitor is not None and not expired
                    and now - last_stale_check >= _STALE_CHECK_INTERVAL):
                last_stale_check = now
                live = {}
                for future in not_done:
                    index, _ = futures[future]
                    live[index] = (attempts or {}).get(index, 0)
                by_index = {futures[future][0]: future
                            for future in not_done}
                for record in monitor.stale(live):
                    future = by_index.get(record.get("index"))
                    if future is None or future in expired:
                        continue
                    age = record.get("age", 0.0)
                    report.stale_workers += 1
                    expired[future] = (
                        f"worker heartbeat stale ({age:.1f}s silent, "
                        f"budget {monitor.stale_after:g}s)", age)
            if expired:
                broken = True
                for future, (reason, elapsed) in expired.items():
                    future.cancel()
                    index, job = futures[future]
                    reasons[index] = reason
                    failed.append((index, job))
                    report.retried += 1
                    self._emit(report, index, job, "retry", elapsed,
                               "pool", reason=reason)
                for future in not_done:
                    if future not in expired:
                        future.cancel()
                        displaced.append(futures[future])
                not_done = set()
        return failed, displaced, broken

    def _next_round(self, failed, displaced, attempts, reasons,
                    results, report):
        """Charge attempts, quarantine exhausted jobs, order the rest.

        ``failed`` arrives in completion order (a set-iteration
        artifact); everything downstream — quarantine records, the
        JobFailedError list, the next submission round — is sorted by
        index so chaos runs stay deterministic.
        """
        next_remaining: List[Tuple[int, SimJob]] = []
        quarantined: List[Tuple[int, SimJob]] = []
        for index, job in sorted(failed, key=lambda item: item[0]):
            attempts[index] = attempts.get(index, 0) + 1
            if attempts[index] > self.retries:
                quarantined.append((index, job))
            else:
                next_remaining.append((index, job))
        for index, job in quarantined:
            self._record_failure(
                index, job,
                reasons.get(index, "infrastructure failure"),
                attempts[index], report,
            )
        if quarantined and not self.keep_going:
            raise JobFailedError(self._failures)
        next_remaining.extend(displaced)
        next_remaining.sort(key=lambda item: item[0])
        return next_remaining

    def _record_failure(self, index, job, reason, attempts, report) -> None:
        failure = JobFailure(index=index, job=job, reason=reason,
                             attempts=attempts)
        self._failures.append(failure)
        report.failed += 1
        report.failures.append(failure.to_dict())
        self._emit(report, index, job, "failed", 0.0, "quarantine",
                   reason=reason)

    def _backoff(self, round_number: int, report) -> None:
        """Deterministically *jittered* exponential backoff between
        retry rounds.

        The jitter is a hash of ``(run_id, round)`` into ±25% — no
        wall-clock randomness, so chaos runs replay exactly (same
        run_id, same sleeps), yet concurrent engines retrying against
        one shared service don't stampede in lockstep.
        """
        if self.backoff <= 0:
            return
        from repro.resilience.retry import deterministic_jitter

        base = min(self.backoff * (2 ** (round_number - 1)), _BACKOFF_CAP)
        delay = deterministic_jitter(
            f"engine:{self.run_id or 'local'}", round_number, base)
        report.backoff_seconds += delay
        _sleep(delay)

    def _make_pool(self, pending_count: int):
        if self.faults is not None and self.faults.fires("pool.create"):
            return None
        try:
            return ProcessPoolExecutor(
                max_workers=min(self.workers, pending_count)
            )
        except Exception:
            # Platforms without working multiprocessing primitives
            # (e.g. no /dev/shm): fall back to inline execution.
            return None

    # ------------------------------------------------------------------
    # Bookkeeping

    def _trace_start(self, index: int) -> Optional[TraceContext]:
        """Mint (and push) a per-job root trace context, or ``None``.

        ``None`` either because tracing is off entirely or this trace
        lost the ``REPRO_TRACE_SAMPLE`` draw — downstream span code
        checks the dict and records nothing.
        """
        if self.spans is None:
            return None
        context = TraceContext.root()
        if not context.sampled:
            return None
        self._job_contexts[index] = context
        self._job_started[index] = time.time()
        self.spans.push(context)
        return context

    def _key(self, index: int, job: SimJob) -> Optional[str]:
        """``job``'s cache key (``None``: not cacheable), derived at most
        once per run; not kept on the job, whose config is mutable."""
        if index not in self._job_keys:
            self._job_keys[index] = job.key if job.cacheable else None
        return self._job_keys[index]

    def _trace_finish(self, index, job, status, elapsed, source) -> None:
        """Emit the root ``engine.job`` span for a job's terminal event."""
        if self.spans is None:
            return
        context = self._job_contexts.pop(index, None)
        if context is None:
            return
        end = time.time()
        start = self._job_started.pop(index, end - elapsed)
        attrs = {"label": job.label, "source": source,
                 "outcome": status, "index": index}
        key = self._key(index, job)
        if key is not None:
            attrs["key"] = key
        self.spans.emit(
            "engine.job", context, start, end, stage="engine",
            status="error" if status == "failed" else "ok", root=True,
            **attrs)

    def _complete(
        self, index, job, result, elapsed, results, report, source,
    ) -> None:
        context = (self._job_contexts.get(index)
                   if self.spans is not None else None)
        if context is not None:
            # Re-establish the job's ambient context (the pool path
            # stores from the harvest loop) so cache.store nests.
            self.spans.push(context)
        try:
            self.cache.store(job, result, elapsed=elapsed,
                             key=self._key(index, job))
        finally:
            if context is not None:
                self.spans.pop()
        results[index] = result
        report.executed += 1
        report.job_seconds.append(elapsed)
        self._emit(report, index, job, "done", elapsed, source,
                   result=result)

    def _emit(self, report, index, job, status, elapsed, source,
              result=None, reason=None) -> None:
        if status in FINISHES:
            self._trace_finish(index, job, status, elapsed, source)
        if self.progress is None and self.telemetry is None:
            return
        completed = (report.cache_hits + report.executed
                     + report.resumed + report.failed)
        event = JobEvent(
            index=index, total=report.total, job=job, status=status,
            elapsed=elapsed, completed=completed, source=source,
            result=result, reason=reason,
        )
        if self.telemetry is not None:
            self.telemetry.record(event)
        if self.progress is not None:
            self.progress(event)


def run_jobs(
    jobs: Sequence[SimJob],
    engine: Optional[ExperimentEngine] = None,
    **engine_options,
) -> List[Optional[SimResult]]:
    """Convenience wrapper: run ``jobs`` on ``engine`` (or a fresh one)."""
    engine = engine if engine is not None else ExperimentEngine(**engine_options)
    return engine.run(jobs)


def matrix_jobs(
    benchmarks: Sequence[Union[str, "object"]],
    specs: Sequence,
    config,
    instructions: int,
    warmup: int,
    seed: Optional[int] = None,
) -> "Dict[Tuple[str, str], SimJob]":
    """Build the benchmark-major job grid ``run_matrix`` executes."""
    grid = {}
    for benchmark in benchmarks:
        for spec in specs:
            name = benchmark if isinstance(benchmark, str) else benchmark.name
            grid[(name, spec.label)] = SimJob(
                benchmark=benchmark, spec=spec, config=config,
                instructions=instructions, warmup=warmup, seed=seed,
            )
    return grid
