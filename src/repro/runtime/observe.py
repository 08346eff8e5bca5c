"""Observability for the execution engine: per-job events and run reports.

The engine emits one :class:`JobEvent` per completed cell (cache hit,
pool/inline completion, or retry) to an optional progress callback, and
accumulates an :class:`EngineReport` per :meth:`ExperimentEngine.run`
call.  :func:`progress_printer` is the CLI's default callback: a live
``[ 3/18] gzip × FDRT  done  1.4s`` line per event on stderr, with
status colouring on interactive terminals only — when the stream is
not a TTY (CI logs, ``2> file`` redirects) every ANSI control sequence
is dropped and the output is plain text.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Callable, List, Optional, TextIO

from repro.core.result import SimResult
from repro.runtime.job import SimJob


@dataclasses.dataclass(frozen=True)
class JobEvent:
    """One progress notification from the engine."""

    index: int          #: position of the job in the submitted sequence
    total: int          #: total jobs in this run
    job: SimJob
    #: ``retry``, or a key of :data:`repro.obs.journal.FINISHES`:
    #: ``resumed`` = replayed from a journal checkpoint, ``failed`` =
    #: the job exhausted its retries and was quarantined.
    status: str
    elapsed: float      #: seconds spent on this attempt (0 for hits)
    completed: int      #: jobs finished so far (hits + executions)
    source: str         #: 'cache', 'inline', 'pool', 'journal', or
                        #: 'quarantine'
    #: The job's result for 'hit'/'done'/'resumed' events (None on
    #: 'retry'/'failed'), so telemetry can persist per-job metrics into
    #: the run manifest.
    result: Optional[SimResult] = None
    #: Failure reason for 'retry'/'failed' events.
    reason: Optional[str] = None


ProgressCallback = Callable[[JobEvent], None]


@dataclasses.dataclass
class EngineReport:
    """Aggregate statistics of one engine run."""

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    retried: int = 0
    #: Jobs replayed from a journal checkpoint (``--resume``).
    resumed: int = 0
    #: Jobs quarantined after exhausting their retry budget.
    failed: int = 0
    #: Structured quarantine records (``JobFailure.to_dict`` form).
    failures: List[dict] = dataclasses.field(default_factory=list)
    #: Total seconds slept in retry backoff.
    backoff_seconds: float = 0.0
    #: Wedged worker processes the watchdog had to terminate/kill.
    workers_reaped: int = 0
    #: Workers flagged by heartbeat staleness (silent past the budget).
    stale_workers: int = 0
    #: Telemetry writes that failed (the run continued, degraded).
    telemetry_write_errors: int = 0
    inline: bool = False
    workers: int = 1
    elapsed: float = 0.0
    #: Per-executed-job wall-clock seconds, in completion order,
    #: measured inside the worker (true execution time, no queueing).
    job_seconds: List[float] = dataclasses.field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    @property
    def mode(self) -> str:
        """Where the work actually ran: ``no jobs`` for an empty run,
        ``resumed`` when journal replay (plus cache) satisfied it,
        ``cache only`` when every job was a hit, ``inline`` when (any
        of) the jobs executed in this process, else the pool's worker
        count."""
        if not self.total:
            return "no jobs"
        if self.executed == 0:
            return "resumed" if self.resumed else "cache only"
        if self.inline:
            return "inline"
        return f"{self.workers} workers"

    def to_dict(self) -> dict:
        """JSON-serialisable form, including the derived rates."""
        data = dataclasses.asdict(self)
        data["hit_rate"] = self.hit_rate
        data["mode"] = self.mode
        return data

    def render(self) -> str:
        """One-paragraph human-readable summary."""
        mode = self.mode
        summary = (
            f"{self.total} jobs in {self.elapsed:.2f}s ({mode}): "
            f"{self.cache_hits} cache hits ({self.hit_rate:.0%}), "
            f"{self.executed} executed, {self.retried} retried"
        )
        if self.resumed:
            summary += f", {self.resumed} resumed from journal"
        if self.failed:
            summary += f", {self.failed} FAILED (quarantined)"
        lines = [summary]
        if self.job_seconds:
            stats = self.job_seconds_summary()
            lines.append(
                f"per-job time: mean {stats['mean']:.2f}s, "
                f"p50 {stats['p50']:.2f}s, p95 {stats['p95']:.2f}s, "
                f"p99 {stats['p99']:.2f}s, "
                f"max {max(self.job_seconds):.2f}s"
            )
        # Degradation the run survived must still be visible in the
        # terminal summary, not only in the manifest.
        if self.workers_reaped:
            lines.append(
                f"degraded: {self.workers_reaped} wedged worker(s) "
                f"force-reaped by the watchdog"
            )
        if self.stale_workers:
            lines.append(
                f"degraded: {self.stale_workers} worker(s) flagged by "
                f"stale heartbeats"
            )
        if self.telemetry_write_errors:
            lines.append(
                f"degraded: {self.telemetry_write_errors} telemetry "
                f"write error(s); events.jsonl/manifest may be incomplete"
            )
        for failure in self.failures:
            lines.append(
                f"  FAILED {failure['label']}: {failure['reason']} "
                f"({failure['attempts']} attempt(s))"
            )
        return "\n".join(lines)

    #: Bucket bounds (seconds) for the per-job wall-clock summary.
    JOB_SECONDS_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1, 2, 5, 10, 30,
                           60, 120, 300, 600)

    def job_seconds_summary(self) -> dict:
        """Count/sum/p50/p95/p99 of per-job wall-clock, via the shared
        :meth:`repro.obs.metrics.Histogram.summary` helper."""
        from repro.obs.metrics import Histogram

        return Histogram.of(
            self.job_seconds, buckets=self.JOB_SECONDS_BUCKETS,
        ).summary()


#: ANSI SGR codes per status, used only on interactive terminals.
_ANSI_RESET = "\x1b[0m"
_ANSI_STATUS = {
    "done": "\x1b[32m",      # green
    "hit": "\x1b[2m",        # dim
    "resumed": "\x1b[2m",    # dim
    "retry": "\x1b[33m",     # yellow
    "failed": "\x1b[31m",    # red
}


def stream_is_tty(stream) -> bool:
    """Whether ``stream`` is an interactive terminal (never raises)."""
    isatty = getattr(stream, "isatty", None)
    if isatty is None:
        return False
    try:
        return bool(isatty())
    except Exception:
        return False


def progress_printer(
    stream: Optional[TextIO] = None,
    ansi: Optional[bool] = None,
) -> ProgressCallback:
    """Build a callback that prints one live progress line per event.

    ``ansi=None`` (the default) auto-detects: colour codes are emitted
    only when the stream is a TTY, so CI logs and redirected output
    stay free of raw escape sequences.
    """
    out = stream if stream is not None else sys.stderr
    use_ansi = stream_is_tty(out) if ansi is None else ansi

    def _print(event: JobEvent) -> None:
        width = len(str(event.total))
        status = {"hit": "cached", "done": "done", "retry": "retry",
                  "resumed": "resumed", "failed": "FAILED"}.get(
            event.status, event.status)
        if event.status in ("hit", "resumed"):
            detail = ""
        elif event.status == "failed":
            detail = f"  {event.reason}" if event.reason else ""
        else:
            detail = f"  {event.elapsed:.1f}s"
        if use_ansi:
            color = _ANSI_STATUS.get(event.status)
            if color:
                status = f"{color}{status}{_ANSI_RESET}"
        out.write(
            f"[{event.completed:>{width}}/{event.total}] "
            f"{event.job.label:<36} {status}{detail}\n"
        )
        out.flush()

    return _print
