"""Machine-readable run manifests for the experiment engine.

A :class:`TelemetryWriter` turns one engine run into auditable
artifacts under a telemetry directory:

``events.jsonl``
    Append-only structured event log: one ``run_start`` line, one line
    per job event (cache hit / journal replay / retry / completion /
    quarantine, with the job's content hash, wall-clock, and — schema
    v3 — the full result payload on completed lines), one ``run_end``
    line.  Successive runs append, so the file is the full history of
    the directory, and because completed lines carry results it doubles
    as the *journal* that ``repro sweep --resume`` replays
    (:mod:`repro.resilience.resume`).  Every reader folds it with
    :func:`repro.obs.journal.fold_journal`, through the same
    :func:`~repro.obs.journal.apply_job_event` rule this writer
    applies to its live job records.

``manifest.json``
    Snapshot of the *latest* run: run ``status`` (``complete``,
    ``partial``, ``failed``, ``interrupted``, or ``error``), engine
    report, cache counters, per-job records (key, label, benchmark,
    strategy, seed, budgets, final status, retries, failure reason,
    seconds, and the full ``SimResult`` in ``to_dict`` form), plus host
    info and the repository's git SHA when available.  Written under
    the atomic-replace rule of :mod:`repro._jsonfile`, so a crashed run
    never leaves a torn manifest.  Carrying results makes the manifest
    self-contained: ``repro analyze`` and ``repro diff`` consume it
    without re-running anything.

Telemetry must never take a run down: every write is guarded, and an
``OSError`` (full disk, revoked permissions, or an injected
``telemetry.write`` fault) degrades the writer — the failure is
counted in :attr:`TelemetryWriter.write_errors`, warned about once on
stderr, and the run continues.

The writer is deliberately decoupled from the engine: it only reads
attributes off the :class:`~repro.runtime.observe.JobEvent` and
:class:`~repro.runtime.observe.EngineReport` objects handed to it, so
this module imports nothing from :mod:`repro.runtime`.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
import uuid
from typing import List, Optional

from repro._jsonfile import append_jsonl, write_json_atomic
from repro.obs.journal import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    RUN_TOTALS,
    apply_job_event,
    job_record,
)

#: Manifest document schema; bump on incompatible layout changes.
#: v2: job records carry benchmark/strategy/seed/instruction budgets
#: and the full per-job result payload.
#: v3: the manifest carries a run ``status`` (complete / partial /
#: failed / interrupted / error), job records gain ``reason`` and the
#: ``resumed``/``failed`` statuses, and completed ``events.jsonl``
#: lines embed the full result payload (the resume journal).
#: v4: the manifest and every ``events.jsonl`` line carry the run's
#: ``run_id`` correlation id, and the manifest gains ``git_dirty``.
MANIFEST_SCHEMA_VERSION = 4


def host_info() -> dict:
    """Best-effort description of the executing host."""
    return {
        "hostname": platform.node(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
    }


def _git(*args: str, cwd: Optional[str] = None) -> Optional[str]:
    """Standard output of ``git *args`` in ``cwd``, or ``None`` when
    there is no repository or no git."""
    try:
        proc = subprocess.run(["git", *args], cwd=cwd or os.getcwd(),
                              capture_output=True, text=True, timeout=5)
    except Exception:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """HEAD commit of the repository containing ``cwd``, or ``None``."""
    return _git("rev-parse", "HEAD", cwd=cwd) or None


def git_dirty(cwd: Optional[str] = None) -> Optional[bool]:
    """Whether the repository containing ``cwd`` has uncommitted changes.

    ``None`` when there is no repository (or git is unavailable) — a
    run from outside version control is neither clean nor dirty, and
    the manifest records exactly that.
    """
    status = _git("status", "--porcelain", cwd=cwd)
    return None if status is None else bool(status)


def new_run_id() -> str:
    """A fresh run correlation id (16 hex chars, globally unique).

    One id is minted per engine run and stamped on the manifest, every
    ``events.jsonl`` line, every heartbeat record, and — for service
    submissions — the queue journal, so records from one run can be
    joined across files and hosts without guessing by mtime.
    """
    return uuid.uuid4().hex[:16]


def _job_identity(job) -> dict:
    """Duck-typed identity fields of a ``SimJob`` for the manifest.

    ``benchmark`` is a catalog name or an ad-hoc ``Program`` (use its
    ``name``); ``strategy`` is the spec's human label.  Everything is
    read with ``getattr`` so the writer stays decoupled from
    :mod:`repro.runtime`.
    """
    benchmark = getattr(job, "benchmark", None)
    if benchmark is not None and not isinstance(benchmark, str):
        benchmark = getattr(benchmark, "name", str(benchmark))
    spec = getattr(job, "spec", None)
    return {
        "benchmark": benchmark,
        "strategy": getattr(spec, "label", None) if spec is not None else None,
        "seed": getattr(job, "seed", None),
        "instructions": getattr(job, "instructions", None),
        "warmup": getattr(job, "warmup", None),
    }


class TelemetryWriter:
    """Streams engine events to JSONL and snapshots a run manifest."""

    def __init__(self, directory: str) -> None:
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.events_path = os.path.join(self.directory, JOURNAL_NAME)
        self.manifest_path = os.path.join(self.directory, MANIFEST_NAME)
        #: Optional :class:`repro.resilience.FaultPlan` arming the
        #: ``telemetry.write`` site (set by the engine for chaos runs).
        self.faults = None
        #: Writes that failed with OSError; telemetry degrades instead
        #: of taking the run down.
        self.write_errors = 0
        self._warned = False
        self._run = 0
        self._jobs: List[dict] = []
        self._started = 0.0
        #: Correlation id of the in-progress run (set by start_run).
        self.run_id: Optional[str] = None

    # ------------------------------------------------------------------
    # Engine-facing lifecycle.
    # ------------------------------------------------------------------
    def start_run(self, jobs, run_id: Optional[str] = None) -> None:
        """Begin a run over ``jobs`` (a sequence of ``SimJob``).

        ``run_id`` is the run's correlation id; one is minted when the
        caller does not supply its own.
        """
        self._run += 1
        self._started = time.time()
        self.run_id = run_id or new_run_id()
        self._jobs = [
            {**job_record(index, job.key if job.cacheable else None,
                          job.label), **_job_identity(job)}
            for index, job in enumerate(jobs)]
        self._append({
            "event": "run_start", "run": self._run,
            "ts": self._started, "jobs": len(self._jobs),
        })

    def jobs_snapshot(self) -> List[dict]:
        """Copy of the live per-job records (safe to serialise from
        another thread, e.g. the telemetry server's scrape handler)."""
        return [dict(record) for record in self._jobs]

    def run_info(self) -> dict:
        """Identity of the in-progress run (for live ``/runs`` views)."""
        return {
            "run": self._run,
            "run_id": self.run_id,
            "started": self._started,
            "jobs": len(self._jobs),
        }

    def record(self, event) -> None:
        """Log one :class:`JobEvent` and fold it into the job records."""
        result = getattr(event, "result", None)
        reason = getattr(event, "reason", None)
        payload = result.to_dict() if result is not None else None
        if 0 <= event.index < len(self._jobs):
            apply_job_event(self._jobs[event.index], event.status,
                            event.elapsed, reason, payload)
        line = {
            "event": "job", "run": self._run, "ts": time.time(),
            "index": event.index, "label": event.job.label,
            "key": event.job.key if event.job.cacheable else None,
            "status": event.status, "source": event.source,
            "elapsed": event.elapsed, "completed": event.completed,
            "total": event.total,
            "ipc": getattr(result, "ipc", None),
        }
        if reason is not None:
            line["reason"] = reason
        if payload is not None:
            # The journal: completed lines (the only events that carry
            # a result) are self-contained so `--resume` can replay them
            # even when the cache is cold or disabled and the run died
            # before any manifest was written.
            line["result"] = payload
        self._append(line)

    def finalize(self, report, cache_stats=None,
                 status: str = "complete") -> Optional[str]:
        """Close the run: append ``run_end`` and write the manifest.

        ``status`` records how the run ended (``complete``,
        ``partial``, ``failed``, ``interrupted``, or ``error``) — an
        ``interrupted`` manifest is exactly what ``--resume`` accepts.
        Returns the manifest path, or ``None`` when the write failed
        (telemetry degrades, it never raises out of a run).
        """
        self._append({
            "event": "run_end", "run": self._run, "ts": time.time(),
            "status": status,
            **{total: getattr(report, total, 0) for total in RUN_TOTALS},
        })
        manifest = {
            "schema": MANIFEST_SCHEMA_VERSION,
            "status": status,
            "run": self._run,
            "run_id": self.run_id,
            "created": self._started,
            "finished": time.time(),
            "host": host_info(),
            "git_sha": git_sha(),
            "git_dirty": git_dirty(),
            "engine": report.to_dict(),
            "jobs": self._jobs,
        }
        if cache_stats is not None:
            manifest["cache"] = cache_stats.to_dict()
        try:
            self._inject_write_fault()
            write_json_atomic(self.manifest_path, manifest, indent=2)
        except OSError as error:
            self._degrade(error)
            return None
        return self.manifest_path

    # ------------------------------------------------------------------
    # File plumbing.
    # ------------------------------------------------------------------
    def _inject_write_fault(self) -> None:
        if self.faults is not None and self.faults.fires("telemetry.write"):
            raise OSError("injected telemetry write failure")

    def _degrade(self, error: OSError) -> None:
        self.write_errors += 1
        if not self._warned:
            self._warned = True
            print(f"warning: telemetry write failed ({error}); "
                  f"run continues with degraded telemetry",
                  file=sys.stderr)

    def _append(self, record: dict) -> None:
        if self.run_id is not None:
            record.setdefault("run_id", self.run_id)
        try:
            self._inject_write_fault()
            append_jsonl(self.events_path, record)
        except OSError as error:
            self._degrade(error)


def manifest_path(path: str) -> str:
    """The run manifest ``path`` names: the ``manifest.json`` of a
    telemetry directory, or ``path`` itself when it is the file."""
    path = os.fspath(path)
    if os.path.isdir(path):
        return os.path.join(path, MANIFEST_NAME)
    return path


def load_manifest(path: str) -> dict:
    """Read a run manifest back from a telemetry directory or from the
    manifest file itself."""
    with open(manifest_path(path), encoding="utf-8") as handle:
        return json.load(handle)
