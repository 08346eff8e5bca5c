"""The run journal (``events.jsonl``) read back.

:class:`~repro.obs.manifest.TelemetryWriter` folds each job event into
its live records with :func:`apply_job_event`; ``repro top``, ``/runs``,
``/jobs`` and ``--resume`` fold the file's lines by the same rule with
:func:`fold_journal`.  Stdlib-only, unlike the writer's module (which
imports ``subprocess``), so the service can read a directory.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, NamedTuple, Optional

from repro._jsonfile import read_jsonl
from repro.obs.heartbeat import is_job_index

#: File names of a telemetry directory's journal and run manifest.
JOURNAL_NAME = "events.jsonl"
MANIFEST_NAME = "manifest.json"

#: The journal's job-event statuses that finish a job, each mapped to
#: the record status it sets.  All but ``failed`` finish it with a
#: result.  The one other event status, ``retry``, finishes nothing.
FINISHES = {"hit": "hit", "done": "executed", "resumed": "resumed",
            "failed": "failed"}

#: Job-record statuses: ``pending`` until an event finishes the job.
JOB_STATES = ("pending", *FINISHES.values())

#: The totals a ``run_end`` line carries.
RUN_TOTALS = ("elapsed", "cache_hits", "executed", "retried", "resumed",
              "failed")


def job_record(index: int, key: Optional[str],
               label: Optional[str]) -> dict:
    """A job record before any event has reached it."""
    return {"index": index, "key": key, "label": label,
            "status": "pending", "retries": 0, "elapsed": 0.0,
            "result": None}


def apply_job_event(record: dict, status: str, elapsed: float = 0.0,
                    reason: Optional[str] = None,
                    result: Optional[dict] = None) -> None:
    """Fold one job event into its job record.

    ``retry`` counts up, and a finishing event sets the status
    :data:`FINISHES` maps it to.  ``done`` also records its ``elapsed``
    seconds and clears the reason; any other event keeps its reason
    (the engine gives one to every ``retry`` and ``failed``).
    ``result`` is the ``SimResult.to_dict`` payload, if any.
    """
    if status == "retry":
        record["retries"] += 1
    elif status in FINISHES:
        record["status"] = FINISHES[status]
    if status == "done":
        record["elapsed"] = elapsed
        record.pop("reason", None)
    elif reason:
        record["reason"] = reason
    if result is not None:
        record["result"] = result


class Journal(NamedTuple):
    """A folded journal: its runs, oldest first (``run``, ``run_id``,
    ``status``, from the ``run_start`` line ``started`` and ``jobs``,
    and from the ``run_end`` line ``finished`` and :data:`RUN_TOTALS`),
    the newest run's job records by index, and every run's job records,
    oldest run first."""

    runs: List[dict]
    jobs: Dict[int, dict]
    records: List[dict]


def fold_journal(lines: Iterable[dict]) -> Journal:
    """Fold parsed journal lines into runs and job records.

    A line belongs to the run its ``run_id`` names; only a line without
    one falls back to its ``run`` number.  A ``run_start`` line opens a
    run, and so does the first line of a run whose ``run_start`` is
    lost (a resumed run's first line glued onto a torn tail).  A job
    line folds into its own run's record of its index, or into a fresh
    record when that record belongs to another ``key``, so one job's
    events never land on another job's record.
    """
    runs: List[dict] = []
    by_run: Dict[object, dict] = {}
    run_jobs: Dict[object, Dict[int, dict]] = {}
    jobs: Dict[int, dict] = {}
    records: List[dict] = []
    for line in lines:
        event = line.get("event")
        run = line.get("run_id") or line.get("run")
        if event == "run_start" or run not in by_run:
            by_run[run] = {"run": line.get("run"),
                           "run_id": line.get("run_id")}
            if event == "run_start":
                by_run[run].update(started=line.get("ts"),
                                   jobs=line.get("jobs"))
            by_run[run]["status"] = "running"
            runs.append(by_run[run])
            jobs = run_jobs[run] = {}
        index = line.get("index")
        if event == "job" and is_job_index(index):
            record = run_jobs[run].get(index)
            if record is None or record["key"] != line.get("key"):
                record = run_jobs[run][index] = job_record(
                    index, line.get("key"), line.get("label"))
                records.append(record)
            apply_job_event(record, line.get("status"),
                            line.get("elapsed", 0.0), line.get("reason"),
                            line.get("result"))
        elif event == "run_end":
            by_run[run].update(finished=line.get("ts"),
                               status=line.get("status", "complete"))
            by_run[run].update((total, line.get(total))
                               for total in RUN_TOTALS)
    return Journal(runs, jobs, records)


def read_journal(telemetry_dir: str) -> Journal:
    """The folded journal of ``telemetry_dir``, read under the torn-line
    rule of :mod:`repro._jsonfile` (a missing journal is empty)."""
    lines, _ = read_jsonl(os.path.join(telemetry_dir, JOURNAL_NAME))
    return fold_journal(lines)


def jobs_document(records: List[dict], beats: Dict[int, dict]) -> dict:
    """The ``jobs`` and ``heartbeats`` of a ``/jobs`` document.

    Each record's ``result`` payload gives way to its ``ipc``,
    ``cycles`` and ``retired``, and a pending record carries its job's
    newest heartbeat.  ``records`` are changed in place.
    """
    for record in records:
        result = record.pop("result", None)
        if result is not None:
            if record.get("ipc") is None:
                record["ipc"] = result.get("ipc")
            record.setdefault("cycles", result.get("cycles"))
            record.setdefault("retired", result.get("retired"))
        beat = beats.get(record.get("index"))
        if beat is not None and record.get("status") == "pending":
            record["heartbeat"] = beat
    return {"jobs": records,
            "heartbeats": sorted(beats.values(), key=lambda b: b["index"])}
