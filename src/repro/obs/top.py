"""``repro top``: a live terminal view of a running sweep.

Renders a per-job table — status, attempt count, simulated cycles,
sim-IPC, throughput — refreshed in place, from either of the two live
channels the runtime exposes:

* a **telemetry directory**: the append-only journal
  (``events.jsonl``) provides job statuses as they happen and the
  ``heartbeats/`` channel provides in-flight worker progress
  (:mod:`repro.obs.heartbeat`);
* a **telemetry server URL** (``--serve``): the ``/jobs`` endpoint of
  :class:`repro.obs.server.TelemetryServer`, which serves the same
  document pre-merged.

No curses: the screen is repainted with plain ANSI control sequences,
and only when the output stream is a real TTY — piped output gets one
clean snapshot per refresh with no control characters, the same policy
as the engine's progress printer.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from typing import Dict, List, Optional

from repro._http import ServiceUnavailable, get_json
from repro.obs.heartbeat import HeartbeatMonitor, heartbeat_dir
from repro.obs.journal import (
    FINISHES,
    job_record,
    jobs_document,
    read_journal,
)
from repro.runtime.observe import stream_is_tty

#: Seconds between repaints unless overridden.
DEFAULT_INTERVAL = 1.0

#: IPC samples kept per job for the live trend sparkline.
TREND_POINTS = 10

#: Connection-retry schedule for URL sources: a refused or dropped
#: connection is retried this many times with exponential backoff
#: before `top` concludes the server is really gone.
URL_RETRIES = 4
URL_BACKOFF = 0.25

_ANSI_RESET = "\x1b[0m"
_ANSI_HOME_CLEAR = "\x1b[H\x1b[2J"
_ANSI_STATUS = {
    "executed": "\x1b[32m",   # green
    "hit": "\x1b[2m",         # dim
    "resumed": "\x1b[2m",
    "running": "\x1b[36m",    # cyan
    "stale": "\x1b[33m",      # yellow
    "failed": "\x1b[31m",     # red
}


# ----------------------------------------------------------------------
# Sources: URL (/jobs document) or telemetry directory (journal+beats).
# ----------------------------------------------------------------------
def fetch_url_state(url: str, timeout: float = 5.0) -> dict:
    """Fetch the ``/jobs`` document from a telemetry server; raises
    :class:`~repro._http.ServiceUnavailable` on an error status or a
    reply that is not a JSON object."""
    url = url.rstrip("/")
    if not url.endswith("/jobs"):
        url += "/jobs"
    document = get_json(url, timeout=timeout)
    document["source"] = url
    return document


def read_dir_state(directory: str,
                   stale_after: Optional[float] = None) -> dict:
    """Build the same document from a telemetry directory.

    The newest run of the folded journal
    (:func:`~repro.obs.journal.read_journal`), plus a row for every
    in-flight job whose heartbeat came before its first journal event,
    so ``top`` shows workers the moment they start.  Tolerates a missing
    or torn journal: an empty document means "no run here yet", not an
    error.
    """
    directory = os.fspath(directory)
    journal = read_journal(directory)
    beats = HeartbeatMonitor(heartbeat_dir(directory),
                             stale_after=stale_after).by_index()
    jobs = journal.jobs
    for index, beat in beats.items():
        if index not in jobs:
            jobs[index] = job_record(index, beat.get("key"),
                                     beat.get("label"))
            jobs[index]["retries"] = beat.get("attempt", 0)
    run = journal.runs[-1] if journal.runs else {}
    return {
        "source": directory,
        "run": run,
        "status": run.get("status", "waiting"),
        "total": run.get("jobs"),
        **jobs_document([jobs[index] for index in sorted(jobs)], beats),
    }


def load_state(source: str,
               stale_after: Optional[float] = None) -> dict:
    """Dispatch on the source kind: URL or telemetry directory."""
    if source.startswith(("http://", "https://")):
        return fetch_url_state(source)
    return read_dir_state(source, stale_after=stale_after)


# ----------------------------------------------------------------------
# Rendering.
# ----------------------------------------------------------------------
def _fmt_int(value) -> str:
    return "-" if value is None else f"{int(value):,}"


def _fmt_float(value, digits: int = 3) -> str:
    return "-" if value is None else f"{value:.{digits}f}"


def _job_row(job: dict) -> dict:
    """Flatten one job record (plus optional heartbeat) for the table."""
    status = job.get("status", "pending")
    beat = job.get("heartbeat")
    cycles, retired, ipc = (job.get(field)
                            for field in ("cycles", "retired", "ipc"))
    rate = age = interval_ipc = None
    elapsed = job.get("elapsed") or None
    if beat is not None:
        # Only a pending job carries a heartbeat, and no result yet.
        if status == "pending":
            status = "stale" if beat.get("stale") else "running"
        cycles, retired, ipc, age = (
            beat.get(field) for field in ("cycles", "retired", "ipc", "age"))
        # Windowed IPC from an attached interval recorder (the
        # ``interval`` heartbeat field): the *current* behaviour, vs
        # the cumulative ``ipc`` — preferred for the trend sparkline.
        interval = beat.get("interval")
        if isinstance(interval, dict) \
                and isinstance(interval.get("ipc"), (int, float)):
            interval_ipc = interval["ipc"]
        hb_elapsed = beat.get("elapsed") or 0.0
        if cycles and hb_elapsed > 0:
            rate = cycles / hb_elapsed
        elapsed = elapsed or hb_elapsed
    return {
        "index": job.get("index"),
        "status": status,
        "label": job.get("label") or "?",
        "retries": job.get("retries", 0),
        "cycles": cycles,
        "retired": retired,
        "ipc": ipc,
        "interval_ipc": interval_ipc,
        "rate": rate,
        "elapsed": elapsed,
        "age": age,
        "reason": job.get("reason"),
    }


def update_trends(document: dict,
                  trends: Dict[int, List[float]]) -> None:
    """Fold one snapshot's per-job IPC into the trend histories.

    Prefers the windowed IPC a worker's interval recorder put on the
    heartbeat (current behaviour) over the cumulative IPC; keeps the
    newest :data:`TREND_POINTS` samples per job index.
    """
    for job in document.get("jobs", []):
        row = _job_row(job)
        index = row["index"]
        if index is None:
            continue
        value = (row["interval_ipc"] if row["interval_ipc"] is not None
                 else row["ipc"])
        if value is None:
            continue
        series = trends.setdefault(index, [])
        series.append(float(value))
        del series[:-TREND_POINTS]


def render_state(document: dict, ansi: bool = False,
                 clock=time.strftime,
                 trends: Optional[Dict[int, List[float]]] = None) -> str:
    """Render the document as a header plus a per-job table.

    ``trends`` (job index → recent IPC samples, see
    :func:`update_trends`) adds a live per-worker IPC sparkline column.
    """
    jobs = [_job_row(job) for job in document.get("jobs", [])]
    total = document.get("total") or len(jobs)
    by_status = Counter(row["status"] for row in jobs)
    done = sum(by_status.get(status, 0) for status in FINISHES.values())
    hits = by_status.get("hit", 0)
    hit_rate = hits / done if done else 0.0
    retries = sum(row["retries"] for row in jobs)

    lines: List[str] = []
    status = document.get("status", "running")
    run = document.get("run")
    source = document.get("source", "")
    head = f"repro top — {source}"
    if run:
        head += f"  (run {run.get('run_id') or run.get('run')}, {status})"
    elif document.get("report") is not None:
        head += f"  ({status})" if status else ""
    lines.append(head)
    lines.append(
        f"jobs {done}/{total} done · executed {by_status.get('executed', 0)}"
        f" · hits {hits} ({hit_rate:.0%})"
        f" · resumed {by_status.get('resumed', 0)}"
        f" · failed {by_status.get('failed', 0)}"
        f" · retries {retries}"
        f" · {clock('%H:%M:%S')}"
    )
    cache = document.get("cache")
    if cache:
        lines.append(
            f"cache: hits {cache.get('hits', 0)}"
            f" misses {cache.get('misses', 0)}"
            f" stores {cache.get('stores', 0)}"
            f" hit-rate {cache.get('hit_rate', 0.0):.0%}"
        )
    lines.append("")
    from repro.analysis.charts import sparkline

    header = (f"{'#':>3}  {'status':<9} {'job':<36} {'try':>3} "
              f"{'cycles':>10} {'ipc':>7} {'trend':<{TREND_POINTS}} "
              f"{'kcyc/s':>8} {'time':>7} {'beat':>6}")
    lines.append(header)
    lines.append("-" * len(header))
    if not jobs:
        lines.append("(no run data yet)")
    for row in jobs:
        status_word = f"{row['status']:<9}"
        if ansi:
            color = _ANSI_STATUS.get(row["status"])
            if color:
                status_word = f"{color}{status_word}{_ANSI_RESET}"
        rate = (f"{row['rate'] / 1000:.1f}"
                if row["rate"] is not None else "-")
        elapsed = (f"{row['elapsed']:.1f}s"
                   if row["elapsed"] is not None else "-")
        age = f"{row['age']:.1f}s" if row["age"] is not None else "-"
        trend = sparkline((trends or {}).get(row["index"], ()))
        lines.append(
            f"{row['index'] if row['index'] is not None else '?':>3}  "
            f"{status_word} {row['label']:<36.36} {row['retries']:>3} "
            f"{_fmt_int(row['cycles']):>10} {_fmt_float(row['ipc']):>7} "
            f"{trend:<{TREND_POINTS}} {rate:>8} {elapsed:>7} {age:>6}"
        )
        if row["reason"]:
            lines.append(f"      ! {row['reason']}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# The loop.
# ----------------------------------------------------------------------
def run_top(
    source: str,
    stream=None,
    interval: float = DEFAULT_INTERVAL,
    once: bool = False,
    ansi: Optional[bool] = None,
    stale_after: Optional[float] = None,
    max_refreshes: Optional[int] = None,
    _sleep=time.sleep,
) -> int:
    """Tail ``source`` until its run finishes (or forever for ``--once=False``
    on an idle directory).  Returns a process exit code.

    ``ansi=None`` auto-detects: screen-repaint control sequences and
    colors only when ``stream`` is a TTY.  ``max_refreshes`` bounds the
    loop for tests.
    """
    import sys

    stream = stream if stream is not None else sys.stdout
    if ansi is None:
        ansi = stream_is_tty(stream)
    refreshes = 0
    trends: Dict[int, List[float]] = {}
    while True:
        # Only a URL source raises (the directory reader tolerates
        # missing and torn files).  A server mid-restart (or a network
        # blip) deserves a few retries before we conclude anything.
        document, delay = None, URL_BACKOFF
        for attempt in range(URL_RETRIES + 1):
            try:
                document = load_state(source, stale_after=stale_after)
                break
            except ServiceUnavailable as failure:
                error = failure
            if attempt < URL_RETRIES:
                _sleep(delay)
                delay *= 2
        if document is None:
            if refreshes:
                # We were watching a live run and the server went
                # away — the usual end of a `--serve` sweep, whose
                # server dies with the run.  That is a clean finish.
                print(f"repro top: lost contact with {source} "
                      f"({error}); assuming the run ended",
                      file=sys.stderr)
                return 0
            print(f"repro top: cannot connect to {source} ({error})",
                  file=sys.stderr)
            return 1
        update_trends(document, trends)
        rendered = render_state(document, ansi=ansi, trends=trends)
        if ansi:
            stream.write(_ANSI_HOME_CLEAR)
        stream.write(rendered)
        stream.flush()
        refreshes += 1
        status = document.get("status", "running")
        jobs = document.get("jobs", [])
        finished = bool(jobs) and all(
            job.get("status") in FINISHES.values() for job in jobs)
        if once:
            return 0
        if status not in ("running", "waiting") or finished:
            return 0
        if max_refreshes is not None and refreshes >= max_refreshes:
            return 0
        _sleep(interval)
