"""Journal-based checkpoint/resume for experiment runs.

Every telemetry-enabled run appends one line per job event to
``events.jsonl`` (the *journal*) — including, since manifest schema v3,
the full ``SimResult`` payload on ``done``/``hit``/``resumed`` lines —
and snapshots ``manifest.json`` on finalize (status ``complete``,
``partial``, ``failed``, or ``interrupted``).

:func:`load_resume_state` reads both back under the torn-line rule of
:mod:`repro._jsonfile` (a killed process leaves a torn final journal
line, which is skipped and counted), and produces a
:class:`ResumeState` the engine replays from: any job whose content
hash appears with a completed result is satisfied from the journal
without re-execution, everything else (pending cells, quarantined
failures, the job the run died inside) falls through to the normal
cache-then-execute path.  Because jobs are content-addressed, resuming
is safe across process boundaries, reordered job lists, and even
changed sweeps — only exact-match cells are replayed.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, Optional

from repro._jsonfile import parse_jsonl, read_json

#: Journal statuses that mean "this job has a final, correct result".
_COMPLETED = ("done", "hit", "resumed")


@dataclasses.dataclass
class ResumeState:
    """What a previous run already finished, keyed by job content hash."""

    directory: str
    #: job key -> SimResult payload (``to_dict`` form) where the journal
    #: carried one; a key may map to ``None`` for pre-v3 journals, in
    #: which case the result cache is the fallback.
    results: Dict[str, Optional[dict]] = dataclasses.field(
        default_factory=dict)
    #: job key -> failure reason for quarantined jobs (informational;
    #: failed jobs are always re-attempted on resume).
    failed: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: Status of the last finalized manifest in the directory, if any.
    manifest_status: Optional[str] = None
    #: Number of journal lines that could not be parsed (torn tail).
    torn_lines: int = 0

    @property
    def completed(self) -> int:
        return len(self.results)

    def result_payload(self, key: str) -> Optional[dict]:
        """The stored result payload for ``key``, or ``None``."""
        return self.results.get(key)

    def render(self) -> str:
        status = self.manifest_status or "no manifest (killed mid-run)"
        parts = [
            f"resume from {self.directory}: {self.completed} completed "
            f"job(s) in the journal, last manifest status: {status}",
        ]
        if self.failed:
            parts.append(
                f"{len(self.failed)} previously quarantined job(s) "
                f"will be re-attempted")
        if self.torn_lines:
            parts.append(
                f"{self.torn_lines} torn journal line(s) skipped")
        return "\n".join(parts)


def load_resume_state(directory: str) -> ResumeState:
    """Parse ``events.jsonl`` (+ ``manifest.json``) back into state.

    Raises ``FileNotFoundError`` when the directory has no journal —
    there is nothing to resume from.
    """
    directory = os.fspath(directory)
    events_path = os.path.join(directory, "events.jsonl")
    state = ResumeState(directory=directory)
    with open(events_path, encoding="utf-8") as handle:
        records, state.torn_lines = parse_jsonl(handle)
    for record in records:
        if record.get("event") != "job":
            continue
        key = record.get("key")
        if not key:
            continue  # ad-hoc Program jobs are not resumable
        status = record.get("status")
        if status in _COMPLETED:
            # Keep the richest payload seen for the key.
            payload = record.get("result")
            if payload is not None or key not in state.results:
                state.results[key] = payload
            state.failed.pop(key, None)
        elif status == "failed":
            state.failed[key] = record.get("reason") or "failed"

    manifest = read_json(os.path.join(directory, "manifest.json"))
    if manifest:
        state.manifest_status = manifest.get("status")
        # Manifest job records can carry payloads the journal lacks
        # (e.g. a pre-v3 journal finalized by a newer writer).
        for record in manifest.get("jobs", ()):
            key = record.get("key")
            if not key:
                continue
            if record.get("status") in ("executed", "hit", "resumed"):
                payload = record.get("result")
                if payload is not None or key not in state.results:
                    state.results[key] = payload
                state.failed.pop(key, None)
    return state
