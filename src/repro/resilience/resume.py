"""Journal-based checkpoint/resume for experiment runs.

Every telemetry-enabled run appends one line per job event to
``events.jsonl`` (the *journal*) — including, since manifest schema v3,
the full ``SimResult`` payload on ``done``/``hit``/``resumed`` lines —
and snapshots ``manifest.json`` on finalize (status ``complete``,
``partial``, ``failed``, or ``interrupted``).

:func:`load_resume_state` folds the journal's job records
(:func:`repro.obs.journal.fold_journal`; a killed process leaves a
torn final line, which is skipped and counted) and reads the
manifest's after them into a :class:`ResumeState` the engine replays
from: any job whose content hash has a completed record is satisfied
from the journal without re-execution, everything else (pending cells,
quarantined failures, the job the run died inside) falls through to
the normal cache-then-execute path.  Because jobs are content-addressed,
resuming is safe across process boundaries, reordered job lists, and
even changed sweeps — only exact-match cells are replayed.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, Optional

from repro._jsonfile import parse_jsonl, read_json
from repro.obs.journal import (
    FINISHES,
    JOURNAL_NAME,
    MANIFEST_NAME,
    fold_journal,
)


@dataclasses.dataclass
class ResumeState:
    """What a previous run already finished, keyed by job content hash."""

    directory: str
    #: job key -> SimResult payload (``to_dict`` form) where the journal
    #: carried one; a key may map to ``None`` for pre-v3 journals, in
    #: which case the result cache is the fallback.
    results: Dict[str, Optional[dict]] = dataclasses.field(
        default_factory=dict)
    #: job key -> failure reason for quarantined jobs that have no
    #: result to replay (informational; they are always re-attempted).
    failed: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: Status of the last finalized manifest in the directory, if any.
    manifest_status: Optional[str] = None
    #: Number of journal lines that could not be parsed (torn tail).
    torn_lines: int = 0

    @property
    def completed(self) -> int:
        return len(self.results)

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
    state = ResumeState(directory=directory)
    with open(os.path.join(directory, JOURNAL_NAME),
              encoding="utf-8") as handle:
        lines, state.torn_lines = parse_jsonl(handle)
    records = fold_journal(lines).records
    manifest = read_json(os.path.join(directory, MANIFEST_NAME))
    if manifest:
        state.manifest_status = manifest.get("status")
        # Manifest job records can carry payloads the journal lacks
        # (e.g. a pre-v3 journal finalized by a newer writer).
        records += manifest.get("jobs", ())
    for record in records:
        key = record.get("key")
        if not key:
            continue  # ad-hoc Program jobs are not resumable
        status = record.get("status")
        if status == "failed":
            if key not in state.results:
                state.failed[key] = record.get("reason") or "failed"
        elif status in FINISHES.values():
            # Keep the richest payload seen for the key.
            payload = record.get("result")
            if payload is not None or key not in state.results:
                state.results[key] = payload
            state.failed.pop(key, None)
    return state
