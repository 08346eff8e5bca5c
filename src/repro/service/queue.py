"""Durable, lease-based job queue backing the simulation service.

The queue is the service's single source of scheduling truth: every
state transition — submit, claim, complete, fail, re-queue — appends one
JSON line to ``queue.jsonl`` in the service data directory, exactly the
journal-then-state discipline of the run telemetry's ``events.jsonl``
(see ``docs/OBSERVABILITY.md``).  A restarted server replays the journal
and resumes pending work; jobs that were *running* when the server died
are re-queued on replay, because their workers have nobody to report
completion to anymore.

Leases make the pull model crash-safe.  A claim hands the worker the
job plus a lease deadline; heartbeats renew the lease (renewals are
deliberately *not* journaled — they are high-rate and carry no
scheduling information a restart could use).  When a worker dies
mid-job, its lease expires and the next :meth:`JobQueue.expire` sweep —
run lazily on every claim and every ``/queue`` scrape, no background
thread — moves the job back to pending.  Completions are accepted from
any worker whenever the entry is not already done: results are
content-addressed, so a "late" completion from a presumed-dead worker
is identical to the re-queued one and harmless to accept.

Results do not live here.  ``complete`` records only that the job
finished and how long it took; the result document itself goes to the
sharded :class:`~repro.runtime.cache.ResultCache`, which is the durable
result store the ``GET /jobs/<key>`` endpoint reads.

A full disk degrades the queue instead of corrupting it.  Journal
appends are fsync'd; when one fails (real ``ENOSPC`` or an injected
``disk.full`` fault) the queue flips :attr:`read_only`: submissions
raise :class:`QueueReadOnly` (the server answers 503 + ``Retry-After``)
and claims return ``None`` after rolling their transition back, so no
state transition is ever acknowledged that a restart could not replay.
Completions and failures still apply in memory — their durable half is
the result cache, written *before* the journal line, so a restart
re-queues the entry, the next claim hits the worker's cache, and the
journal heals.  Every successful append clears :attr:`read_only`, so
recovery is automatic once the disk drains.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from typing import Dict, List, Optional

from repro._jsonfile import append_jsonl, read_jsonl

#: Bump on any change to the journal's record shapes.
QUEUE_SCHEMA_VERSION = 1

#: Seconds a claimed job may go without a heartbeat before its lease
#: expires and the job is re-queued.
DEFAULT_LEASE_SECONDS = 60.0

#: The states a queue entry moves through.
ENTRY_STATES = ("pending", "running", "done", "failed")


class QueueReadOnly(RuntimeError):
    """The journal cannot be written; mutations are refused for now."""


@dataclasses.dataclass
class QueueEntry:
    """One submitted job and its scheduling state."""

    key: str
    payload: dict
    index: int
    state: str = "pending"
    submitted: float = 0.0
    worker: Optional[str] = None
    lease_deadline: Optional[float] = None
    claims: int = 0
    requeues: int = 0
    elapsed: Optional[float] = None
    reason: Optional[str] = None
    #: Correlation id of the submitting run, echoed on every journal
    #: line for this entry so service records join to run manifests.
    run_id: Optional[str] = None
    #: The submitting client's traceparent header (distributed tracing);
    #: handed to the claiming worker so its spans join the same trace.
    trace: Optional[str] = None
    #: When the *current* claim was granted (journal ``claim`` ts).
    claimed: Optional[float] = None
    #: When the entry went terminal (journal ``complete``/``fail`` ts).
    finished: Optional[float] = None

    def reset(self, submitted: float) -> None:
        """Back to pending, as if submitted at ``submitted``.

        Keeps the key, payload, queue position, ids and counters; drops
        everything the finished run left behind.
        """
        self.state = "pending"
        self.submitted = submitted
        self.worker = None
        self.lease_deadline = None
        self.elapsed = None
        self.reason = None
        self.claimed = None
        self.finished = None

    def public(self, now: Optional[float] = None) -> dict:
        """The ``GET /jobs/<key>`` / ``GET /queue`` view of this entry."""
        now = time.time() if now is None else now
        record = {
            "key": self.key,
            "index": self.index,
            "state": self.state,
            "label": _payload_label(self.payload),
            "age_seconds": max(0.0, now - self.submitted),
            "claims": self.claims,
            "requeues": self.requeues,
        }
        if self.worker is not None:
            record["worker"] = self.worker
        if self.state == "running" and self.lease_deadline is not None:
            record["lease_remaining"] = self.lease_deadline - now
        if self.elapsed is not None:
            record["elapsed"] = self.elapsed
        if self.reason is not None:
            record["reason"] = self.reason
        if self.run_id is not None:
            record["run_id"] = self.run_id
        if self.trace is not None:
            record["trace"] = self.trace
        times = {"submitted": self.submitted}
        if self.claimed is not None:
            times["claimed"] = self.claimed
        if self.finished is not None:
            times["finished"] = self.finished
        record["times"] = times
        return record


def _payload_label(payload: dict) -> str:
    benchmark = payload.get("benchmark", "?")
    kind = (payload.get("spec") or {}).get("kind", "?")
    return f"{benchmark} × {kind}"


class JobQueue:
    """Journaled in-memory queue with lease-based claims.

    Thread-safe: the HTTP server handles each request on its own
    thread, so every public method takes the queue lock.  Persistence
    is append-only; the in-memory dict is always rebuilt from the
    journal at startup under the torn-line rule of
    :mod:`repro._jsonfile` (a server killed mid-append leaves a torn
    tail, which is skipped).
    """

    def __init__(self, directory: str,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 faults=None) -> None:
        self.directory = os.fspath(directory)
        self.lease_seconds = float(lease_seconds)
        self.journal_path = os.path.join(self.directory, "queue.jsonl")
        #: Guards every transition.  Re-entrant, so a caller can hold it
        #: across several calls that must look atomic to other threads
        #: (the server's completion and status paths).
        self.lock = threading.RLock()
        self._entries: Dict[str, QueueEntry] = {}
        self._order: List[str] = []  # submission order
        self.write_errors = 0
        #: Optional :class:`~repro.resilience.FaultPlan`; ``disk.full``
        #: specs with ``path="queue"`` fail the append at the matched
        #: ordinal, exactly like a real ``ENOSPC``.
        self.faults = faults
        #: True after a journal write failure; cleared by the next
        #: successful append.  While set, submissions are refused and
        #: claims roll back — see the module docstring.
        self.read_only = False
        self._appends = 0  # lifetime append ordinal (disk.full matching)
        #: Optional transition callback ``(event, entry)``, invoked
        #: fail-soft after claim/complete/fail/requeue journal writes —
        #: the service server reconstructs queue-phase spans here from
        #: the entry's journal-derived timestamps.
        self.observer = None
        os.makedirs(self.directory, exist_ok=True)
        self._replay()

    # ------------------------------------------------------------------
    # Journal.
    # ------------------------------------------------------------------
    def _append(self, event: str, key: str, **fields) -> bool:
        """Journal one line; True on success.  A failed append (real
        ``OSError`` or injected ``disk.full``) flips :attr:`read_only`;
        callers decide whether their transition must roll back."""
        for optional in ("run_id", "trace"):
            if fields.get(optional) is None:
                fields.pop(optional, None)
        record = {"event": event, "key": key, "ts": time.time(),
                  "schema": QUEUE_SCHEMA_VERSION}
        record.update(fields)
        ordinal = self._appends
        self._appends += 1
        try:
            if (self.faults is not None
                    and self.faults.fire("disk.full", index=ordinal,
                                         attempt=None,
                                         path="queue") is not None):
                raise OSError(28, "injected disk.full")  # ENOSPC
            append_jsonl(self.journal_path, record, fsync=True)
        except OSError:
            self.write_errors += 1
            self.read_only = True
            return False
        self.read_only = False
        return True

    def _replay(self) -> None:
        records, _ = read_jsonl(self.journal_path)
        for record in records:
            self._apply(record)
        # Jobs that were running when the server died: their workers
        # can no longer report back, so put them back in line.
        for key in list(self._order):
            entry = self._entries[key]
            if entry.state == "running":
                entry.state = "pending"
                entry.worker = None
                entry.lease_deadline = None
                entry.requeues += 1
                self._append("requeue", key, reason="server restart",
                             requeues=entry.requeues, run_id=entry.run_id)

    def _apply(self, record: dict) -> None:
        event = record.get("event")
        key = record.get("key")
        if not isinstance(key, str):
            return
        entry = self._entries.get(key)
        if event == "submit":
            if entry is not None:
                # A second submit line re-runs the job (see reopen()).
                entry.reset(record.get("ts", 0.0))
            else:
                payload = record.get("payload")
                if not isinstance(payload, dict):
                    return
                entry = QueueEntry(
                    key=key, payload=payload, index=len(self._order),
                    submitted=record.get("ts", 0.0),
                    run_id=record.get("run_id"),
                    trace=record.get("trace"),
                )
                self._entries[key] = entry
                self._order.append(key)
            return
        if entry is None:
            return  # transition for a job we never saw submitted
        if event == "claim":
            entry.state = "running"
            entry.worker = record.get("worker")
            entry.claims += 1
            entry.claimed = record.get("ts", 0.0)
            entry.lease_deadline = record.get("ts", 0.0) + self.lease_seconds
        elif event == "complete":
            if entry.state == "done":
                return  # duplicated complete line: first one wins
            entry.state = "done"
            entry.worker = record.get("worker", entry.worker)
            entry.elapsed = record.get("elapsed")
            entry.finished = record.get("ts")
            entry.lease_deadline = None
        elif event == "fail":
            if entry.state == "done":
                return  # a completed job cannot retroactively fail
            entry.state = "failed"
            entry.worker = record.get("worker", entry.worker)
            entry.reason = record.get("reason")
            entry.finished = record.get("ts")
            entry.lease_deadline = None
        elif event == "requeue":
            if entry.state in ("done", "failed"):
                return  # terminal states never re-enter the queue
            entry.state = "pending"
            entry.worker = None
            entry.lease_deadline = None
            entry.requeues = record.get("requeues", entry.requeues + 1)

    # ------------------------------------------------------------------
    # Transitions.
    # ------------------------------------------------------------------
    def submit(self, key: str, payload: dict,
               run_id: Optional[str] = None,
               trace: Optional[str] = None) -> tuple:
        """Enqueue a job; idempotent.  Returns ``(entry, created)``.

        A duplicate key — same cell submitted twice, by any client —
        returns the existing entry in whatever state it has reached, so
        concurrent identical sweeps coalesce onto one computation (a
        ``done`` entry whose result was evicted goes through
        :meth:`reopen` instead).
        ``run_id`` correlates the entry (and its journal lines) with
        the submitting run's manifest; ``trace`` is the submitter's
        traceparent header, journaled and handed to the claiming worker
        so every hop's spans join one trace.  A duplicate submission
        keeps the original entry's ids.
        """
        with self.lock:
            entry = self._entries.get(key)
            if entry is not None:
                return entry, False
            entry = QueueEntry(
                key=key, payload=payload, index=len(self._order),
                submitted=time.time(), run_id=run_id, trace=trace,
            )
            self._entries[key] = entry
            self._order.append(key)
            if not self._append("submit", key, payload=payload,
                                index=entry.index, run_id=entry.run_id,
                                trace=entry.trace):
                # Never acknowledge a submission a restart would lose:
                # roll the entry back and let the server shed the write.
                del self._entries[key]
                self._order.pop()
                raise QueueReadOnly(
                    "journal write failed; queue is read-only")
            return entry, True

    def reopen(self, key: str) -> tuple:
        """Put a ``done`` entry back to pending; ``(entry, reopened)``.

        For a job that is done but whose result the cache no longer
        holds (evicted): a plain :meth:`submit` would answer ``done``
        with no result, forever.  Journals a second ``submit`` line,
        which :meth:`_apply` replays as the same reset.  An entry that
        is not ``done`` (another submitter reopened it first) is
        returned as-is.
        """
        with self.lock:
            entry = self._entries[key]
            if entry.state != "done":
                return entry, False
            if not self._append("submit", key, payload=entry.payload,
                                index=entry.index, run_id=entry.run_id,
                                trace=entry.trace):
                raise QueueReadOnly(
                    "journal write failed; queue is read-only")
            entry.reset(time.time())
            return entry, True

    def _notify(self, event: str, entry: QueueEntry) -> None:
        """Tell the observer about a transition (never let it raise)."""
        if self.observer is None:
            return
        try:
            self.observer(event, entry)
        except Exception:
            pass  # observers are passengers, not schedulers

    def claim(self, worker: str) -> Optional[QueueEntry]:
        """Lease the oldest pending job to ``worker`` (``None`` if idle)."""
        with self.lock:
            self.expire()
            for key in self._order:
                entry = self._entries[key]
                if entry.state != "pending":
                    continue
                entry.state = "running"
                entry.worker = worker
                entry.claims += 1
                entry.claimed = time.time()
                entry.lease_deadline = entry.claimed + self.lease_seconds
                if not self._append("claim", key, worker=worker,
                                    claims=entry.claims,
                                    run_id=entry.run_id):
                    # Don't hand out new leases the journal can't see:
                    # roll back and answer "idle".  The worker polls
                    # again, and each poll re-probes the disk.
                    entry.state = "pending"
                    entry.worker = None
                    entry.claims -= 1
                    entry.claimed = None
                    entry.lease_deadline = None
                    return None
                self._notify("claim", entry)
                return entry
            return None

    def renew(self, key: str, worker: Optional[str] = None) -> bool:
        """Extend a running job's lease (heartbeat path; not journaled)."""
        with self.lock:
            entry = self._entries.get(key)
            if entry is None or entry.state != "running":
                return False
            if worker is not None and entry.worker != worker:
                return False
            entry.lease_deadline = time.time() + self.lease_seconds
            return True

    def complete(self, key: str, worker: Optional[str] = None,
                 elapsed: Optional[float] = None) -> bool:
        """Mark a job done.  Accepted whenever the entry is not done yet.

        Content-addressed results make completion idempotent and
        worker-agnostic: a late completion from a worker whose lease
        already expired carries the same bytes the re-queued execution
        would produce, so refusing it would only waste work.

        Applies even while :attr:`read_only` — the durable half of a
        completion is the result cache (written before the journal
        line), so the in-memory transition is safe: a restart re-queues
        the entry and the next claim is served from cache instantly.
        """
        with self.lock:
            entry = self._entries.get(key)
            if entry is None or entry.state == "done":
                return False
            entry.state = "done"
            entry.worker = worker or entry.worker
            entry.elapsed = elapsed
            entry.finished = time.time()
            entry.lease_deadline = None
            entry.reason = None
            self._append("complete", key, worker=entry.worker,
                         elapsed=elapsed, run_id=entry.run_id)
            self._notify("complete", entry)
            return True

    def fail(self, key: str, reason: str,
             worker: Optional[str] = None) -> bool:
        """Mark a job failed (deterministic simulation error)."""
        with self.lock:
            entry = self._entries.get(key)
            if entry is None or entry.state == "done":
                return False
            entry.state = "failed"
            entry.worker = worker or entry.worker
            entry.reason = reason
            entry.finished = time.time()
            entry.lease_deadline = None
            self._append("fail", key, worker=entry.worker, reason=reason,
                         run_id=entry.run_id)
            self._notify("fail", entry)
            return True

    def expire(self, now: Optional[float] = None) -> int:
        """Re-queue every running job whose lease has lapsed.

        Called lazily from :meth:`claim` and the ``/queue`` endpoint —
        the queue needs no background thread, it just needs traffic,
        and an idle queue has nothing to expire that matters.
        """
        now = time.time() if now is None else now
        expired = 0
        with self.lock:
            for key in self._order:
                entry = self._entries[key]
                if (entry.state == "running"
                        and entry.lease_deadline is not None
                        and entry.lease_deadline < now):
                    entry.state = "pending"
                    entry.worker = None
                    entry.lease_deadline = None
                    entry.requeues += 1
                    self._append("requeue", key, reason="lease expired",
                                 requeues=entry.requeues,
                                 run_id=entry.run_id)
                    self._notify("requeue", entry)
                    expired += 1
        return expired

    # ------------------------------------------------------------------
    # Views.
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[QueueEntry]:
        with self.lock:
            return self._entries.get(key)

    def counts(self) -> Dict[str, int]:
        with self.lock:
            counts = {state: 0 for state in ENTRY_STATES}
            for entry in self._entries.values():
                counts[entry.state] = counts.get(entry.state, 0) + 1
            return counts

    def snapshot(self) -> dict:
        """The ``GET /queue`` document: depth, ages, per-state counts."""
        with self.lock:
            self.expire()
            now = time.time()
            counts = self.counts()
            pending = [self._entries[key] for key in self._order
                       if self._entries[key].state == "pending"]
            oldest = max(
                (now - entry.submitted for entry in pending), default=0.0)
            return {
                "schema": QUEUE_SCHEMA_VERSION,
                "generated": now,
                "depth": counts["pending"] + counts["running"],
                "counts": counts,
                "oldest_pending_seconds": oldest,
                "lease_seconds": self.lease_seconds,
                "write_errors": self.write_errors,
                "read_only": self.read_only,
                "entries": [self._entries[key].public(now)
                            for key in self._order],
            }

    def __len__(self) -> int:
        with self.lock:
            return len(self._entries)
