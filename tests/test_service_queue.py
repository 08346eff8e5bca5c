"""Tests of the durable lease-based job queue behind the service."""

import json
import os
import sys
import threading

import pytest

from repro.resilience import FaultPlan, FaultSpec
from repro.service.queue import JobQueue, QueueReadOnly


def payload(n: int = 0) -> dict:
    return {"benchmark": "gzip", "spec": {"kind": "base"},
            "instructions": 2_000 + n, "warmup": 1_000, "schema": 2}


def key(n: int = 0) -> str:
    return f"{n:064x}"


class TestSubmission:
    def test_submit_is_idempotent(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        first, created = queue.submit(key(1), payload(1))
        assert created and first.state == "pending"
        again, created_again = queue.submit(key(1), payload(1))
        assert not created_again and again is first
        assert len(queue) == 1

    def test_duplicate_after_completion_returns_done_entry(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        queue.submit(key(1), payload(1))
        queue.claim("w1")
        queue.complete(key(1), worker="w1", elapsed=0.2)
        entry, created = queue.submit(key(1), payload(1))
        assert not created and entry.state == "done"


    def test_reopen_reruns_a_done_entry_and_replays(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        queue.submit(key(1), payload(1), run_id="r1")
        queue.claim("w1")
        queue.complete(key(1), worker="w1", elapsed=0.2)
        entry, reopened = queue.reopen(key(1))
        assert reopened and entry.state == "pending"
        assert entry.worker is None and entry.elapsed is None
        assert entry.public()["times"] == {"submitted": entry.submitted}
        # A second reopen (a racing resubmission) changes nothing.
        assert queue.reopen(key(1)) == (entry, False)
        assert queue.claim("w2").key == key(1)
        queue.complete(key(1), worker="w2", elapsed=0.3)
        replayed = JobQueue(str(tmp_path)).get(key(1))
        assert replayed.state == "done"
        assert (replayed.worker, replayed.elapsed, replayed.claims) == \
            ("w2", 0.3, 2)
        assert replayed.run_id == "r1"

    def test_racing_reopens_rerun_once(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        queue.submit(key(1), payload(1))
        queue.claim("w1")
        queue.complete(key(1), worker="w1")
        outcomes = []
        threads = [threading.Thread(
            target=lambda: outcomes.append(queue.reopen(key(1))[1]))
            for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(outcomes) == [False] * 7 + [True]
        with open(queue.journal_path, encoding="utf-8") as handle:
            events = [json.loads(line)["event"] for line in handle]
        assert events.count("submit") == 2


class TestLeases:
    def test_claim_order_is_submission_order(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        for n in range(3):
            queue.submit(key(n), payload(n))
        claimed = [queue.claim("w").key for _ in range(3)]
        assert claimed == [key(0), key(1), key(2)]
        assert queue.claim("w") is None

    def test_expired_lease_requeues_exactly_once(self, tmp_path):
        queue = JobQueue(str(tmp_path), lease_seconds=0.01)
        queue.submit(key(1), payload(1))
        entry = queue.claim("w1")
        assert entry.state == "running" and entry.claims == 1
        assert queue.expire(now=entry.lease_deadline + 1) == 1
        assert entry.state == "pending" and entry.requeues == 1
        # A second sweep finds nothing left to expire.
        assert queue.expire() == 0
        reclaimed = queue.claim("w2")
        assert reclaimed.key == key(1) and reclaimed.claims == 2

    def test_renew_extends_lease_and_checks_worker(self, tmp_path):
        queue = JobQueue(str(tmp_path), lease_seconds=30)
        queue.submit(key(1), payload(1))
        entry = queue.claim("w1")
        before = entry.lease_deadline
        assert queue.renew(key(1), worker="w1")
        assert entry.lease_deadline >= before
        assert not queue.renew(key(1), worker="imposter")
        assert not queue.renew(key(9), worker="w1")

    def test_late_completion_from_expired_worker_is_accepted(self, tmp_path):
        queue = JobQueue(str(tmp_path), lease_seconds=0.01)
        queue.submit(key(1), payload(1))
        entry = queue.claim("w1")
        queue.expire(now=entry.lease_deadline + 1)
        # The zombie reports back after losing its lease: the result is
        # content-addressed, so taking it is both safe and efficient.
        assert queue.complete(key(1), worker="w1", elapsed=0.5)
        assert entry.state == "done"
        assert queue.claim("w2") is None

    def test_complete_is_idempotent(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        queue.submit(key(1), payload(1))
        queue.claim("w1")
        assert queue.complete(key(1), worker="w1")
        assert not queue.complete(key(1), worker="w2")

    def test_fail_records_reason(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        queue.submit(key(1), payload(1))
        queue.claim("w1")
        assert queue.fail(key(1), reason="KeyError: boom", worker="w1")
        assert queue.get(key(1)).state == "failed"
        assert queue.get(key(1)).reason == "KeyError: boom"


class TestDurability:
    def test_restart_resumes_pending_and_requeues_running(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        queue.submit(key(1), payload(1))
        queue.submit(key(2), payload(2))
        queue.submit(key(3), payload(3))
        queue.claim("w1")            # key(1) running
        queue.complete(key(1), worker="w1", elapsed=0.1)
        queue.claim("w1")            # key(2) running when we "die"

        revived = JobQueue(str(tmp_path))
        assert revived.get(key(1)).state == "done"
        entry2 = revived.get(key(2))
        assert entry2.state == "pending"      # re-queued on restart
        assert entry2.requeues == 1
        assert revived.get(key(3)).state == "pending"
        # The restart's requeue is itself journaled: a second restart
        # does not double-count it.
        again = JobQueue(str(tmp_path))
        assert again.get(key(2)).requeues == 1

    def test_replay_tolerates_torn_tail(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        queue.submit(key(1), payload(1))
        with open(queue.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "cla')  # server died mid-append
        revived = JobQueue(str(tmp_path))
        assert revived.get(key(1)).state == "pending"

    def test_replay_ignores_duplicate_complete_lines(self, tmp_path):
        # A retried /complete whose first acknowledgement was lost can
        # journal twice (pre-replay-cache servers did); the first line
        # must win and the duplicate must not disturb the entry.
        queue = JobQueue(str(tmp_path))
        queue.submit(key(1), payload(1))
        queue.claim("w1")
        queue.complete(key(1), worker="w1", elapsed=0.25)
        with open(queue.journal_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "event": "complete", "key": key(1), "worker": "w2",
                "elapsed": 9.9, "ts": 1.0, "schema": 1}) + "\n")
        revived = JobQueue(str(tmp_path))
        entry = revived.get(key(1))
        assert entry.state == "done"
        assert entry.worker == "w1"
        assert entry.elapsed == 0.25

    def test_replay_ignores_complete_for_unknown_key(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        queue.submit(key(1), payload(1))
        with open(queue.journal_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "event": "complete", "key": key(9), "worker": "w1",
                "ts": 1.0, "schema": 1}) + "\n")
        revived = JobQueue(str(tmp_path))
        assert revived.get(key(9)) is None
        assert revived.get(key(1)).state == "pending"
        assert len(revived) == 1

    def test_replay_tolerates_torn_tail_mid_claim(self, tmp_path):
        # Server SIGKILLed halfway through journaling a claim: the torn
        # line is skipped and the entry replays as pending — the claim
        # that never fully landed never happened.
        queue = JobQueue(str(tmp_path))
        queue.submit(key(1), payload(1))
        queue.submit(key(2), payload(2))
        queue.claim("w1")  # key(1) fully journaled as running
        with open(queue.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "claim", "key": "' + key(2)
                         + '", "wor')  # died mid-append
        revived = JobQueue(str(tmp_path))
        # key(1)'s claim replayed, then restart re-queued it; key(2)'s
        # torn claim is invisible.
        assert revived.get(key(1)).state == "pending"
        assert revived.get(key(1)).requeues == 1
        assert revived.get(key(2)).state == "pending"
        assert revived.get(key(2)).claims == 0

    def test_journal_records_are_json_lines(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        queue.submit(key(1), payload(1))
        queue.claim("w1")
        queue.complete(key(1), worker="w1", elapsed=0.3)
        with open(queue.journal_path, encoding="utf-8") as handle:
            events = [json.loads(line)["event"] for line in handle]
        assert events == ["submit", "claim", "complete"]


class TestReadOnlyDegradation:
    def plan(self, index):
        return FaultPlan([FaultSpec(site="disk.full", index=index,
                                    attempt=None, path="queue")])

    def test_failed_submit_append_rolls_back_and_raises(self, tmp_path):
        queue = JobQueue(str(tmp_path), faults=self.plan(index=1))
        queue.submit(key(1), payload(1))          # append 0: fine
        with pytest.raises(QueueReadOnly):
            queue.submit(key(2), payload(2))      # append 1: ENOSPC
        assert queue.read_only
        assert queue.get(key(2)) is None          # never acknowledged
        # The fault budget is spent: the retried submit lands and
        # clears read-only (automatic recovery).
        entry, created = queue.submit(key(2), payload(2))
        assert created and not queue.read_only
        revived = JobQueue(str(tmp_path))
        assert revived.get(key(2)).state == "pending"

    def test_failed_claim_append_rolls_back_lease(self, tmp_path):
        queue = JobQueue(str(tmp_path), faults=self.plan(index=1))
        queue.submit(key(1), payload(1))          # append 0
        assert queue.claim("w1") is None          # append 1: ENOSPC
        entry = queue.get(key(1))
        assert entry.state == "pending" and entry.claims == 0
        # Next poll re-probes the disk and succeeds.
        reclaimed = queue.claim("w1")
        assert reclaimed is not None and reclaimed.claims == 1

    def test_complete_applies_in_memory_despite_full_disk(self, tmp_path):
        # Completions are cache-first durable: the in-memory transition
        # sticks even when its journal line is lost, and a restart only
        # costs a re-queue that the worker's cache answers instantly.
        queue = JobQueue(str(tmp_path), faults=self.plan(index=2))
        queue.submit(key(1), payload(1))          # append 0
        queue.claim("w1")                         # append 1
        assert queue.complete(key(1), worker="w1")  # append 2: ENOSPC
        assert queue.get(key(1)).state == "done"
        assert queue.read_only
        assert queue.snapshot()["read_only"]


class TestSnapshot:
    def test_snapshot_reports_depth_age_and_counts(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        queue.submit(key(1), payload(1))
        queue.submit(key(2), payload(2))
        queue.claim("w1")
        snap = queue.snapshot()
        assert snap["depth"] == 2
        assert snap["counts"]["running"] == 1
        assert snap["counts"]["pending"] == 1
        assert snap["oldest_pending_seconds"] >= 0.0
        assert len(snap["entries"]) == 2
        labels = {entry["label"] for entry in snap["entries"]}
        assert labels == {"gzip × base"}

    def test_snapshot_expires_lapsed_leases(self, tmp_path):
        queue = JobQueue(str(tmp_path), lease_seconds=0.0)
        queue.submit(key(1), payload(1))
        queue.claim("w1")
        snap = queue.snapshot()  # lease_seconds=0 → lapsed immediately
        assert snap["counts"]["pending"] == 1
        assert snap["counts"]["running"] == 0


class TestRunIdThreading:
    def test_service_journal_carries_submission_run_id(self, tmp_path):
        queue = JobQueue(str(tmp_path / "svc"))
        queue.submit("k1", {"benchmark": "gzip"}, run_id="cafecafe")
        entry = queue.claim("worker-1")
        assert entry.run_id == "cafecafe"
        assert entry.public()["run_id"] == "cafecafe"
        queue.complete("k1", worker="worker-1", elapsed=0.5)
        with open(tmp_path / "svc" / "queue.jsonl",
                  encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert [r.get("run_id") for r in records] == ["cafecafe"] * 3
        # A journal replay reconstructs the correlation too.
        replayed = JobQueue(str(tmp_path / "svc"))
        assert replayed.get("k1").run_id == "cafecafe"
