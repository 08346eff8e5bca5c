"""End-to-end service tests: the ISSUE 6 acceptance scenarios.

* submit → remote worker executes → cached result served, byte-identical
  to a local ``run_jobs`` run;
* a second identical submission is a pure cache hit: nothing queues and
  a worker finds nothing to execute;
* a worker SIGKILL'd mid-job loses nothing — the lease expires, the job
  re-queues, and the run completes with an unchanged result;
* the ``worker.lease_expire`` chaos site proves an expired lease
  re-queues the job exactly once.

Every scenario uses disjoint cache roots for the service, the worker,
and the local comparison run, so "byte-identical" is a statement about
the computation, never about shared files.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.assign.base import StrategySpec
from repro.cluster.config import MachineConfig
from repro.resilience import FaultPlan
from repro.resilience.faults import FaultSpec
from repro.runtime import ExperimentEngine, ResultCache, SimJob
from repro.service import (
    ServiceServer,
    WorkerAgent,
    fetch_results,
    submit_jobs,
)


pytestmark = pytest.mark.usefixtures("isolated_runtime")


def make_jobs(instructions=2_000, warmup=1_000, seed=None):
    return [
        SimJob("gzip", StrategySpec(kind=kind), MachineConfig(),
               instructions=instructions, warmup=warmup, seed=seed)
        for kind in ("base", "fdrt")
    ]


def canonical_bytes(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def run_locally(jobs, tmp_path):
    """The ground truth: the same cells through the local engine."""
    engine = ExperimentEngine(
        jobs=1, cache=ResultCache(root=str(tmp_path / "local-cache"),
                                  remote=False))
    try:
        return engine.run(jobs)
    finally:
        engine.close()


@pytest.fixture
def server(tmp_path):
    service = ServiceServer(
        str(tmp_path / "data"),
        cache=ResultCache(root=str(tmp_path / "service-cache"),
                          remote=False),
        lease_seconds=30,
    )
    service.start()
    yield service
    service.stop()


class TestRemoteExecution:
    def test_remote_results_are_byte_identical_to_local(self, server,
                                                        tmp_path):
        jobs = make_jobs()
        states = submit_jobs(server.url, jobs)
        assert set(states.values()) == {"pending"}

        worker = WorkerAgent(
            server.url, name="e2e-worker", poll_interval=0.05,
            max_jobs=len(jobs), heartbeat_cycles=500,
            cache=ResultCache(root=str(tmp_path / "worker-cache"),
                              remote=False),
        )
        assert worker.run() == 0
        assert worker.jobs_done == len(jobs)
        assert worker.heartbeats > 0  # leases were renewed over HTTP

        remote = fetch_results(server.url, jobs, timeout=30,
                               poll_interval=0.05)
        local = run_locally(jobs, tmp_path)
        for remote_result, local_result in zip(remote, local):
            assert canonical_bytes(remote_result) == canonical_bytes(
                local_result)

    def test_heartbeat_cycles_default_to_the_environment(
            self, server, tmp_path, monkeypatch):
        """Without ``heartbeat_cycles`` the worker reads
        ``REPRO_HEARTBEAT_CYCLES``, as the engine's pool workers do:
        ``0`` runs a job without a single beat."""
        monkeypatch.setenv("REPRO_HEARTBEAT_CYCLES", "0")
        jobs = make_jobs()[:1]
        submit_jobs(server.url, jobs)
        worker = WorkerAgent(
            server.url, poll_interval=0.05, max_jobs=1,
            cache=ResultCache(root=str(tmp_path / "worker-cache"),
                              remote=False))
        assert worker.heartbeat_cycles == 0
        assert worker.run() == 0
        assert worker.jobs_done == 1
        assert worker.heartbeats == 0

    def test_warm_resubmission_executes_zero_jobs(self, server, tmp_path):
        jobs = make_jobs()
        submit_jobs(server.url, jobs)
        WorkerAgent(server.url, poll_interval=0.05, max_jobs=len(jobs),
                    heartbeat_cycles=0,
                    cache=ResultCache(root=str(tmp_path / "worker-cache"),
                                      remote=False)).run()
        first = fetch_results(server.url, jobs, timeout=30,
                              poll_interval=0.05)

        # Second identical submission: answered entirely from cache.
        queued_before = len(server.queue)
        states = submit_jobs(server.url, jobs)
        assert set(states.values()) == {"done"}
        assert server.submit_cache_hits == len(jobs)
        assert len(server.queue) == queued_before  # nothing new queued

        # A fresh worker finds an empty queue — zero simulations run.
        idle_worker = WorkerAgent(
            server.url, poll_interval=0.05, max_idle=0.2,
            cache=ResultCache(root=str(tmp_path / "worker2-cache"),
                              remote=False))
        assert idle_worker.run() == 0
        assert idle_worker.jobs_done == 0

        second = fetch_results(server.url, jobs, timeout=5,
                               poll_interval=0.05)
        for a, b in zip(first, second):
            assert canonical_bytes(a) == canonical_bytes(b)


class TestRemoteCacheTier:
    def test_fresh_cache_reads_a_served_job_as_a_remote_hit(self, server,
                                                            tmp_path):
        job, unknown = make_jobs()
        submit_jobs(server.url, [job])
        WorkerAgent(server.url, poll_interval=0.05, max_jobs=1,
                    heartbeat_cycles=0,
                    cache=ResultCache(root=str(tmp_path / "worker-cache"),
                                      remote=False)).run()
        served, = fetch_results(server.url, [job], timeout=30,
                                poll_interval=0.05)

        cache = ResultCache(root=str(tmp_path / "fresh-cache"),
                            remote=server.url)
        hit = cache.load(job)
        assert canonical_bytes(hit) == canonical_bytes(served)
        assert cache.stats.remote_hits == 1
        assert cache.stats.stores == 1
        assert os.path.isfile(cache.path_for(job))   # copied to its shard

        assert cache.load(unknown) is None
        assert cache.stats.misses == 1
        assert cache.stats.remote_errors == 0


class TestLeaseRecovery:
    def test_lease_expire_fault_requeues_exactly_once(self, tmp_path):
        service = ServiceServer(
            str(tmp_path / "data"),
            cache=ResultCache(root=str(tmp_path / "service-cache"),
                              remote=False),
            lease_seconds=0.2,
        )
        service.start()
        try:
            jobs = make_jobs()[:1]
            submit_jobs(service.url, jobs)
            faults = FaultPlan(
                [FaultSpec(site="worker.lease_expire", index=0, attempt=0)])
            worker = WorkerAgent(
                service.url, poll_interval=0.05, max_jobs=1, max_idle=10,
                heartbeat_cycles=0, faults=faults,
                cache=ResultCache(root=str(tmp_path / "worker-cache"),
                                  remote=False))
            assert worker.run() == 0
            # First claim was abandoned, the lease lapsed, the re-queued
            # claim (attempt 1) no longer matches the fault and executes.
            assert worker.jobs_abandoned == 1
            assert worker.jobs_done == 1

            entry = service.queue.get(jobs[0].key)
            assert entry.state == "done"
            assert entry.requeues == 1  # exactly once
            with open(service.queue.journal_path,
                      encoding="utf-8") as handle:
                requeues = [json.loads(line) for line in handle
                            if json.loads(line)["event"] == "requeue"]
            assert len(requeues) == 1
            assert requeues[0]["reason"] == "lease expired"

            remote = fetch_results(service.url, jobs, timeout=10,
                                   poll_interval=0.05)
            local = run_locally(jobs, tmp_path)
            assert canonical_bytes(remote[0]) == canonical_bytes(local[0])
        finally:
            service.stop()

    def test_sigkilled_worker_loses_no_jobs(self, tmp_path):
        """SIGKILL a real worker process mid-job: the lease expires, the
        job re-queues, a second worker completes it, and the result is
        byte-identical to a local run."""
        service = ServiceServer(
            str(tmp_path / "data"),
            cache=ResultCache(root=str(tmp_path / "service-cache"),
                              remote=False),
            lease_seconds=1.0,
        )
        service.start()
        try:
            # One deliberately slow cell so the kill lands mid-execution.
            jobs = [SimJob("gzip", StrategySpec(kind="base"),
                           MachineConfig(), instructions=60_000,
                           warmup=20_000)]
            submit_jobs(service.url, jobs)

            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(os.path.dirname(__file__), "..", "src")]
                + env.get("PYTHONPATH", "").split(os.pathsep))
            env["REPRO_CACHE_DIR"] = str(tmp_path / "victim-cache")
            victim = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", service.url,
                 "--poll", "0.05", "--heartbeat-cycles", "500"],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            try:
                deadline = time.monotonic() + 30
                entry = service.queue.get(jobs[0].key)
                while (entry.state != "running"
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                assert entry.state == "running", "worker never claimed"
                victim.kill()  # SIGKILL: no cleanup, no goodbye
                victim.wait(timeout=30)
                assert victim.returncode == -signal.SIGKILL
            finally:
                if victim.poll() is None:
                    victim.kill()
                    victim.wait(timeout=30)

            # The job must not be lost: a fresh worker picks it up once
            # the dead worker's lease lapses.
            rescuer = WorkerAgent(
                service.url, name="rescuer", poll_interval=0.1,
                max_jobs=1, max_idle=30, heartbeat_cycles=0,
                cache=ResultCache(root=str(tmp_path / "rescuer-cache"),
                                  remote=False))
            assert rescuer.run() == 0
            assert rescuer.jobs_done == 1

            entry = service.queue.get(jobs[0].key)
            assert entry.state == "done"
            assert entry.requeues >= 1  # the expired lease re-queued it

            remote = fetch_results(service.url, jobs, timeout=10,
                                   poll_interval=0.05)
            local = run_locally(jobs, tmp_path)
            assert canonical_bytes(remote[0]) == canonical_bytes(local[0])
        finally:
            service.stop()
