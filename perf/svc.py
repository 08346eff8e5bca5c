"""The ``svc-open`` workload: the service tier under independent users.

``python -m repro service`` and one ``python -m repro worker --poll
0.05`` run as child processes.  One single-threaded generator drives an
open loop over HTTP, with at most one connection open at a time:
seeded Poisson arrivals at :data:`RATE` submissions per second.  Half
the arrivals repeat one of the keys completed during set-up, so the
service answers them from its cache.  The other half are fresh jobs
that go through the queue, the worker, the cache store and back.

Latency runs from when a request was *due*, so a stalled generator
charges its stall to the requests behind it.  A fresh job is complete
when ``GET /jobs/<key>`` first reports ``done``, timed on the client
(see README: that can precede the queue's ``finished`` stamp).

The worker polls every 0.05 s rather than the shipped 1 s: with 1 s the
miss latency mostly measures where in the idle-poll cycle a job lands.

``setup_s`` is scaled to the nominal host speed
(:class:`harness.HostSpeed`), sampled between the spawns.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import ROOT, SRC, HostSpeed, Run, cells_digest, check_sample, \
    children_peak_rss_mb, clock, median, percentile, scratch

NAME = "svc-open"
RATE = 6.0
FRESH_LIMIT_S = 1.0
HIT_LIMIT_S = 0.05
STATUS_POLL_S = 0.02
#: A fresh job not done after this long counts as failed.
JOB_TIMEOUT_S = 60.0
BENCHMARKS = ("gzip", "twolf", "adpcm_enc")


@dataclasses.dataclass(frozen=True)
class SvcBudget:
    # Fresh jobs are sized so the one worker stays far from saturation
    # (about a third busy at 3 fresh jobs/s).  At 3k/1k it ran 60% busy,
    # and a slower spell of the shared host pushed it toward saturation,
    # so the miss latency tracked host speed more than code.
    instructions: int = 2_000
    warmup: int = 500
    #: Keys completed during set-up; repeats draw from these.
    repeat_keys: int = 24
    #: Service spawns behind ``setup_s``; the last one serves the load.
    setup_spawns: int = 5

    def tag(self, seconds: float) -> str:
        return (f"{RATE}/s x {seconds:g}s {self.instructions}/{self.warmup} "
                f"{self.repeat_keys} repeat keys")


BUDGET = SvcBudget()


def _job(benchmark: str, job_seed: int, budget: SvcBudget):
    from repro.assign.base import StrategySpec
    from repro.cluster.config import MachineConfig
    from repro.runtime.job import SimJob

    return SimJob(benchmark, StrategySpec(kind="fdrt"), MachineConfig(),
                  budget.instructions, budget.warmup, job_seed)


def _child_env(**extra: str) -> Dict[str, str]:
    """Environment for a ``python -m repro`` child: this checkout's
    sources, unbuffered output, and none of the caller's ``REPRO_*``
    knobs (they would change what is measured)."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1", **extra)
    return env


class HttpError(RuntimeError):
    pass


def _finished(document: dict) -> bool:
    """A job is complete once ``GET /jobs/<key>`` carries its result.

    ``state`` alone is not enough: the handler reads the cache before
    it reads the queue entry, so a completion landing between the two
    reads is reported ``done`` without a result (see README).
    """
    return document.get("state") == "done" and "result" in document


class Service:
    """A service and one worker, as child processes."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        directory.mkdir()
        self.server: Optional[subprocess.Popen] = None
        self.worker: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    def start(self) -> None:
        env = _child_env(REPRO_CACHE_DIR=str(self.directory / "worker-cache"))
        log = self.directory / "service.log"
        with open(log, "w") as handle:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro", "service",
                 str(self.directory / "data"),
                 "--cache-dir", str(self.directory / "cache")],
                stdout=handle, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        url = self._wait_for_url(log)
        match = re.match(r"http://([^:/]+):(\d+)", url)
        self.host, self.port = match.group(1), int(match.group(2))
        with open(self.directory / "worker.log", "w") as handle:
            self.worker = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", url,
                 "--poll", "0.05"],
                stdout=handle, stderr=subprocess.STDOUT, env=env, cwd=ROOT)

    def _wait_for_url(self, log: Path, timeout: float = 30.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = re.search(r"^service: (http://\S+)",
                              log.read_text(), re.M)
            if match:
                return match.group(1)
            if self.server.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"service did not start: {log.read_text()!r}")

    def stop(self) -> None:
        """SIGTERM both children and wait until each has exited."""
        for proc in (self.worker, self.server):
            if proc is None:
                continue
            if proc.poll() is None:
                proc.terminate()
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def request(self, method: str, path: str,
                body: Optional[dict] = None) -> Tuple[int, dict]:
        """One round trip on its own connection."""
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=10)
        try:
            payload = None if body is None else json.dumps(body).encode()
            headers = {} if body is None else {
                "Content-Type": "application/json"}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as error:
            raise HttpError(f"{method} {path}: {error}") from None
        finally:
            connection.close()
        if response.status >= 400:
            raise HttpError(f"{method} {path}: HTTP {response.status}")
        return response.status, json.loads(data)

    def submit(self, job) -> dict:
        return self.request("POST", "/jobs", job.canonical())[1]

    def status(self, key: str) -> dict:
        return self.request("GET", f"/jobs/{key}")[1]

    def wait_done(self, keys, timeout: float = JOB_TIMEOUT_S) -> Dict[str, dict]:
        """Poll until every key is done; returns each key's result."""
        deadline = time.monotonic() + timeout
        results: Dict[str, dict] = {}
        while len(results) < len(keys):
            if time.monotonic() > deadline:
                raise HttpError(f"{len(keys) - len(results)} jobs not done")
            for key in keys:
                if key not in results:
                    document = self.status(key)
                    if _finished(document):
                        results[key] = document["result"]
            time.sleep(STATUS_POLL_S)
        return results


def _schedule(seed: int, seconds: float, repeats: int) -> List[tuple]:
    """Seeded open-loop arrivals: ``(due, kind, index)`` where ``index``
    picks a repeat key or numbers the fresh job."""
    rng = random.Random(seed)
    arrivals = []
    due = 0.0
    fresh = 0
    while True:
        due += rng.expovariate(RATE)
        if due >= seconds:
            return arrivals
        if rng.random() < 0.5:
            arrivals.append((due, "repeat", rng.randrange(repeats)))
        else:
            arrivals.append((due, "fresh", fresh))
            fresh += 1


def run_workload(seed: int, seconds: float, trace: int,
                 budget: SvcBudget = BUDGET) -> Run:
    run = Run(NAME, seed, seconds, trace)
    # Sampled between spawns, while no process of the run is busy.
    host = HostSpeed()
    # Job seeds: each role gets its own range so no two keys collide.
    base = seed * 1_000_000
    repeat_jobs = [_job(BENCHMARKS[i % 3], base + i, budget)
                   for i in range(budget.repeat_keys)]
    arrivals = _schedule(seed, seconds, len(repeat_jobs))
    with scratch("svc") as root:
        setups = []
        service = None
        try:
            for spawn in range(budget.setup_spawns):
                if service is not None:
                    service.stop()
                host.sample()
                service = Service(root / f"spawn-{spawn}")
                first = _job(BENCHMARKS[0], base + 100_000 + spawn, budget)
                start = clock()
                service.start()
                service.submit(first)
                service.wait_done([first.key])
                setups.append(clock() - start)
            for job in repeat_jobs:
                service.submit(job)
            repeat_results = service.wait_done([job.key for job in repeat_jobs])
            host.sample()
            load = _Load(service, run, repeat_jobs, budget, base)
            load.drive(arrivals, seconds)
            times = _entry_times(service, list(load.fresh_done))
        finally:
            if service is not None:
                service.stop()
    peak_rss = children_peak_rss_mb()

    fresh = {key: result for key, (_, result) in load.fresh_done.items()}
    check_sample(run, {**load.fresh_jobs, **{j.key: j for j in repeat_jobs}},
                 {**fresh, **repeat_results}, "service result")
    run.set_digest(cells_digest(fresh), budget.tag(seconds))
    miss = [latency for latency, _ in load.fresh_done.values()]
    hit = load.hit_latency
    within = (sum(latency <= FRESH_LIMIT_S for latency in miss)
              + sum(latency <= HIT_LIMIT_S for latency in hit))
    execute = [finished - claimed for _, claimed, finished in times.values()]
    if trace:
        run.metric("service.submit_ms.p50", median(load.submit_s) * 1e3, "ms")
        run.metric("service.status_ms.p50", median(load.status_s) * 1e3, "ms")
        run.metric("service.queue_wait_ms.p50", median(
            [claimed - submitted for submitted, claimed, _ in times.values()])
            * 1e3, "ms")
        run.metric("service.execute_ms.p50", median(execute) * 1e3, "ms")
        run.metric("service.hit_frac", len(hit) / len(arrivals), "frac")
        run.metric("service.backlog_end", load.backlog_end, "count")
        run.metric("bench.generator_late_ms.max", load.late_max * 1e3, "ms")
    else:
        run.setup_metric(median(setups), host)
        run.metric("peak_rss_mb", peak_rss, "MB")
        run.figure("svc_miss_ms.p50", median(miss) * 1e3, "ms")
        run.figure("svc_miss_ms.p90", percentile(miss, 90) * 1e3, "ms")
        run.figure("svc_hit_ms.p50", median(hit) * 1e3, "ms")
        run.figure("svc_hit_ms.p90", percentile(hit, 90) * 1e3, "ms")
        run.figure("svc_within_limit_frac", within / len(arrivals), "frac")
    return run


def _entry_times(service: Service, keys, timeout: float = 5.0) -> Dict[
        str, Tuple[float, float, float]]:
    """(submitted, claimed, finished) of each key from ``GET /queue``,
    read after the window; waits briefly for late ``finished`` stamps."""
    deadline = time.monotonic() + timeout
    while True:
        entries = {entry["key"]: entry["times"] for entry in
                   service.request("GET", "/queue")[1]["entries"]}
        times = {key: entries.get(key, {}) for key in keys}
        complete = {key: (t["submitted"], t["claimed"], t["finished"])
                    for key, t in times.items()
                    if "claimed" in t and "finished" in t}
        if len(complete) == len(times) or time.monotonic() > deadline:
            return complete
        time.sleep(0.05)


class _Load:
    """The open-loop generator and what it observed."""

    def __init__(self, service: Service, run: Run, repeat_jobs,
                 budget: SvcBudget, base: int) -> None:
        self.service = service
        self.run = run
        self.repeat_jobs = repeat_jobs
        self.budget = budget
        self.base = base
        self.fresh_jobs: Dict[str, object] = {}
        #: key -> (latency from due, result document)
        self.fresh_done: Dict[str, Tuple[float, dict]] = {}
        self.hit_latency: List[float] = []
        self.submit_s: List[float] = []
        self.status_s: List[float] = []
        self.late_max = 0.0
        self.backlog_end = 0
        self._start = 0.0

    def _now(self) -> float:
        return clock() - self._start

    def _timed(self, samples: List[float], action):
        start = clock()
        try:
            return action()
        finally:
            samples.append(clock() - start)

    def drive(self, arrivals: List[tuple], seconds: float) -> None:
        """Send every arrival when due; poll fresh jobs until done."""
        self._start = clock()
        # key -> [due, next poll]
        waiting: Dict[str, List[float]] = {}
        backlog_measured = False
        index = 0
        while index < len(arrivals) or waiting or not backlog_measured:
            now = self._now()
            if index < len(arrivals) and arrivals[index][0] <= now:
                self._send(arrivals[index], now, waiting)
                index += 1
                continue
            if not backlog_measured and now >= seconds:
                counts = self.service.request("GET", "/queue")[1]["counts"]
                self.backlog_end = counts["pending"] + counts["running"]
                backlog_measured = True
                continue
            key = min(waiting, key=lambda k: waiting[k][1], default=None)
            if key is not None and waiting[key][1] <= now:
                self._poll(key, waiting)
                continue
            wake = [] if backlog_measured else [seconds]
            if index < len(arrivals):
                wake.append(arrivals[index][0])
            if key is not None:
                wake.append(waiting[key][1])
            time.sleep(max(0.0, min(wake) - self._now()))

    def _send(self, arrival, now: float, waiting) -> None:
        due, kind, index = arrival
        self.late_max = max(self.late_max, now - due)
        if kind == "repeat":
            job = self.repeat_jobs[index]
        else:
            job = _job(BENCHMARKS[index % 3], self.base + 200_000 + index,
                       self.budget)
            self.fresh_jobs[job.key] = job
        self.run.attempted += 1
        try:
            reply = self._timed(self.submit_s,
                                lambda: self.service.submit(job))
        except HttpError as error:
            self.run.fail(str(error))
            return
        if kind == "fresh":
            waiting[job.key] = [due, self._now() + STATUS_POLL_S]
        elif reply.get("cached"):
            self.hit_latency.append(self._now() - due)
        else:
            self.run.fail(f"repeat {job.key[:12]} was not a cache hit")

    def _poll(self, key: str, waiting) -> None:
        due = waiting[key][0]
        try:
            document = self._timed(self.status_s,
                                   lambda: self.service.status(key))
        except HttpError as error:
            self.run.fail(str(error))
            del waiting[key]
            return
        now = self._now()
        state = document.get("state")
        if _finished(document):
            self.fresh_done[key] = (now - due, document["result"])
            del waiting[key]
        elif state == "done":
            waiting[key][1] = now  # the result lands with the next read
        elif state == "failed" or now - due > JOB_TIMEOUT_S:
            self.run.fail(f"fresh job {key[:12]} {state} after "
                          f"{now - due:.1f}s")
            del waiting[key]
        else:
            waiting[key][1] = now + STATUS_POLL_S
