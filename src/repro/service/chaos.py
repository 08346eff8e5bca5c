"""Chaos soak for the service tier: ``repro chaos``.

Pushes a pinned job matrix through a real server + worker-fleet
deployment while a combined, seeded :class:`~repro.resilience.FaultPlan`
attacks every layer at once:

* the **chaos proxy** (:class:`~repro.resilience.ChaosProxy`) between
  clients/workers and the server drops responses after applying them,
  delays requests, answers 5xx bursts, and tears response bodies;
* the **server** is SIGKILLed mid-run (``server.crash`` specs matched
  on the queue's done count) and restarted on the same port and data
  directory — journal replay must resume the run;
* **workers** are SIGKILLed (``worker.crash`` specs, same trigger) and
  replaced — lease expiry must re-queue their jobs;
* the **journal** suffers an injected ``disk.full`` append failure —
  the queue must degrade to read-only, never corrupt;
* **backpressure** is proven up front: more jobs than ``max_depth``
  are thrown at an idle server and the overflow must come back 429 +
  ``Retry-After``.

The soak then asserts what the ROADMAP actually needs: every job
completes, results are byte-identical to an inline fault-free run, the
shared cache holds no torn entries, and every child process is reaped.
Determinism discipline matches PR 4's engine chaos suite: the fault
plan is content-addressed, triggers key off queue state (done counts,
request ordinals), and the job matrix is pinned, so a failing soak
replays.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro._http import (
    ServiceUnavailable,
    get_json,
    json_round_trip,
    round_trip,
)
from repro._jsonfile import TEMP_PREFIX
from repro.resilience.chaosproxy import ChaosProxy
from repro.resilience.faults import FaultPlan, FaultSpec

#: Seconds to wait for a freshly spawned server to answer ``/healthz``.
SERVER_START_TIMEOUT = 20.0

#: Seconds the whole soak may run before it is declared wedged.
SOAK_TIMEOUT = 300.0


def _canonical_bytes(document: dict) -> bytes:
    return json.dumps(document, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _free_port() -> int:
    """A port the OS just handed out (the server restarts onto it;
    ``HTTPServer`` sets ``allow_reuse_address`` so rebinding works)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def build_chaos_plan(seed: int, njobs: int, nrequests: int = 120,
                     drop_rate: float = 0.12,
                     server_crashes: int = 1,
                     worker_crashes: int = 2) -> FaultPlan:
    """The combined, seeded fault plan the soak runs under.

    One plan describes every layer's faults; each component evaluates
    only its own sites (site names disambiguate), and the harness
    interprets ``server.crash`` / ``worker.crash`` specs as SIGKILL
    triggers matched on the queue's done count.
    """
    specs: List[FaultSpec] = list(
        FaultPlan.http_scatter(seed, nrequests, rate=drop_rate,
                               sites=("http.drop_response",)).specs)
    # One slow link and one torn body, pinned past the submit burst so
    # they land on worker-protocol traffic.
    specs.append(FaultSpec(site="http.delay", index=None, attempt=None,
                           seconds=0.2, times=1))
    specs.append(FaultSpec(site="http.truncate_body", index=None,
                           attempt=None, times=1))
    # A 5xx burst: three consecutive requests answered 503 without
    # reaching the server (any-request specs drain their budget on the
    # first three matches, which makes the burst contiguous).
    specs.append(FaultSpec(site="http.error_5xx", index=None,
                           attempt=None, times=3))
    # SIGKILL the server once N jobs are done (mid-run), the workers a
    # little earlier/later — the harness reads these.
    for crash in range(server_crashes):
        specs.append(FaultSpec(site="server.crash",
                               index=max(1, njobs // 3) + crash,
                               attempt=None))
    for crash in range(worker_crashes):
        specs.append(FaultSpec(site="worker.crash", index=1 + crash,
                               attempt=None))
    # One journal append fails mid-run; the queue must go read-only and
    # recover on the next append, corrupting nothing.
    specs.append(FaultSpec(site="disk.full", index=njobs + 3,
                           attempt=None, path="queue"))
    return FaultPlan(specs=specs, seed=seed)


@dataclasses.dataclass
class ChaosReport:
    """What the soak did and whether every invariant held."""

    plan_key: str = ""
    jobs: int = 0
    elapsed: float = 0.0
    checks: List[Tuple[str, bool, str]] = dataclasses.field(
        default_factory=list)
    counters: Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(passed for _name, passed, _detail in self.checks)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    def to_dict(self) -> dict:
        return {
            "plan": self.plan_key,
            "jobs": self.jobs,
            "elapsed": self.elapsed,
            "ok": self.ok,
            "checks": [{"name": name, "ok": passed, "detail": detail}
                       for name, passed, detail in self.checks],
            "counters": self.counters,
        }

    def render(self) -> str:
        lines = [f"chaos soak: plan {self.plan_key[:12]}… "
                 f"{self.jobs} job(s), {self.elapsed:.1f}s"]
        for name, passed, detail in self.checks:
            mark = "ok " if passed else "FAIL"
            suffix = f" — {detail}" if detail else ""
            lines.append(f"  [{mark}] {name}{suffix}")
        for name in sorted(self.counters):
            lines.append(f"  {name}: {self.counters[name]}")
        lines.append("RESULT: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


class _Fleet:
    """Child-process bookkeeping: spawn, kill, reap, never leak."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.procs: List[subprocess.Popen] = []

    def spawn(self, argv: List[str], env: Dict[str, str],
              label: str) -> subprocess.Popen:
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.STDOUT)
        proc.chaos_label = label  # type: ignore[attr-defined]
        self.procs.append(proc)
        return proc

    def kill(self, proc: subprocess.Popen) -> None:
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)

    def reap_all(self, grace: float = 10.0) -> int:
        """SIGTERM then SIGKILL every straggler; returns leak count
        (a leak = a child that survived even SIGKILL + wait)."""
        leaked = 0
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + grace
        for proc in self.procs:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    leaked += 1
        return leaked


def _wait_healthy(url: str, timeout: float = SERVER_START_TIMEOUT) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if get_json(f"{url}/healthz", timeout=5.0).get("status") == "ok":
                return True
        except ServiceUnavailable:
            pass
        time.sleep(0.1)
    return False


def run_chaos_soak(
    jobs: Sequence,
    workdir: str,
    seed: int = 1234,
    workers: int = 3,
    lease_seconds: float = 4.0,
    max_depth: Optional[int] = None,
    quick: bool = False,
    stream=None,
    keep_processes: bool = False,
) -> ChaosReport:
    """Run the combined-fault soak; see the module docstring.

    ``jobs`` is the pinned :class:`SimJob` matrix (the CLI builds it
    from the usual ``--benchmarks``/``--strategies`` flags).  ``quick``
    shrinks the fleet and fault counts for CI.  Returns a
    :class:`ChaosReport`; the command exits nonzero unless every check
    passed.
    """
    from repro.service.client import (
        RemoteJobFailed,
        fetch_results,
        submit_jobs,
    )

    def log(message: str) -> None:
        if stream is not None:
            print(f"chaos: {message}", file=stream)

    jobs = list(jobs)
    njobs = len(jobs)
    if max_depth is None:
        max_depth = max(2, njobs - 3)
    plan = build_chaos_plan(
        seed, njobs,
        server_crashes=1,
        worker_crashes=1 if quick else 2,
    )
    report = ChaosReport(plan_key=plan.key, jobs=njobs)
    started = time.monotonic()

    workdir = os.fspath(workdir)
    data_dir = os.path.join(workdir, "service-data")
    cache_dir = os.path.join(workdir, "service-cache")
    plan_path = os.path.join(workdir, "chaos-plan.json")
    os.makedirs(workdir, exist_ok=True)
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan.canonical(), handle, sort_keys=True)
    log(f"plan {plan.key[:12]}… ({len(plan.specs)} spec(s)) "
        f"-> {plan_path}")

    # ------------------------------------------------------------------
    # Ground truth: the same matrix, inline, fault-free.
    # ------------------------------------------------------------------
    log(f"reference run: {njobs} job(s) inline")
    reference = {job.key: _canonical_bytes(job.run().to_dict())
                 for job in jobs}

    port = _free_port()
    server_url = f"http://127.0.0.1:{port}"
    fleet = _Fleet(stream)
    base_env = dict(os.environ)
    base_env["REPRO_CACHE_DIR"] = cache_dir
    base_env.pop("REPRO_SERVICE_URL", None)

    def spawn_server(with_faults: bool) -> subprocess.Popen:
        argv = [sys.executable, "-m", "repro", "service", data_dir,
                "--port", str(port), "--lease", str(lease_seconds),
                "--max-depth", str(max_depth)]
        if with_faults:
            argv += ["--fault-plan", plan_path]
        return fleet.spawn(argv, base_env, "server")

    def spawn_worker(index: int) -> subprocess.Popen:
        env = dict(base_env)
        # Each worker gets a private local cache: re-executions after a
        # SIGKILL land on a *different* agent and must genuinely rerun.
        env["REPRO_CACHE_DIR"] = os.path.join(
            workdir, f"worker-cache-{index}")
        argv = [sys.executable, "-m", "repro", "worker", proxy.url,
                "--name", f"chaos-w{index}", "--poll", "0.1",
                "--heartbeat-cycles", "500",
                "--max-idle", "30", "--outage-grace", "60"]
        return fleet.spawn(argv, env, f"worker-{index}")

    proxy = ChaosProxy(server_url, plan=FaultPlan.from_dict(
        plan.canonical()))
    server_proc = None
    worker_procs: List[subprocess.Popen] = []
    worker_seq = 0
    try:
        server_proc = spawn_server(with_faults=True)
        if not _wait_healthy(server_url):
            report.check("server started", False,
                         "no /healthz within timeout")
            return report
        report.check("server started", True)
        proxy.start()
        log(f"server {server_url} (pid {server_proc.pid}), "
            f"proxy {proxy.url}")

        # --------------------------------------------------------------
        # Backpressure: overflow an idle queue, demand 429+Retry-After.
        # --------------------------------------------------------------
        shed_seen = 0
        accepted = 0
        for job in jobs:
            payload = dict(job.canonical())
            try:
                status, _, response = json_round_trip(
                    f"{server_url}/jobs", payload)
            except ServiceUnavailable:
                continue
            if status == 429:
                shed_seen += 1
            elif "error" not in response:
                accepted += 1
        report.check(
            "backpressure sheds with 429",
            shed_seen >= max(1, njobs - max_depth - 1)
            and accepted <= max_depth,
            f"{accepted} accepted, {shed_seen} shed at depth "
            f"{max_depth}")
        log(f"shed phase: {accepted} accepted, {shed_seen} shed")

        # --------------------------------------------------------------
        # Fleet up, then (re)submit everything through the proxy until
        # every cell is acknowledged — retries ride Retry-After.
        # --------------------------------------------------------------
        nworkers = max(2, 2 if quick else workers)
        for _ in range(nworkers):
            worker_procs.append(spawn_worker(worker_seq))
            worker_seq += 1
        submitted: Dict[str, str] = {}
        submit_deadline = time.monotonic() + 60.0
        while len(submitted) < njobs:
            if time.monotonic() > submit_deadline:
                break
            for job in jobs:
                if job.key in submitted:
                    continue
                try:
                    submitted.update(
                        submit_jobs(proxy.url, [job], run_id="chaos"))
                except (ServiceUnavailable, ValueError):
                    time.sleep(0.2)  # shed or outage: queue will drain
        report.check("all jobs acknowledged",
                     len(submitted) == njobs,
                     f"{len(submitted)}/{njobs}")

        # --------------------------------------------------------------
        # Monitor: fire the crash specs as the done count climbs.  A
        # spec's ``index`` is a done-count *threshold* (>=), not an
        # exact match — fast jobs can jump the count several steps
        # between polls and must not let a crash escape.
        # --------------------------------------------------------------
        soak_deadline = time.monotonic() + (
            120.0 if quick else SOAK_TIMEOUT)
        server_crashes_at = sorted(
            spec.index or 0 for spec in plan.specs
            if spec.site == "server.crash")
        worker_crashes_at = sorted(
            spec.index or 0 for spec in plan.specs
            if spec.site == "worker.crash")
        server_kills = 0
        worker_kills = 0
        while time.monotonic() < soak_deadline:
            try:
                snapshot = get_json(f"{server_url}/queue", timeout=5.0)
            except ServiceUnavailable:
                snapshot = {}
            counts = snapshot.get("counts") or {}
            done = int(counts.get("done", 0))
            terminal = done + int(counts.get("failed", 0))
            if server_crashes_at and done >= server_crashes_at[0]:
                server_crashes_at.pop(0)
                server_kills += 1
                log(f"SIGKILL server (pid {server_proc.pid}, "
                    f"done={done})")
                fleet.kill(server_proc)
                time.sleep(0.3)
                # The restart gets NO fault plan: its journal replay
                # and fresh appends must run clean.
                server_proc = spawn_server(with_faults=False)
                _wait_healthy(server_url)
            if worker_crashes_at and done >= worker_crashes_at[0]:
                worker_crashes_at.pop(0)
                victim = next((p for p in worker_procs
                               if p.poll() is None), None)
                if victim is not None:
                    worker_kills += 1
                    log(f"SIGKILL worker (pid {victim.pid}, "
                        f"done={done})")
                    fleet.kill(victim)
                    worker_procs.append(spawn_worker(worker_seq))
                    worker_seq += 1
            if (terminal >= njobs and len(submitted) == njobs
                    and not server_crashes_at and not worker_crashes_at):
                break
            time.sleep(0.1)
        report.check("server crash injected", server_kills >= 1,
                     f"{server_kills} kill(s) + restart")
        report.check("worker crash injected", worker_kills >= 1,
                     f"{worker_kills} kill(s)")

        # --------------------------------------------------------------
        # Fetch through the proxy; verify byte identity.
        # --------------------------------------------------------------
        try:
            results = fetch_results(proxy.url, jobs, timeout=90.0,
                                    stream=None)
        except (ServiceUnavailable, RemoteJobFailed,
                TimeoutError) as error:
            report.check("all jobs completed", False, str(error))
            results = None
        if results is not None:
            report.check("all jobs completed", True,
                         f"{len(results)}/{njobs}")
            mismatched = [
                job.label for job, result in zip(jobs, results)
                if _canonical_bytes(result.to_dict())
                != reference[job.key]]
            report.check("results byte-identical to fault-free run",
                         not mismatched,
                         "all identical" if not mismatched
                         else ", ".join(mismatched[:4]))

        # --------------------------------------------------------------
        # Invariants on the durable state + counters.
        # --------------------------------------------------------------
        torn = []
        for root, _dirs, files in os.walk(cache_dir):
            for name in files:
                if name.startswith(TEMP_PREFIX):
                    torn.append(os.path.join(root, name))
                elif name.endswith(".json"):
                    try:
                        with open(os.path.join(root, name),
                                  encoding="utf-8") as handle:
                            json.load(handle)
                    except ValueError:
                        torn.append(os.path.join(root, name))
        report.check("no torn cache entries", not torn,
                     f"{len(torn)} torn file(s)" if torn else "")

        counters = proxy.counters()
        report.counters.update(
            {f"proxy.{name}": value
             for name, value in counters.items() if name != "faults"})
        for site, count in sorted(counters["faults"].items()):
            report.counters[f"fault.{site}"] = count
        report.check("network faults injected",
                     sum(counters["faults"].values()) >= 1,
                     f"{counters['faults']}")
        metrics = ""
        try:
            status, _, body = round_trip(f"{proxy.url}/metrics",
                                         timeout=5.0)
            if status == 200:
                metrics = body.decode("utf-8")
        except ServiceUnavailable:
            pass
        for family in ("repro_service_shed_total",
                       "repro_service_request_replays",
                       "repro_service_queue_write_errors",
                       "repro_service_chaos_requests"):
            for line in metrics.splitlines():
                if line.startswith(family + " "):
                    report.counters[family] = line.split()[-1]
        report.check("chaos counters exported",
                     "repro_service_chaos_requests" in report.counters,
                     "repro_service_chaos_* on /metrics")
    finally:
        report.elapsed = time.monotonic() - started
        if not keep_processes:
            leaked = fleet.reap_all()
            report.check("no leaked child processes", leaked == 0,
                         f"{leaked} leaked" if leaked else
                         f"{len(fleet.procs)} spawned, all reaped")
        proxy.stop()
    return report
