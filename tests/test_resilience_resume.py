"""Checkpoint/resume lifecycle: interrupt mid-sweep, resume, compare.

Two levels: in-process (``RunInterrupted`` raised mid-run, resumed via
``resume=``) and out-of-process (a real ``repro sweep`` child killed
with SIGTERM, resumed via ``--resume``) — the acceptance scenario from
docs/RESILIENCE.md.  Both assert the resumed run's results equal an
uninterrupted run's, with only the remainder executed.
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
from repro.resilience import load_resume_state
from repro.runtime import (
    ExperimentEngine,
    ResultCache,
    RunInterrupted,
    SimJob,
)
from repro.runtime import settings

TINY = dict(instructions=400, warmup=200)
REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture(autouse=True)
def isolated_runtime(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for var in ("REPRO_NO_CACHE", "REPRO_JOBS", "REPRO_JOB_TIMEOUT",
                "REPRO_TELEMETRY_DIR", "REPRO_RETRY_BACKOFF"):
        monkeypatch.delenv(var, raising=False)
    settings.configure(jobs=None, cache=None, telemetry_dir=None)
    yield
    settings.configure(jobs=None, cache=None, telemetry_dir=None)


def make_jobs(benches=("gzip", "bzip2"), specs=(StrategySpec(kind="base"),
                                                StrategySpec(kind="fdrt"))):
    return [
        SimJob(benchmark=b, spec=s, config=MachineConfig(), **TINY)
        for b in benches for s in specs
    ]


class TestInProcessInterruptAndResume:
    def interrupt_after(self, n):
        def progress(event):
            if event.status == "done" and event.completed == n:
                raise RunInterrupted(signal.SIGTERM)
        return progress

    def test_resume_equals_uninterrupted_run(self, tmp_path):
        jobs = make_jobs()
        clean = ExperimentEngine(jobs=1, cache=False).run(jobs)

        tel = str(tmp_path / "tel")
        first = ExperimentEngine(jobs=1, cache=False, telemetry=tel,
                                 progress=self.interrupt_after(2))
        with pytest.raises(KeyboardInterrupt):
            first.run(jobs)
        manifest = json.loads(
            (tmp_path / "tel" / "manifest.json").read_text())
        assert manifest["status"] == "interrupted"

        # Resume with the cache still disabled: the journal alone must
        # carry the two finished results across the process boundary.
        state = load_resume_state(tel)
        assert state.completed == 2
        second = ExperimentEngine(jobs=1, cache=False, telemetry=tel,
                                  resume=state)
        results = second.run(jobs)
        assert results == clean
        assert second.report.resumed == 2
        assert second.report.executed == len(jobs) - 2
        final = json.loads((tmp_path / "tel" / "manifest.json").read_text())
        assert final["status"] == "complete"
        statuses = sorted(j["status"] for j in final["jobs"])
        assert statuses == ["executed", "executed", "resumed", "resumed"]

    def test_resume_accepts_directory_path(self, tmp_path):
        jobs = make_jobs(("gzip",))
        tel = str(tmp_path / "tel")
        ExperimentEngine(jobs=1, cache=False, telemetry=tel).run(jobs)
        engine = ExperimentEngine(jobs=1, cache=False, resume=tel)
        engine.run(jobs)
        assert engine.report.resumed == len(jobs)
        assert engine.report.executed == 0
        assert engine.report.mode == "resumed"

    def test_resume_tolerates_torn_journal_tail(self, tmp_path):
        jobs = make_jobs(("gzip",))
        tel = tmp_path / "tel"
        ExperimentEngine(jobs=1, cache=False, telemetry=str(tel)).run(jobs)
        with open(tel / "events.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"event": "job", "status": "do')  # killed writer
        state = load_resume_state(str(tel))
        assert state.torn_lines == 1
        assert state.completed == len(jobs)

    def test_resume_missing_journal_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_resume_state(str(tmp_path / "nowhere"))

    def test_changed_sweep_only_replays_exact_cells(self, tmp_path):
        # Content addressing: a resumed run with extra cells replays
        # only the exact-match jobs and executes the rest.
        tel = str(tmp_path / "tel")
        ExperimentEngine(jobs=1, cache=False, telemetry=tel).run(
            make_jobs(("gzip",)))
        engine = ExperimentEngine(jobs=1, cache=False, resume=tel)
        engine.run(make_jobs(("gzip", "bzip2")))
        assert engine.report.resumed == 2
        assert engine.report.executed == 2


    def test_resume_over_a_cached_journal_stores_nothing(self, tmp_path):
        # The cache already holds every replayed cell: re-storing them
        # would rewrite identical entries.
        jobs = make_jobs(("gzip",))
        tel = str(tmp_path / "tel")
        ExperimentEngine(jobs=1, telemetry=tel).run(jobs)
        engine = ExperimentEngine(jobs=1, resume=tel)
        engine.run(jobs)
        assert engine.report.resumed == len(jobs)
        assert engine.cache.stats.stores == 0

    def test_resume_into_a_cold_cache_stores_every_replayed_cell(
            self, tmp_path):
        jobs = make_jobs(("gzip",))
        tel = str(tmp_path / "tel")
        ExperimentEngine(jobs=1, cache=False, telemetry=tel).run(jobs)
        engine = ExperimentEngine(
            jobs=1, cache=ResultCache(root=str(tmp_path / "cold")),
            resume=tel)
        engine.run(jobs)
        assert engine.report.resumed == len(jobs)
        assert engine.cache.stats.stores == len(jobs)
        for job in jobs:
            assert os.path.isfile(engine.cache.path_for(job))


SWEEP = ("--benchmarks", "gzip,bzip2", "--strategies", "base,fdrt",
         "--instructions", "20000", "--warmup", "10000", "--jobs", "1")


class TestKillAndResumeCLI:
    """SIGTERM a real ``repro sweep`` child, then ``--resume`` it."""

    def run_sweep(self, tmp_path, cache, *extra, env_extra=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC
        env["REPRO_CACHE_DIR"] = str(tmp_path / cache)
        env.update(env_extra or {})
        return subprocess.run(
            [sys.executable, "-m", "repro", "sweep", *SWEEP, *extra],
            capture_output=True, text=True, env=env, timeout=300)

    @staticmethod
    def table_of(stdout):
        lines = stdout.splitlines()
        starts = [i for i, l in enumerate(lines) if l.startswith("IPC —")]
        assert starts, f"no IPC table in output:\n{stdout}"
        return "\n".join(lines[starts[0]:starts[0] + 5])

    def test_sigterm_then_resume_matches_clean_run(self, tmp_path):
        clean = self.run_sweep(tmp_path, "cache-clean")
        assert clean.returncode == 0, clean.stderr

        tel = tmp_path / "tel"
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache-killed")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", *SWEEP,
             "--telemetry-dir", str(tel)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        try:
            # Wait until the journal shows at least one finished job,
            # then kill the sweep mid-flight.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                try:
                    journal = (tel / "events.jsonl").read_text()
                except OSError:
                    journal = ""
                if journal.count('"status": "done"') >= 1:
                    break
                if proc.poll() is not None:
                    pytest.fail(
                        "sweep exited before it could be interrupted:\n"
                        + proc.stderr.read())
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130
        assert "resume with" in stderr
        manifest = json.loads((tel / "manifest.json").read_text())
        assert manifest["status"] == "interrupted"

        # Resume against a cold cache: only the journal knows the
        # finished cells.  The table must match the clean run exactly.
        resumed = self.run_sweep(
            tmp_path, "cache-resume", "--resume", str(tel))
        assert resumed.returncode == 0, resumed.stderr
        assert "resumed" in resumed.stderr
        assert self.table_of(resumed.stdout) == self.table_of(clean.stdout)
        final = json.loads((tel / "manifest.json").read_text())
        assert final["status"] == "complete"
        counts = {}
        for job in final["jobs"]:
            counts[job["status"]] = counts.get(job["status"], 0) + 1
        assert counts.get("resumed", 0) >= 1
        assert counts.get("executed", 0) >= 1
