"""Tests for run manifests, the JSONL event log, and --report-json."""

import json

import pytest

from repro.assign.base import StrategySpec
from repro.cli import main
from repro.cluster.config import MachineConfig
from repro.obs import MANIFEST_SCHEMA_VERSION, TelemetryWriter, load_manifest
from repro.obs.manifest import git_sha, host_info
from repro.runtime import ExperimentEngine, SimJob

TINY = dict(instructions=400, warmup=200)


pytestmark = pytest.mark.usefixtures("isolated_runtime")


def make_jobs(benches=("gzip", "bzip2")):
    return [SimJob(benchmark=b, spec=StrategySpec(kind="base"),
                   config=MachineConfig(), **TINY) for b in benches]


def read_events(directory):
    with open(directory / "events.jsonl", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


class TestTelemetryWriter:
    def test_cold_run_manifest(self, tmp_path):
        tdir = tmp_path / "telemetry"
        engine = ExperimentEngine(jobs=1, telemetry=str(tdir))
        jobs = make_jobs()
        engine.run(jobs)
        manifest = load_manifest(str(tdir))
        assert manifest["schema"] == MANIFEST_SCHEMA_VERSION
        assert manifest["engine"]["total"] == 2
        assert [j["status"] for j in manifest["jobs"]] == [
            "executed", "executed"]
        assert [j["key"] for j in manifest["jobs"]] == [
            job.key for job in jobs]
        assert all(j["elapsed"] > 0 for j in manifest["jobs"])
        assert manifest["cache"]["stores"] == 2
        assert manifest["host"]["cpu_count"] == host_info()["cpu_count"]

    def test_warm_run_statuses_all_hit(self, tmp_path):
        tdir = tmp_path / "telemetry"
        jobs = make_jobs()
        ExperimentEngine(jobs=1).run(jobs)  # populate the cache
        engine = ExperimentEngine(jobs=1, telemetry=str(tdir))
        engine.run(jobs)
        manifest = load_manifest(str(tdir))
        assert [j["status"] for j in manifest["jobs"]] == ["hit", "hit"]
        assert manifest["engine"]["executed"] == 0
        assert manifest["engine"]["mode"] == "cache only"

    def test_event_log_structure(self, tmp_path):
        tdir = tmp_path / "telemetry"
        engine = ExperimentEngine(jobs=1, telemetry=str(tdir))
        engine.run(make_jobs())
        events = read_events(tdir)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        job_events = [e for e in events if e["event"] == "job"]
        assert [e["status"] for e in job_events] == ["done", "done"]
        assert all("key" in e and "elapsed" in e for e in job_events)

    def test_successive_runs_append_events_refresh_manifest(self, tmp_path):
        tdir = tmp_path / "telemetry"
        engine = ExperimentEngine(jobs=1, telemetry=str(tdir))
        jobs = make_jobs(("gzip",))
        engine.run(jobs)
        engine.run(jobs)  # warm
        events = read_events(tdir)
        assert [e["event"] for e in events].count("run_start") == 2
        manifest = load_manifest(str(tdir))
        assert manifest["run"] == 2
        assert manifest["jobs"][0]["status"] == "hit"

    def test_env_var_enables_telemetry(self, tmp_path, monkeypatch):
        tdir = tmp_path / "from-env"
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tdir))
        engine = ExperimentEngine(jobs=1)
        assert engine.telemetry is not None
        engine.run(make_jobs(("gzip",)))
        assert (tdir / "manifest.json").exists()

    def test_disabled_by_default(self):
        assert ExperimentEngine(jobs=1).telemetry is None

    def test_writer_instance_is_adopted(self, tmp_path):
        writer = TelemetryWriter(str(tmp_path / "t"))
        assert ExperimentEngine(telemetry=writer).telemetry is writer

    def test_retry_counts_recorded(self, tmp_path):
        tdir = tmp_path / "telemetry"
        writer = TelemetryWriter(str(tdir))
        jobs = make_jobs(("gzip",))
        writer.start_run(jobs)

        class Event:
            def __init__(self, status):
                self.index, self.total, self.completed = 0, 1, 1
                self.job = jobs[0]
                self.status, self.elapsed, self.source = status, 0.5, "pool"

        writer.record(Event("retry"))
        writer.record(Event("done"))

        class Report:
            elapsed, cache_hits, executed, retried = 1.0, 0, 1, 1

            @staticmethod
            def to_dict():
                return {"total": 1}

        writer.finalize(Report())
        manifest = load_manifest(str(tdir))
        assert manifest["jobs"][0]["retries"] == 1
        assert manifest["jobs"][0]["status"] == "executed"


class TestManifestV2:
    """Schema-v2 job records carry identity + full result payloads."""

    def test_job_identity_fields(self, tmp_path):
        tdir = tmp_path / "telemetry"
        engine = ExperimentEngine(jobs=1, telemetry=str(tdir))
        engine.run(make_jobs(("gzip",)))
        record = load_manifest(str(tdir))["jobs"][0]
        assert record["benchmark"] == "gzip"
        assert record["strategy"] == "Base"
        assert record["seed"] is None
        assert record["instructions"] == TINY["instructions"]
        assert record["warmup"] == TINY["warmup"]

    def test_result_payload_embedded(self, tmp_path):
        from repro.core.simulator import SimResult

        tdir = tmp_path / "telemetry"
        engine = ExperimentEngine(jobs=1, telemetry=str(tdir))
        (result,) = engine.run(make_jobs(("gzip",)))
        payload = load_manifest(str(tdir))["jobs"][0]["result"]
        assert payload is not None
        assert SimResult.from_dict(payload) == result
        assert payload["cycle_accounting"]  # top-down accounting present

    def test_cache_hits_also_carry_results(self, tmp_path):
        tdir = tmp_path / "telemetry"
        jobs = make_jobs(("gzip",))
        ExperimentEngine(jobs=1).run(jobs)  # populate the cache
        engine = ExperimentEngine(jobs=1, telemetry=str(tdir))
        engine.run(jobs)
        record = load_manifest(str(tdir))["jobs"][0]
        assert record["status"] == "hit"
        assert record["result"] is not None

    def test_seed_recorded(self, tmp_path):
        tdir = tmp_path / "telemetry"
        job = SimJob(benchmark="gzip", spec=StrategySpec(kind="base"),
                     config=MachineConfig(), seed=7, **TINY)
        ExperimentEngine(jobs=1, telemetry=str(tdir)).run([job])
        assert load_manifest(str(tdir))["jobs"][0]["seed"] == 7

    def test_job_events_carry_ipc(self, tmp_path):
        tdir = tmp_path / "telemetry"
        ExperimentEngine(jobs=1, telemetry=str(tdir)).run(
            make_jobs(("gzip",)))
        job_events = [e for e in read_events(tdir) if e["event"] == "job"]
        assert all(e["ipc"] > 0 for e in job_events
                   if e["status"] == "done")


class TestHostAndGit:
    def test_git_sha_in_repo(self):
        import os
        sha = git_sha(os.path.dirname(os.path.abspath(__file__)))
        assert sha is None or (len(sha) == 40
                               and all(c in "0123456789abcdef" for c in sha))

    def test_git_sha_outside_repo(self, tmp_path):
        assert git_sha(str(tmp_path)) is None

    def test_host_info_fields(self):
        info = host_info()
        assert {"hostname", "platform", "python", "cpu_count"} <= set(info)


class TestRunIdThreading:
    def test_engine_stamps_one_run_id_everywhere(self, tmp_path):
        tdir = tmp_path / "telemetry"
        engine = ExperimentEngine(jobs=1, telemetry=str(tdir))
        engine.run(make_jobs(("gzip",)))
        manifest = load_manifest(str(tdir))
        run_id = manifest["run_id"]
        assert run_id and len(run_id) == 16
        assert "git_sha" in manifest
        assert "git_dirty" in manifest
        events = read_events(tdir)
        assert events
        assert all(e["run_id"] == run_id for e in events)
        heartbeats = list((tdir / "heartbeats").glob("*.json"))
        assert heartbeats
        for path in heartbeats:
            assert json.loads(
                path.read_text())["run_id"] == run_id


class TestSweepReportJson:
    def test_report_json_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main(["sweep", "--benchmarks", "gzip",
                     "--strategies", "base,fdrt",
                     "--instructions", "500", "--warmup", "300",
                     "--report-json", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["report"]["total"] == 2
        assert 0.0 <= payload["report"]["hit_rate"] <= 1.0
        assert set(payload["cache"]) >= {"hits", "misses", "hit_rate"}

    def test_sweep_telemetry_dir_flag(self, capsys, tmp_path):
        tdir = tmp_path / "telemetry"
        code = main(["sweep", "--benchmarks", "gzip",
                     "--strategies", "base",
                     "--instructions", "500", "--warmup", "300",
                     "--telemetry-dir", str(tdir)])
        assert code == 0
        assert "telemetry:" in capsys.readouterr().out
        manifest = load_manifest(str(tdir))
        assert len(manifest["jobs"]) == 1
