"""The run journal has one reader: `repro top`, `/runs`, `/jobs` and
`--resume` fold `events.jsonl` through the rule the writer applies."""

import io
import json
import os

import pytest

from repro._jsonfile import read_jsonl
from repro.assign.base import StrategySpec
from repro.cli import main
from repro.cluster.config import MachineConfig
from repro.core.result import SimResult
from repro.obs.journal import read_journal
from repro.obs.manifest import TelemetryWriter
from repro.obs.server import TelemetryServer
from repro.obs.top import run_top
from repro.resilience import load_resume_state
from repro.runtime import SimJob
from repro.runtime.observe import EngineReport, JobEvent
from tests.test_obs_server import damaged_journal

TINY = dict(instructions=400, warmup=200)


pytestmark = pytest.mark.usefixtures("isolated_runtime")


def make_result(ipc):
    return SimResult(
        benchmark="gzip", strategy="Base", cycles=1000, retired=int(ipc * 1000),
        ipc=ipc, pct_tc_instructions=0.7, avg_trace_size=11.0,
        pct_deps_critical=0.4, pct_critical_inter_trace=0.3,
        critical_source={"same trace": 0.5}, producer_repetition={},
        pct_intra_cluster_forwarding=0.5, avg_forward_distance=0.8,
        option_counts={"A": 1}, fill_migration_rate=0.1,
        chain_migration_rate=0.0, pct_migrating_intra_cluster=0.4,
        mispredict_rate=0.03, tc_hit_rate=0.9, l1d_hit_rate=0.95)


#: (index, status, elapsed, reason, ipc of the result or None) for every
#: job-event shape: retry then done, hit, resumed, retry then failed
#: with a reason, failed without one.  Job 5 sees no event.
EVENTS = (
    (0, "retry", 0.0, "worker crash", None),
    (0, "done", 1.5, None, 0.5),
    (1, "hit", 0.0, None, 0.75),
    (2, "resumed", 0.0, None, 1.25),
    (3, "retry", 0.0, "timeout", None),
    (3, "failed", 0.0, "quarantined after 2 attempts", None),
    (4, "failed", 0.0, None, None),
)


def writer_journal(directory):
    """A journal written by driving a TelemetryWriter event by event;
    returns the writer."""
    jobs = [SimJob(benchmark=bench, spec=StrategySpec(kind=kind),
                   config=MachineConfig(), **TINY)
            for bench in ("gzip", "bzip2", "twolf")
            for kind in ("base", "fdrt")]
    writer = TelemetryWriter(str(directory))
    writer.start_run(jobs)
    for completed, (index, status, elapsed, reason, ipc) in enumerate(EVENTS):
        writer.record(JobEvent(
            index=index, total=len(jobs), job=jobs[index], status=status,
            elapsed=elapsed, completed=completed, source="inline",
            result=make_result(ipc) if ipc is not None else None,
            reason=reason))
    writer.finalize(EngineReport(total=len(jobs), executed=1, cache_hits=1,
                                 retried=2, resumed=1, failed=2),
                    status="partial")
    return writer


def parent_resume_state(directory):
    """``load_resume_state`` as it read the journal before it shared the
    fold: two loops, journal lines then manifest records."""
    results, failed = {}, {}
    records, torn = read_jsonl(os.path.join(directory, "events.jsonl"))
    for record in records:
        key = record.get("key")
        if record.get("event") != "job" or not key:
            continue
        if record.get("status") in ("done", "hit", "resumed"):
            payload = record.get("result")
            if payload is not None or key not in results:
                results[key] = payload
            failed.pop(key, None)
        elif record.get("status") == "failed":
            failed[key] = record.get("reason") or "failed"
    with open(os.path.join(directory, "manifest.json"),
              encoding="utf-8") as handle:
        manifest = json.load(handle)
    for record in manifest["jobs"]:
        key = record.get("key")
        if key and record.get("status") in ("executed", "hit", "resumed"):
            payload = record.get("result")
            if payload is not None or key not in results:
                results[key] = payload
            failed.pop(key, None)
    return results, failed, manifest.get("status"), torn


class TestOneFold:
    def test_folded_journal_gives_back_the_writer_records(self, tmp_path):
        writer = writer_journal(tmp_path)
        snapshot = json.loads(json.dumps(writer.jobs_snapshot()))
        journal = read_journal(str(tmp_path))
        assert sorted(journal.jobs) == [0, 1, 2, 3, 4]
        for index, folded in journal.jobs.items():
            record = snapshot[index]
            assert set(folded) <= set(record)
            assert {field: record[field] for field in folded} == folded
        assert [r["status"] for r in snapshot] == [
            "executed", "hit", "resumed", "failed", "failed", "pending"]
        assert snapshot[0]["retries"] == 1 and "reason" not in snapshot[0]
        assert snapshot[3]["reason"] == "quarantined after 2 attempts"
        [run] = journal.runs
        assert run["run_id"] == writer.run_id
        assert (run["status"], run["jobs"], run["executed"], run["retried"],
                run["resumed"], run["failed"]) == ("partial", 6, 1, 2, 1, 2)

    def test_resume_reads_the_journal_as_it_did(self, tmp_path):
        writer_journal(tmp_path)
        directory = damaged_journal(tmp_path, runs=0)
        state = load_resume_state(directory)
        assert (state.results, state.failed, state.manifest_status,
                state.torn_lines) == parent_resume_state(directory)
        assert state.completed == 3 and len(state.failed) == 2
        assert state.torn_lines == 1

    def test_the_run_start_after_a_torn_tail_survives(self, tmp_path):
        (tmp_path / "events.jsonl").write_text(
            '{"event": "job", "index": 0, "status": "re', encoding="utf-8")
        writer = TelemetryWriter(str(tmp_path))
        writer.start_run([], run_id="after-the-tear")
        records, torn = read_jsonl(writer.events_path)
        assert torn == 1
        assert [(r["event"], r["run_id"]) for r in records] == [
            ("run_start", "after-the-tear")]


class TestResumedDirectory:
    SWEEP = ["sweep", "--benchmarks", "gzip", "--strategies", "base,fdrt",
             "--instructions", "400", "--warmup", "200", "--jobs", "1"]

    def test_runs_and_top_name_each_run_by_its_id(self, tmp_path, capsys):
        directory = str(tmp_path / "telemetry")
        assert main(self.SWEEP + ["--telemetry-dir", directory]) == 0
        # Without --telemetry-dir the resumed run journals into the
        # directory it resumes from.
        assert main(self.SWEEP + ["--resume", directory]) == 0
        capsys.readouterr()
        runs = TelemetryServer(telemetry_dir=directory).runs()["runs"]
        assert len(runs) == 2
        assert runs[0]["run_id"] != runs[1]["run_id"]
        assert [run["executed"] for run in runs] == [2, 0]
        assert [run["resumed"] for run in runs] == [0, 2]
        assert [run["retried"] for run in runs] == [0, 0]
        out = io.StringIO()
        assert run_top(directory, stream=out, once=True) == 0
        rendered = out.getvalue()
        assert f"(run {runs[1]['run_id']}, complete)" in rendered
        assert "resumed 2" in rendered

    def test_a_torn_tail_keeps_each_result_on_its_own_key(self, tmp_path,
                                                           capsys):
        telemetry = tmp_path / "telemetry"
        directory = str(telemetry)
        assert main(self.SWEEP + ["--telemetry-dir", directory]) == 0
        # A killed writer's torn last line stays its own (skipped) line.
        damaged_journal(telemetry, runs=0)
        reordered = self.SWEEP[:4] + ["fdrt,base"] + self.SWEEP[5:]
        assert main(reordered + ["--resume", directory]) == 0
        capsys.readouterr()
        runs = TelemetryServer(telemetry_dir=directory).runs()["runs"]
        assert len(runs) == 2 and runs[0]["run_id"] != runs[1]["run_id"]
        assert runs[1]["started"] > 0 and runs[1]["resumed"] == 2
        labels = {job.key: job.spec.label for job in (
            SimJob(benchmark="gzip", spec=StrategySpec(kind=kind),
                   config=MachineConfig(), **TINY)
            for kind in ("base", "fdrt"))}
        newest = read_journal(directory).jobs
        assert [newest[index]["key"] for index in (0, 1)] == list(labels)[::-1]
        for record in newest.values():
            assert record["result"]["strategy"] == labels[record["key"]]
        # As if the resumed run had died before its manifest: the
        # journal alone must still give each key its own result.
        os.remove(os.path.join(directory, "manifest.json"))
        state = load_resume_state(directory)
        assert sorted(state.results) == sorted(labels)
        for key, payload in state.results.items():
            assert payload["strategy"] == labels[key]
