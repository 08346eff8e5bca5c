"""End-to-end tests of the analysis & regression subsystem.

Covers the issue's acceptance flows at tiny budgets: a sweep with
telemetry feeds ``repro analyze``; ``repro baseline capture`` +
``repro diff`` exit 0 on an unmodified run and 1 when an IPC-relevant
drop is injected (shrinking the machine); and per-benchmark stall
categories decompose the measured IPC gap within 1%.
"""

import json

import pytest

from repro.analysis import (
    Attribution,
    analyze_manifest,
    capture_baseline,
    diff_sources,
    load_baseline,
    metric_direction,
    metrics_from_result,
    write_baseline,
)
from repro.analysis.baseline import (
    ABSOLUTE_BAND_FLOOR,
    METRIC_DIRECTIONS,
    noise_band,
)
from repro.analysis.diffing import MetricDelta
from repro.assign.base import StrategySpec
from repro.cli import main
from repro.cluster.config import MachineConfig
from repro.core.simulator import simulate
from repro.obs import load_manifest
from repro.runtime import ExperimentEngine, SimJob, settings

TINY = ("--instructions", "400", "--warmup", "200")


@pytest.fixture(autouse=True)
def isolated_runtime(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_TELEMETRY_DIR", raising=False)
    settings.configure(jobs=None, cache=None, telemetry_dir=None)
    yield
    settings.configure(jobs=None, cache=None, telemetry_dir=None)


@pytest.fixture(scope="module")
def tiny_result():
    return simulate("gzip", StrategySpec(kind="base"),
                    instructions=400, warmup=200)


class TestAttribution:
    def test_gap_decomposed_within_one_percent(self, tiny_result):
        attribution = Attribution.from_result(tiny_result)
        assert attribution.gap_error() < 0.01

    def test_round_trips_through_json(self, tiny_result):
        payload = json.loads(json.dumps(tiny_result.to_dict()))
        attribution = Attribution.from_result(payload)
        assert attribution.ipc == pytest.approx(tiny_result.ipc)
        assert attribution.gap_error() < 0.01

    def test_render_and_markdown(self, tiny_result):
        attribution = Attribution.from_result(tiny_result)
        text = attribution.render()
        assert "gzip" in text and "IPC" in text and "% gap" in text
        markdown = attribution.to_markdown()
        assert markdown.startswith("### gzip × Base")
        assert "| category |" in markdown


class TestBaseline:
    def test_metrics_from_result(self, tiny_result):
        metrics = metrics_from_result(tiny_result)
        assert set(METRIC_DIRECTIONS) <= set(metrics)
        assert any(name.startswith("stall.") for name in metrics)
        assert metrics["ipc"] == pytest.approx(tiny_result.ipc)

    def test_metric_directions(self):
        assert metric_direction("ipc") == "higher"
        assert metric_direction("mispredict_rate") == "lower"
        assert metric_direction("stall.mem_latency") == "info"

    def test_noise_band_floors(self):
        assert noise_band(0.0, []) == ABSOLUTE_BAND_FLOOR
        assert noise_band(10.0, [10.0]) == pytest.approx(0.1)  # 1% floor
        assert noise_band(10.0, [9.0, 10.5]) == pytest.approx(1.0)

    def test_capture_write_load_roundtrip(self, tmp_path):
        document = capture_baseline(
            ["gzip"], [StrategySpec(kind="base")], config=MachineConfig(),
            machine="base", instructions=400, warmup=200, seeds=(1,),
        )
        assert set(document["entries"]) == {"gzip|Base"}
        entry = document["entries"]["gzip|Base"]
        for cell in entry["metrics"].values():
            assert cell["band"] > 0
        path = write_baseline(str(tmp_path / "b" / "base.json"), document)
        assert load_baseline(path)["entries"] == document["entries"]

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "entries": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_baseline(str(path))


class TestMetricDelta:
    def test_higher_is_better(self):
        drop = MetricDelta("ipc", before=1.0, after=0.8, band=0.05,
                           direction="higher")
        assert drop.regression and not drop.improvement
        gain = MetricDelta("ipc", before=1.0, after=1.2, band=0.05,
                           direction="higher")
        assert gain.improvement and not gain.regression
        within = MetricDelta("ipc", before=1.0, after=0.97, band=0.05,
                             direction="higher")
        assert not within.regression

    def test_lower_is_better(self):
        worse = MetricDelta("mispredict_rate", before=0.05, after=0.2,
                            band=0.01, direction="lower")
        assert worse.regression

    def test_info_never_gates(self):
        delta = MetricDelta("stall.mem_latency", before=1.0, after=9.0,
                            band=0.01, direction="info")
        assert not delta.regression and not delta.improvement


class TestEndToEnd:
    """The issue's acceptance flows, via the CLI."""

    def sweep(self, tdir, *extra):
        code = main(["sweep", "--benchmarks", "gzip",
                     "--strategies", "base,fdrt", *TINY,
                     "--telemetry-dir", str(tdir), *extra])
        assert code == 0

    def test_sweep_then_analyze(self, tmp_path, capsys):
        tdir = tmp_path / "telemetry"
        self.sweep(tdir)
        markdown = tmp_path / "report.md"
        code = main(["analyze", str(tdir), "--markdown", str(markdown)])
        out = capsys.readouterr().out
        assert code == 0
        assert "IPC-loss attribution" in out
        assert "gzip × Base" in out and "gzip × FDRT" in out
        assert "assignment quality" in out
        text = markdown.read_text()
        assert "# Performance analysis" in text
        assert "## Assignment quality" in text

    def test_manifest_attributions_decompose_gap(self, tmp_path):
        tdir = tmp_path / "telemetry"
        self.sweep(tdir)
        manifest = load_manifest(str(tdir))
        results = [job["result"] for job in manifest["jobs"]]
        assert all(results)
        for result in results:
            assert Attribution.from_result(result).gap_error() < 0.01

    def test_diff_unmodified_exits_zero(self, tmp_path, capsys):
        tdir = tmp_path / "telemetry"
        self.sweep(tdir)
        baseline = tmp_path / "baselines" / "base.json"
        code = main(["baseline", "capture", "--out", str(baseline),
                     "--benchmarks", "gzip", "--strategies", "base,fdrt",
                     *TINY, "--seeds", "1"])
        assert code == 0
        code = main(["diff", str(tdir), "--against", str(baseline)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 regression(s)" in out

    def test_diff_detects_injected_drop(self, tmp_path, capsys):
        # Shrink the machine (8-wide, two clusters): trace-cache and
        # IPC-relevant metrics leave their noise bands -> exit 1.
        baseline = tmp_path / "baselines" / "base.json"
        code = main(["baseline", "capture", "--out", str(baseline),
                     "--benchmarks", "gzip", "--strategies", "base",
                     *TINY, "--seeds", "1"])
        assert code == 0
        narrow = tmp_path / "telemetry-narrow"
        code = main(["sweep", "--benchmarks", "gzip",
                     "--strategies", "base", *TINY,
                     "--machine", "two-cluster",
                     "--telemetry-dir", str(narrow)])
        assert code == 0
        code = main(["diff", str(narrow), "--against", str(baseline)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION" in out

    def test_diff_run_against_itself(self, tmp_path, capsys):
        tdir = tmp_path / "telemetry"
        self.sweep(tdir)
        code = main(["diff", str(tdir), str(tdir)])
        assert code == 0

    def test_diff_markdown_report(self, tmp_path, capsys):
        tdir = tmp_path / "telemetry"
        self.sweep(tdir)
        markdown = tmp_path / "diff.md"
        code = main(["diff", str(tdir), str(tdir),
                     "--markdown", str(markdown)])
        assert code == 0
        assert "# Run diff" in markdown.read_text()

    def test_missing_entries_gate(self, tmp_path, capsys):
        tdir = tmp_path / "telemetry"
        self.sweep(tdir)
        baseline = tmp_path / "baselines" / "base.json"
        code = main(["baseline", "capture", "--out", str(baseline),
                     "--benchmarks", "gzip,twolf",
                     "--strategies", "base,fdrt", *TINY, "--seeds", "1"])
        assert code == 0
        # The sweep only ran gzip: twolf entries are missing -> exit 1.
        code = main(["diff", str(tdir), "--against", str(baseline)])
        out = capsys.readouterr().out
        assert code == 1
        assert "MISSING" in out


class TestDiffSources:
    def test_rejects_unrecognised_document(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"neither": True}))
        with pytest.raises(ValueError, match="neither"):
            diff_sources(str(path), str(path))

    def test_seeded_replicates_excluded_from_manifests(self, tmp_path):
        baseline = tmp_path / "base.json"
        tdir = tmp_path / "telemetry"
        code = main(["baseline", "capture", "--out", str(baseline),
                     "--benchmarks", "gzip", "--strategies", "base",
                     *TINY, "--seeds", "1",
                     "--telemetry-dir", str(tdir)])
        assert code == 0
        # The capture ran 2 jobs (default seed + replicate), but the
        # manifest-derived metrics keep only the default-seed entry.
        from repro.analysis.diffing import entries_from_manifest
        entries = entries_from_manifest(load_manifest(str(tdir)))
        assert set(entries) == {"gzip|Base"}


SHA_A = "a" * 40
SHA_B = "b" * 40


def write_baseline_doc(path, sha, ipc=1.5, dirty=False):
    document = {
        "schema": 1,
        "created": 0.0,
        "git_sha": sha,
        "git_dirty": dirty,
        "machine": "base",
        "instructions": 400,
        "warmup": 200,
        "seeds": [1],
        "entries": {
            "gzip|Base": {
                "benchmark": "gzip",
                "strategy": "Base",
                "metrics": {
                    "ipc": {"value": ipc, "mean": ipc, "band": 0.02},
                },
            },
        },
    }
    path.write_text(json.dumps(document))
    return str(path)


class TestDiffProvenance:
    def test_sha_mismatch_noted_and_in_json(self, tmp_path, capsys):
        a = write_baseline_doc(tmp_path / "a.json", SHA_A)
        b = write_baseline_doc(tmp_path / "b.json", SHA_B, dirty=True)
        assert main(["diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "different commits" in out
        assert "dirty working tree" in out
        assert main(["diff", a, b, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["exit_code"] == 0
        assert any("different commits" in note
                   for note in document["notes"])

    def test_same_sha_no_note_and_regression_gates(self, tmp_path,
                                                   capsys):
        a = write_baseline_doc(tmp_path / "a.json", SHA_A)
        b = write_baseline_doc(tmp_path / "b.json", SHA_A, ipc=1.2)
        assert main(["diff", a, b, "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["notes"] == []
        assert document["exit_code"] == 1
        flags = [m["flag"] for e in document["entries"]
                 for m in e["metrics"]]
        assert "REGRESSION" in flags

    def test_baseline_capture_records_dirty_flag(self):
        document = capture_baseline(
            ["gzip"], [StrategySpec(kind="base")],
            config=MachineConfig(),
            machine="base", instructions=400, warmup=200, seeds=[1])
        assert "git_dirty" in document
        assert "git_sha" in document


class TestAnalyzeJson:
    def test_analyze_json_document(self, tmp_path, capsys):
        tdir = tmp_path / "telemetry"
        ExperimentEngine(jobs=1, telemetry=str(tdir)).run(
            [SimJob(benchmark="gzip", spec=StrategySpec(kind="fdrt"),
                    config=MachineConfig(),
                    instructions=400, warmup=200)])
        assert main(["analyze", str(tdir), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["attributions"][0]["benchmark"] == "gzip"
        assert document["quality"][0]["option_mix"]
        assert document["engine"]["total"] == 1


class TestAnalyzeManifest:
    def test_empty_manifest(self):
        report = analyze_manifest({"jobs": []})
        assert "no job results" in report.render()

    def test_v1_manifest_without_results(self):
        report = analyze_manifest(
            {"jobs": [{"index": 0, "status": "hit"}]})
        assert report.attributions == []
