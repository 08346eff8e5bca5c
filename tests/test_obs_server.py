"""Tests for the live telemetry HTTP exporter and the `repro top` client."""

import io
import json
import urllib.request

import pytest

from repro.assign.base import StrategySpec
from repro.cluster.config import MachineConfig
from repro.obs import MetricsRegistry
from repro.obs.server import (
    JOB_STATES,
    PROMETHEUS_CONTENT_TYPE,
    PrometheusText,
    TelemetryServer,
    prom_labels,
    prom_name,
    prom_value,
    registry_to_prometheus,
)
from repro.runtime import ExperimentEngine, SimJob
from repro.runtime import settings

TINY = dict(instructions=400, warmup=200)


@pytest.fixture(autouse=True)
def isolated_runtime(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for var in ("REPRO_NO_CACHE", "REPRO_JOBS", "REPRO_TELEMETRY_DIR",
                "REPRO_SERVE_PORT", "REPRO_HEARTBEAT_CYCLES",
                "REPRO_STALE_AFTER"):
        monkeypatch.delenv(var, raising=False)
    settings.configure(jobs=None, cache=None, telemetry_dir=None,
                       serve=None)
    yield
    settings.configure(jobs=None, cache=None, telemetry_dir=None,
                       serve=None)


def make_jobs(benches=("gzip", "bzip2")):
    return [SimJob(benchmark=b, spec=StrategySpec(kind="base"),
                   config=MachineConfig(), **TINY) for b in benches]


def parse_prometheus(text):
    """Minimal exposition-format parser: {name: [(labels, value)]}."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            if line.startswith("# TYPE"):
                parts = line.split()
                assert len(parts) == 4, f"malformed TYPE line: {line!r}"
                assert parts[3] in ("counter", "gauge", "summary")
            continue
        name_part, value = line.rsplit(" ", 1)
        if "{" in name_part:
            name, label_part = name_part.split("{", 1)
            labels = label_part.rstrip("}")
        else:
            name, labels = name_part, ""
        float(value)  # must parse
        samples.setdefault(name, []).append((labels, float(value)))
    return samples


class TestPromPrimitives:
    def test_prom_name_sanitises_and_prefixes(self):
        assert prom_name("engine.job_state") == "repro_engine_job_state"
        assert prom_name("repro_x") == "repro_x"
        assert prom_name("a-b c") == "repro_a_b_c"

    def test_prom_labels_sorted_and_escaped(self):
        rendered = prom_labels({"b": 'say "hi"', "a": 1})
        assert rendered == '{a="1",b="say \\"hi\\""}'
        assert prom_labels({}) == ""

    def test_prom_value_forms(self):
        assert prom_value(3) == "3"
        assert prom_value(True) == "1"
        assert prom_value(float("nan")) == "NaN"
        assert prom_value(float("inf")) == "+Inf"
        assert prom_value(0.25) == "0.25"
        assert prom_value("junk") == "NaN"

    def test_one_type_line_per_family(self):
        text = PrometheusText()
        text.sample("engine.total", "counter", 1)
        text.sample("engine.total", "counter", 2)
        rendered = text.render()
        assert rendered.count("# TYPE repro_engine_total counter") == 1


class TestRegistryExport:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("steps", cluster=1).inc(5)
        registry.gauge("ipc").set(1.25)
        hist = registry.histogram("latency", buckets=(1, 2, 4))
        for value in (0.5, 1.5, 3.0):
            hist.observe(value)
        text = registry_to_prometheus(registry).render()
        samples = parse_prometheus(text)
        assert samples["repro_steps"] == [('cluster="1"', 5.0)]
        assert samples["repro_ipc"] == [("", 1.25)]
        quantiles = dict(samples["repro_latency"])
        assert set(quantiles) == {'quantile="0.5"', 'quantile="0.95"',
                                  'quantile="0.99"'}
        assert samples["repro_latency_count"] == [("", 3.0)]
        assert samples["repro_latency_sum"] == [("", 5.0)]


def damaged_journal(directory, runs=1):
    """A telemetry directory whose journal holds ``runs`` runs of two
    jobs, a blank line after the first record and a torn tail."""
    for _ in range(runs):
        ExperimentEngine(jobs=1, telemetry=str(directory)).run(make_jobs())
    path = directory / "events.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines.insert(1, "\n")
    lines.append('{"event": "job", "index": 0, "status": "re')
    path.write_text("".join(lines), encoding="utf-8")
    return str(directory)


def serve_engine(**engine_kwargs):
    engine = ExperimentEngine(jobs=1, serve=0, **engine_kwargs)
    assert engine.server is not None, "ephemeral-port server must start"
    return engine


def fetch(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, dict(response.headers), response.read()


class TestTelemetryServer:
    def test_metrics_parse_and_cover_engine_states(self, tmp_path):
        engine = serve_engine(telemetry=str(tmp_path / "t"))
        try:
            engine.run(make_jobs())
            status, headers, body = fetch(engine.server.url + "/metrics")
            assert status == 200
            assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
            samples = parse_prometheus(body.decode())
            assert samples["repro_engine_total"] == [("", 2.0)]
            assert samples["repro_engine_executed"] == [("", 2.0)]
            states = dict(samples["repro_engine_job_state"])
            assert set(states) == {f'state="{s}"' for s in JOB_STATES}
            assert states['state="executed"'] == 2.0
            # Worker profiling rides in via heartbeats when serving.
            assert "repro_profile_seconds" in samples
            assert "repro_engine_job_seconds" in samples
        finally:
            engine.close()

    def test_jobs_document_matches_journal(self, tmp_path):
        tdir = tmp_path / "t"
        engine = serve_engine(telemetry=str(tdir))
        try:
            jobs = make_jobs()
            engine.run(jobs)
            _, _, body = fetch(engine.server.url + "/jobs")
            document = json.loads(body)
            with open(tdir / "events.jsonl", encoding="utf-8") as handle:
                events = [json.loads(line) for line in handle]
            done = [e for e in events
                    if e["event"] == "job" and e["status"] == "done"]
            by_index = {record["index"]: record
                        for record in document["jobs"]}
            assert len(by_index) == len(jobs)
            for event in done:
                record = by_index[event["index"]]
                assert record["status"] == "executed"
                assert record["key"] == event["key"]
                assert record["ipc"] == pytest.approx(event["ipc"])
            assert document["report"]["executed"] == len(done)
            assert "cache" in document
        finally:
            engine.close()

    def test_runs_and_healthz_endpoints(self, tmp_path):
        engine = serve_engine(telemetry=str(tmp_path / "t"))
        try:
            engine.run(make_jobs(("gzip",)))
            _, _, body = fetch(engine.server.url + "/runs")
            runs = json.loads(body)["runs"]
            assert runs and runs[-1]["status"] == "complete"
            _, _, body = fetch(engine.server.url + "/healthz")
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["scrapes"] >= 1
        finally:
            engine.close()

    def test_runs_skip_torn_and_blank_journal_lines(self, tmp_path):
        directory = damaged_journal(tmp_path / "t", runs=2)
        runs = TelemetryServer(telemetry_dir=directory).runs()["runs"]
        assert [run["status"] for run in runs] == ["complete", "complete"]
        assert [run["executed"] for run in runs] == [2, 0]

    def test_unknown_endpoint_404s(self, tmp_path):
        engine = serve_engine(telemetry=str(tmp_path / "t"))
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(engine.server.url + "/nope")
            assert excinfo.value.code == 404
        finally:
            engine.close()

    def test_server_without_telemetry_dir_still_serves(self):
        engine = serve_engine()
        try:
            engine.run(make_jobs(("gzip",)))
            _, _, body = fetch(engine.server.url + "/metrics")
            samples = parse_prometheus(body.decode())
            assert samples["repro_engine_executed"] == [("", 1.0)]
            # Heartbeats landed in the private temp dir.
            assert "repro_worker_cycles" in samples
        finally:
            engine.close()

    def test_bind_failure_degrades_engine(self, tmp_path, capsys):
        blocker = TelemetryServer(port=0)
        blocker.start()
        try:
            engine = ExperimentEngine(jobs=1, serve=blocker.port)
            assert engine.server is None
            results = engine.run(make_jobs(("gzip",)))
            assert results[0] is not None
            engine.close()
        finally:
            blocker.stop()
        assert "telemetry server disabled" in capsys.readouterr().err

    def test_serve_results_byte_identical_to_plain(self, tmp_path):
        jobs = make_jobs()
        plain = ExperimentEngine(jobs=1, cache=False).run(jobs)
        served_engine = serve_engine(cache=False,
                                     telemetry=str(tmp_path / "t"))
        try:
            served = served_engine.run(jobs)
        finally:
            served_engine.close()
        assert [r.to_dict() for r in served] == [
            r.to_dict() for r in plain]


class TestReproTop:
    def test_dir_snapshot_renders_table(self, tmp_path):
        from repro.obs.top import run_top

        tdir = tmp_path / "t"
        engine = ExperimentEngine(jobs=1, telemetry=str(tdir))
        engine.run(make_jobs())
        out = io.StringIO()
        assert run_top(str(tdir), stream=out, once=True) == 0
        rendered = out.getvalue()
        assert "gzip × Base" in rendered
        assert "executed" in rendered
        assert "jobs 2/2 done" in rendered
        assert "\x1b[" not in rendered, "non-TTY output must be plain"

    def test_dir_snapshot_skips_torn_and_blank_journal_lines(self,
                                                            tmp_path):
        from repro.obs.top import read_dir_state

        state = read_dir_state(damaged_journal(tmp_path / "t"))
        assert state["status"] == "complete"
        assert [job["status"] for job in state["jobs"]] == ["executed"] * 2
        assert [job["retries"] for job in state["jobs"]] == [0, 0]

    def test_url_snapshot_renders_table(self, tmp_path):
        from repro.obs.top import run_top

        engine = serve_engine(telemetry=str(tmp_path / "t"))
        try:
            engine.run(make_jobs(("gzip",)))
            out = io.StringIO()
            assert run_top(engine.server.url, stream=out, once=True) == 0
            assert "gzip × Base" in out.getvalue()
        finally:
            engine.close()

    def test_follow_mode_exits_when_run_finishes(self, tmp_path):
        from repro.obs.top import run_top

        tdir = tmp_path / "t"
        ExperimentEngine(jobs=1, telemetry=str(tdir)).run(
            make_jobs(("gzip",)))
        out = io.StringIO()
        # Not --once: the finished journal must end the loop by itself.
        assert run_top(str(tdir), stream=out, once=False,
                       _sleep=lambda s: None) == 0

    def test_empty_directory_reports_no_data(self, tmp_path):
        from repro.obs.top import run_top

        out = io.StringIO()
        assert run_top(str(tmp_path), stream=out, once=True) == 0
        assert "no run data yet" in out.getvalue()

    def test_trend_column_shows_interval_ipc_sparkline(self):
        from repro.obs.top import render_state, update_trends

        def document(window_ipc):
            return {"jobs": [{
                "index": 0, "status": "pending", "label": "gzip × fdrt",
                "heartbeat": {"cycles": 1000, "retired": 500,
                              "ipc": 0.5, "elapsed": 1.0, "age": 0.1,
                              "interval": {"ipc": window_ipc}},
            }]}

        trends = {}
        # Three refreshes with rising windowed IPC build a live series.
        for ipc in (0.2, 0.9, 1.8):
            update_trends(document(ipc), trends)
        assert trends[0] == [0.2, 0.9, 1.8]
        rendered = render_state(document(1.8), trends=trends)
        assert "trend" in rendered
        # A rising series renders low→high sparkline ticks.
        assert "▁" in rendered and "█" in rendered

    def test_trend_series_is_capped(self):
        from repro.obs.top import TREND_POINTS, update_trends

        doc = {"jobs": [{"index": 0, "status": "pending", "label": "x",
                         "heartbeat": {"ipc": 0.5, "elapsed": 1.0,
                                       "interval": {"ipc": 0.5}}}]}
        trends = {}
        for _ in range(TREND_POINTS * 3):
            update_trends(doc, trends)
        assert len(trends[0]) == TREND_POINTS

    def test_ansi_mode_colors_and_clears(self, tmp_path):
        from repro.obs.top import run_top

        tdir = tmp_path / "t"
        ExperimentEngine(jobs=1, telemetry=str(tdir)).run(
            make_jobs(("gzip",)))
        out = io.StringIO()
        run_top(str(tdir), stream=out, once=True, ansi=True)
        assert "\x1b[H\x1b[2J" in out.getvalue()
        assert "\x1b[32m" in out.getvalue()  # executed → green


class TestCliSweepServe:
    def test_sweep_with_serve_flag(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "sweep", "--benchmarks", "gzip", "--strategies", "base",
            "--instructions", "400", "--warmup", "200",
            "--serve", "0", "--telemetry-dir", str(tmp_path / "t"),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "telemetry server listening on" in err

    def test_cli_top_once(self, tmp_path, capsys):
        from repro.cli import main

        tdir = tmp_path / "t"
        ExperimentEngine(jobs=1, telemetry=str(tdir)).run(
            make_jobs(("gzip",)))
        assert main(["top", str(tdir), "--once"]) == 0
        assert "gzip × Base" in capsys.readouterr().out

    def test_cli_profile(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "prof.json"
        code = main(["profile", "gzip", "--instructions", "400",
                     "--warmup", "200", "--out", str(out_path)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "execute" in captured
        doc = json.loads(out_path.read_text())
        assert doc["profiles"][0]["type"] == "evented"
