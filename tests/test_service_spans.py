"""Distributed-tracing integration tests: one SimJob, one trace.

The ISSUE 8 acceptance scenarios:

* one submit → worker → fetch round produces exactly one trace whose
  spans share a trace id and nest correctly (submit is the root, the
  worker's phase spans hang off its simulate span);
* ``REPRO_TRACE_SAMPLE=0`` leaves no trace artifacts anywhere and the
  results stay byte-identical;
* every HTTP response carries ``X-Repro-Request-Id`` and error bodies
  echo it;
* ``/metrics`` exports per-stage span summaries and the queue-wait
  summary; ``GET /spans`` serves the journal back;
* ``repro spans`` renders the waterfall; ``repro fetch`` prints the
  latency one-liner; the engine records ``engine.job`` roots locally.
"""

import io
import json
import os
import urllib.error
import urllib.request

import pytest

from repro.assign.base import StrategySpec
from repro.cluster.config import MachineConfig
from repro.obs.spans import TraceContext, read_spans
from repro.runtime import ExperimentEngine, ResultCache, SimJob
from repro.service import (
    ServiceServer,
    WorkerAgent,
    fetch_results,
    latency_breakdown,
    render_latency,
    submit_jobs,
)


pytestmark = pytest.mark.usefixtures("isolated_runtime")


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


def make_job(kind="base", instructions=2_000):
    return SimJob("gzip", StrategySpec(kind=kind), MachineConfig(),
                  instructions=instructions, warmup=1_000)


def run_round(server, tmp_path, job=None):
    """One traced submit → worker → fetch round; returns the results."""
    job = job or make_job()
    submit_jobs(server.url, [job])
    agent = WorkerAgent(
        server.url, name="w-spans", max_jobs=1, heartbeat_cycles=0,
        cache=ResultCache(root=str(tmp_path / "worker-cache"),
                          remote=False),
        stream=io.StringIO(),
    )
    assert agent.run() == 0
    assert agent.span_ship_errors == 0
    return fetch_results(server.url, [job], timeout=60)


# ----------------------------------------------------------------------
# The tentpole acceptance: one job, one contiguous trace.
# ----------------------------------------------------------------------
def test_one_round_yields_one_nested_trace(server, tmp_path):
    run_round(server, tmp_path)
    records = read_spans(server.data_dir)
    assert records, "no spans journaled"
    trace_ids = {record["trace"] for record in records}
    assert len(trace_ids) == 1, "one job must produce exactly one trace"
    by_name = {record["name"]: record for record in records}
    expected = {"client.submit", "queue.wait", "worker.claim",
                "cache.lookup", "worker.simulate", "cache.store",
                "worker.report", "queue.lease", "client.fetch"}
    assert expected <= set(by_name)
    root = by_name["client.submit"]
    assert "parent" not in root
    # Every hop's top-level span parents directly to the root.
    for name in ("queue.wait", "worker.claim", "worker.simulate",
                 "queue.lease", "client.fetch"):
        assert by_name[name]["parent"] == root["span"], name
    # The profiler's phase split nests under the simulate span.
    phases = [r for r in records if r.get("stage") == "phase"]
    assert phases
    assert all(r["parent"] == by_name["worker.simulate"]["span"]
               for r in phases)
    # And phase spans tile the simulate span from its start.
    sim = by_name["worker.simulate"]
    assert min(r["start"] for r in phases) == pytest.approx(sim["start"])
    assert max(r["end"] for r in phases) <= sim["end"] + 1e-6
    # Stage stamps cover the whole pipeline.
    stages = {record.get("stage") for record in records}
    assert {"submit", "queue", "claim", "cache", "simulate", "phase",
            "store", "report", "fetch"} <= stages
    # Spans are well-formed intervals.
    assert all(record["end"] >= record["start"] for record in records)


def test_queue_wait_span_matches_journal_times(server, tmp_path):
    job = make_job()
    run_round(server, tmp_path, job=job)
    entry = server.queue.get(job.key)
    waits = [record for record in read_spans(server.data_dir)
             if record["name"] == "queue.wait"]
    assert len(waits) == 1
    assert waits[0]["start"] == pytest.approx(entry.submitted)
    assert waits[0]["end"] == pytest.approx(entry.claimed, abs=0.05)


def test_sampling_zero_disables_tracing_and_keeps_results(
        server, tmp_path, monkeypatch):
    baseline = run_round(server, tmp_path)
    monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0")
    job = make_job(kind="fdrt")
    contexts = {}
    submit_jobs(server.url, [job], trace_contexts=contexts)
    assert contexts == {}
    agent = WorkerAgent(
        server.url, name="w-dark", max_jobs=1, heartbeat_cycles=0,
        cache=ResultCache(root=str(tmp_path / "dark-cache"), remote=False),
        stream=io.StringIO(),
    )
    assert agent.run() == 0
    [unsampled] = fetch_results(server.url, [job], timeout=60)
    # No trace leaked into the journal or the span file for this job.
    assert all(record["trace"] != job.key
               for record in read_spans(server.data_dir))
    assert server.queue.get(job.key).trace is None
    # And the simulation result is byte-identical to a traced run.
    engine = ExperimentEngine(
        jobs=1, cache=ResultCache(root=str(tmp_path / "truth"),
                                  remote=False))
    try:
        [truth] = engine.run([job])
    finally:
        engine.close()
    assert json.dumps(unsampled.to_dict(), sort_keys=True) == \
        json.dumps(truth.to_dict(), sort_keys=True)
    del baseline


def test_submission_stores_only_wellformed_sampled_traces(server):
    job = make_job()
    payload = dict(job.canonical())
    payload["trace"] = "garbage-not-a-traceparent"
    body = json.dumps(payload).encode()
    request = urllib.request.Request(
        f"{server.url}/jobs", data=body,
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=10) as response:
        assert json.load(response)["state"] == "pending"
    assert server.queue.get(job.key).trace is None


def test_traceparent_header_fallback(server):
    job = make_job()
    context = TraceContext.root(sample_rate=1.0)
    body = json.dumps(job.canonical()).encode()
    request = urllib.request.Request(
        f"{server.url}/jobs", data=body,
        headers={"Content-Type": "application/json",
                 "traceparent": context.to_header()},
        method="POST")
    with urllib.request.urlopen(request, timeout=10):
        pass
    assert server.queue.get(job.key).trace == context.to_header()


# ----------------------------------------------------------------------
# Satellites: request ids, metrics, /spans, latency line, CLI.
# ----------------------------------------------------------------------
def test_every_response_carries_request_id(server):
    with urllib.request.urlopen(f"{server.url}/healthz",
                                timeout=10) as response:
        assert response.headers.get("X-Repro-Request-Id")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(f"{server.url}/jobs/{'0' * 64}", timeout=10)
    error = excinfo.value
    rid = error.headers.get("X-Repro-Request-Id")
    assert rid
    assert json.load(error)["request_id"] == rid


def test_post_error_body_carries_request_id(server):
    request = urllib.request.Request(
        f"{server.url}/jobs", data=b"not json",
        headers={"Content-Type": "application/json"}, method="POST")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    body = json.load(excinfo.value)
    assert body["request_id"] == \
        excinfo.value.headers.get("X-Repro-Request-Id")


def test_metrics_export_span_and_queue_wait_summaries(server, tmp_path):
    run_round(server, tmp_path)
    with urllib.request.urlopen(f"{server.url}/metrics",
                                timeout=10) as response:
        text = response.read().decode()
    assert "repro_service_queue_wait_seconds_count 1" in text
    assert 'repro_service_queue_wait_seconds{quantile="0.5"}' in text
    assert 'repro_service_span_seconds{quantile="0.95",stage="simulate"}' \
        in text
    assert "repro_service_span_seconds_count" in text
    assert "repro_service_spans " in text


def test_get_spans_endpoint_filters(server, tmp_path):
    run_round(server, tmp_path)
    with urllib.request.urlopen(f"{server.url}/spans",
                                timeout=10) as response:
        document = json.load(response)
    assert document["count"] == len(document["spans"]) > 0
    trace_id = document["spans"][0]["trace"]
    with urllib.request.urlopen(
            f"{server.url}/spans?trace={trace_id}&limit=2",
            timeout=10) as response:
        filtered = json.load(response)
    assert filtered["count"] == 2
    assert all(record["trace"] == trace_id
               for record in filtered["spans"])


def test_latency_breakdown_and_render(server, tmp_path):
    job = make_job()
    run_round(server, tmp_path, job=job)
    breakdown = latency_breakdown(server.url, [job])
    assert breakdown is not None
    assert breakdown["jobs"] == 1
    assert breakdown["total"] >= breakdown["queue_wait"] >= 0.0
    line = render_latency(breakdown)
    assert line.startswith("latency: 1 job(s)")
    assert "queue-wait" in line and "submit->done" in line
    # A never-queued matrix has no timestamps: no line at all.
    assert render_latency(latency_breakdown(server.url,
                                            [make_job(kind="fdrt")])) == ""
    assert render_latency(None) == ""


def test_cli_spans_renders_and_exports(server, tmp_path, capsys):
    from repro.cli import main

    run_round(server, tmp_path)
    perfetto = tmp_path / "trace.json"
    assert main(["spans", str(server.data_dir), "--once",
                 "--perfetto", str(perfetto)]) == 0
    out = capsys.readouterr().out
    assert "client.submit" in out
    assert "stage" in out and "p95" in out
    document = json.loads(perfetto.read_text())
    assert any(event.get("ph") == "X"
               for event in document["traceEvents"])
    # The URL form serves the same records via GET /spans.
    assert main(["spans", server.url]) == 0
    assert "client.submit" in capsys.readouterr().out


def test_worker_local_span_file(server, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "local-spans"))
    run_round(server, tmp_path)
    local = read_spans(tmp_path / "local-spans")
    assert any(record["name"] == "worker.simulate" for record in local)


# ----------------------------------------------------------------------
# Engine-local tracing.
# ----------------------------------------------------------------------
def test_engine_records_job_spans_with_telemetry(tmp_path):
    telemetry = tmp_path / "telemetry"
    engine = ExperimentEngine(
        jobs=1, telemetry=str(telemetry),
        cache=ResultCache(root=str(tmp_path / "cache"), remote=False))
    try:
        engine.run([make_job()])
        engine.run([make_job()])        # second run: pure cache hit
    finally:
        engine.close()
    records = read_spans(telemetry)
    roots = [r for r in records if r["name"] == "engine.job"]
    assert len(roots) == 2
    assert {r["outcome"] for r in roots} == {"done", "hit"}
    assert all("parent" not in r for r in roots)
    assert all(r["run_id"] for r in roots)
    by_trace = {}
    for record in records:
        by_trace.setdefault(record["trace"], []).append(record)
    assert len(by_trace) == 2           # one trace per job execution
    # cache.lookup / cache.store nest under the executed job's root.
    executed = next(r for r in roots if r["outcome"] == "done")
    children = {r["name"] for r in by_trace[executed["trace"]]
                if r.get("parent") == executed["span"]}
    assert {"cache.lookup", "cache.store"} <= children


def test_engine_untraced_without_telemetry(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "plain-cache"))
    engine = ExperimentEngine(jobs=1)
    try:
        assert engine.spans is None
        engine.run([make_job()])
    finally:
        engine.close()
    assert not list(tmp_path.glob("**/spans.jsonl"))
