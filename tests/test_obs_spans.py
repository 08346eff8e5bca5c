"""Tests of the span model: contexts, sampling, recorder, rendering."""

import json
import os

import pytest

from repro.obs.spans import (
    LATENCY_BUCKETS,
    SPANS_FILENAME,
    Span,
    SpanRecorder,
    TraceContext,
    critical_path,
    group_traces,
    read_spans,
    render_critical_path,
    render_spans,
    spans_to_chrome,
    trace_sampled,
)
from repro.runtime.settings import setting


# ----------------------------------------------------------------------
# TraceContext / traceparent propagation.
# ----------------------------------------------------------------------
def test_header_round_trip():
    context = TraceContext.root(sample_rate=1.0)
    parsed = TraceContext.from_header(context.to_header())
    assert parsed is not None
    assert parsed.trace_id == context.trace_id
    assert parsed.span_id == context.span_id
    assert parsed.sampled is True


def test_unsampled_header_round_trip():
    context = TraceContext("a" * 32, "b" * 16, sampled=False)
    assert context.to_header().endswith("-00")
    parsed = TraceContext.from_header(context.to_header())
    assert parsed.sampled is False


@pytest.mark.parametrize("junk", [
    None,
    42,
    "",
    "not-a-header",
    "00-short-span-01",
    "00-" + "g" * 32 + "-" + "b" * 16 + "-01",       # non-hex trace
    "00-" + "0" * 32 + "-" + "b" * 16 + "-01",       # all-zero trace
    "00-" + "a" * 32 + "-" + "0" * 16 + "-01",       # all-zero span
    "ff-" + "a" * 32 + "-" + "b" * 16 + "-01",       # forbidden version
    "00-" + "a" * 32 + "-" + "b" * 16 + "-01-extra",
])
def test_malformed_headers_parse_to_none(junk):
    assert TraceContext.from_header(junk) is None


def test_child_keeps_trace_and_decision():
    parent = TraceContext.root(sample_rate=1.0)
    child = parent.child()
    assert child.trace_id == parent.trace_id
    assert child.span_id != parent.span_id
    assert child.sampled == parent.sampled


def test_sampling_is_deterministic_and_monotone():
    trace_id = "80000000" + "0" * 24  # hashes to exactly 0.5
    assert trace_sampled(trace_id, 1.0)
    assert not trace_sampled(trace_id, 0.0)
    assert not trace_sampled(trace_id, 0.5)   # 0.5 * 2^32 is not < itself
    assert trace_sampled(trace_id, 0.51)
    # Same id, same rate, same answer — any process agrees.
    assert trace_sampled("abc12345" + "f" * 24, 0.7) == trace_sampled(
        "abc12345" + "f" * 24, 0.7)


def test_root_respects_sample_rate_zero_and_one():
    assert TraceContext.root(sample_rate=0.0).sampled is False
    assert TraceContext.root(sample_rate=1.0).sampled is True


def test_resolve_trace_sample(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_SAMPLE", raising=False)
    assert setting("trace_sample") == 1.0
    monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0.25")
    assert setting("trace_sample") == 0.25
    monkeypatch.setenv("REPRO_TRACE_SAMPLE", "7")
    assert setting("trace_sample") == 1.0   # clamped
    monkeypatch.setenv("REPRO_TRACE_SAMPLE", "junk")
    with pytest.raises(ValueError):
        setting("trace_sample")
    assert setting("trace_sample", 0.5) == 0.5


def test_resolve_trace_dir(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
    assert setting("trace_dir") is None
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
    assert setting("trace_dir") == str(tmp_path)
    assert setting("trace_dir", "explicit") == "explicit"


# ----------------------------------------------------------------------
# SpanRecorder.
# ----------------------------------------------------------------------
def test_recorder_writes_jsonl(tmp_path):
    recorder = SpanRecorder(directory=tmp_path, run_id="run-1")
    context = TraceContext.root(sample_rate=1.0)
    span = recorder.start("client.submit", context, stage="submit",
                          root=True, key="k1")
    recorder.finish(span, state="pending")
    records = read_spans(tmp_path)
    assert len(records) == 1
    record = records[0]
    assert record["trace"] == context.trace_id
    assert record["span"] == context.span_id        # root span IS the context
    assert "parent" not in record
    assert record["stage"] == "submit"
    assert record["key"] == "k1"
    assert record["state"] == "pending"
    assert record["run_id"] == "run-1"
    assert record["end"] >= record["start"]


def test_child_span_parents_to_context():
    recorder = SpanRecorder(keep=True)
    context = TraceContext.root(sample_rate=1.0)
    span = recorder.start("worker.claim", context, stage="claim")
    recorder.finish(span)
    [record] = recorder.drain()
    assert record["parent"] == context.span_id
    assert record["span"] != context.span_id


def test_ambient_context_stack():
    recorder = SpanRecorder()
    assert recorder.current() is None
    a = TraceContext.root(sample_rate=1.0)
    b = TraceContext.root(sample_rate=1.0)
    recorder.push(a)
    recorder.push(b)
    assert recorder.current() is b
    assert recorder.pop() is b
    assert recorder.current() is a
    assert recorder.pop() is a
    assert recorder.pop() is None


def test_recorder_fail_soft_on_unwritable_directory(tmp_path, capsys):
    target = tmp_path / "spans"
    target.mkdir()
    os.chmod(target, 0o500)
    try:
        recorder = SpanRecorder(directory=target)
        context = TraceContext.root(sample_rate=1.0)
        recorder.finish(recorder.start("x", context))
        recorder.finish(recorder.start("y", context))
    finally:
        os.chmod(target, 0o700)
    if os.access(target / SPANS_FILENAME, os.W_OK):
        pytest.skip("running as root: cannot provoke EACCES")
    assert recorder.write_errors == 2
    assert recorder.recorded == 2
    # Warned exactly once.
    assert capsys.readouterr().err.count("span write failed") == 1


def test_ingest_validates_minimally(tmp_path):
    recorder = SpanRecorder(directory=tmp_path)
    good = {"trace": "t" * 32, "span": "s" * 16, "name": "n",
            "start": 1.0, "end": 2.0}
    accepted = recorder.ingest([
        good,
        "not a dict",
        {"span": "s", "start": 1.0, "end": 2.0},        # no trace
        {"trace": "t", "span": "s", "start": "x", "end": 2.0},
        None,
    ])
    assert accepted == 1
    assert read_spans(tmp_path) == [good]


def test_read_spans_tolerates_torn_tail(tmp_path):
    path = tmp_path / SPANS_FILENAME
    whole = json.dumps({"trace": "t" * 32, "span": "a", "start": 1.0,
                        "end": 2.0, "name": "ok"})
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(whole + "\n")
        handle.write('{"trace": "torn mid-wri')       # killed mid-append
    records = read_spans(tmp_path)
    assert len(records) == 1
    assert records[0]["name"] == "ok"
    assert read_spans(path) == records                # file path works too
    assert read_spans(tmp_path / "missing") == []


def test_observer_is_fail_soft():
    recorder = SpanRecorder(keep=True)
    seen = []

    def observer(record):
        seen.append(record["name"])
        raise RuntimeError("observer bug")

    recorder.observer = observer
    context = TraceContext.root(sample_rate=1.0)
    recorder.finish(recorder.start("a", context))   # must not raise
    assert seen == ["a"]


# ----------------------------------------------------------------------
# Grouping, rendering, export.
# ----------------------------------------------------------------------
def _spans_fixture():
    return [
        {"trace": "t1", "span": "r1", "name": "client.submit",
         "stage": "submit", "start": 100.0, "end": 100.1, "status": "ok",
         "label": "gzip × Base"},
        {"trace": "t1", "span": "q1", "parent": "r1", "name": "queue.wait",
         "stage": "queue", "start": 100.1, "end": 100.5, "status": "ok"},
        {"trace": "t1", "span": "s1", "parent": "r1",
         "name": "worker.simulate", "stage": "simulate", "start": 100.5,
         "end": 101.5, "status": "ok"},
        {"trace": "t1", "span": "p1", "parent": "s1", "name": "phase.fetch",
         "stage": "phase", "start": 100.5, "end": 100.9, "status": "ok"},
        {"trace": "t2", "span": "r2", "name": "client.submit",
         "stage": "submit", "start": 50.0, "end": 50.2, "status": "error"},
    ]


def test_group_traces_orders_by_earliest_start():
    traces = group_traces(_spans_fixture())
    assert list(traces) == ["t2", "t1"]
    assert [record["span"] for record in traces["t1"]][:2] == ["r1", "q1"]


def test_render_spans_waterfall():
    text = render_spans(_spans_fixture())
    assert "trace t1" in text and "trace t2" in text
    assert "gzip × Base" in text
    assert "█" in text
    assert "[error]" in text
    # Child spans are depth-indented under their parents.
    assert "    phase.fetch" in text
    assert render_spans([]) == "no spans recorded"


def test_render_spans_plain_by_default_colored_on_request():
    plain = render_spans(_spans_fixture())
    assert "\x1b[" not in plain
    colored = render_spans(_spans_fixture(), ansi=True)
    assert "\x1b[" in colored
    # Color only wraps in escapes; stripping them recovers the text.
    import re
    assert re.sub(r"\x1b\[[0-9;]*m", "", colored) == plain


def test_render_spans_respects_limit():
    text = render_spans(_spans_fixture(), limit=1)
    assert "more trace(s)" in text


def test_critical_path_summary():
    summary = critical_path(_spans_fixture())
    assert set(summary) == {"submit", "queue", "simulate", "phase"}
    assert summary["simulate"]["count"] == 1
    assert summary["simulate"]["sum"] == pytest.approx(1.0)
    assert summary["submit"]["count"] == 2
    text = render_critical_path(_spans_fixture())
    # Stages render in pipeline order, not alphabetical.
    assert text.index("submit") < text.index("queue") < text.index("simulate")
    assert render_critical_path([]) == "no staged spans recorded"


def test_latency_buckets_are_subsecond_resolution():
    assert LATENCY_BUCKETS[0] < 0.01
    assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)


def test_spans_to_chrome_export():
    document = spans_to_chrome(_spans_fixture())
    events = document["traceEvents"]
    slices = [e for e in events if e["ph"] == "X"]
    assert len(slices) == len(_spans_fixture())
    assert all(e["pid"] == 1 for e in slices)
    # Earliest span anchors ts=0; durations are microseconds.
    sim = next(e for e in slices if e["name"] == "worker.simulate")
    assert sim["dur"] == pytest.approx(1e6)
    assert min(e["ts"] for e in slices) == pytest.approx(0.0)
    names = [e["args"]["name"] for e in events if e["ph"] == "M"]
    assert any("trace t1" in n for n in names)


def test_spans_to_chrome_merges_cycle_trace():
    cycle = {"traceEvents": [{"name": "cycle", "ph": "X", "pid": 0,
                              "tid": 0, "ts": 0, "dur": 1}],
             "otherData": {"benchmark": "gzip"}}
    document = spans_to_chrome(_spans_fixture(), cycle_trace=cycle)
    assert document["traceEvents"][0]["name"] == "cycle"
    assert document["otherData"]["benchmark"] == "gzip"
    assert document["otherData"]["exporter"] == "repro spans"


def test_span_to_record_defaults():
    span = Span("t" * 32, "s" * 16, None, "n", start=5.0)
    record = span.to_record()
    assert record["end"] == 5.0           # unfinished: end defaults to start
    assert "stage" not in record
    assert "parent" not in record
