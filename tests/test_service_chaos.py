"""Chaos-tier tests: proxy fault injection, hardened transport,
breakers, load shedding, drain, and read-only degradation.

The full multi-process soak lives behind ``repro chaos`` (exercised by
the CI ``chaos-service`` job); these tests drive every ingredient
in-process against a real :class:`ServiceServer` socket.
"""

import contextlib
import json
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.assign.base import StrategySpec
from repro.cluster.config import MachineConfig
from repro.resilience import ChaosProxy, CircuitBreaker, FaultPlan, FaultSpec
from repro.resilience.retry import deterministic_jitter
from repro.runtime import SimJob
from repro.runtime import settings
from repro.service import ServiceServer, ServiceTransport, ServiceUnavailable


@pytest.fixture(autouse=True)
def isolated_runtime(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_SERVICE_URL", raising=False)
    monkeypatch.delenv("REPRO_QUEUE_LIMIT", raising=False)
    settings.configure(jobs=None, cache=None, service_url=None)
    yield
    settings.configure(jobs=None, cache=None, service_url=None)


def make_job(**overrides) -> SimJob:
    fields = dict(
        benchmark="gzip", spec=StrategySpec(kind="base"),
        config=MachineConfig(), instructions=2_000, warmup=1_000,
    )
    fields.update(overrides)
    return SimJob(**fields)


def make_server(tmp_path, **kwargs) -> ServiceServer:
    server = ServiceServer(str(tmp_path / "data"), lease_seconds=30,
                           **kwargs)
    server.start()
    return server


def post(url, path, document, headers=None):
    merged = {"Content-Type": "application/json"}
    merged.update(headers or {})
    request = urllib.request.Request(
        f"{url}{path}", data=json.dumps(document).encode("utf-8"),
        headers=merged, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.load(response), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.load(error), error.headers


def get(url, path):
    with urllib.request.urlopen(f"{url}{path}", timeout=10) as response:
        return response.status, response.read()


# ----------------------------------------------------------------------
# Deterministic jitter and circuit breaker primitives


class TestJitter:
    def test_jitter_stays_inside_the_spread_band(self):
        for attempt in range(50):
            delay = deterministic_jitter("w1:/claim", attempt, 1.0)
            assert 0.75 <= delay <= 1.25

    def test_jitter_is_a_pure_function_of_key_and_attempt(self):
        assert (deterministic_jitter("a", 3, 2.0)
                == deterministic_jitter("a", 3, 2.0))
        assert (deterministic_jitter("a", 3, 2.0)
                != deterministic_jitter("b", 3, 2.0))

    def test_distinct_workers_desynchronize(self):
        delays = {deterministic_jitter(f"worker-{n}:/claim", 0, 1.0)
                  for n in range(16)}
        assert len(delays) > 8  # no thundering herd


class TestCircuitBreaker:
    def clock(self):
        state = {"now": 0.0}

        def advance(seconds):
            state["now"] += seconds

        return (lambda: state["now"]), advance

    def test_opens_after_threshold_and_half_opens_one_probe(self):
        now, advance = self.clock()
        gate = CircuitBreaker("w:/complete", threshold=3, cooldown=1.0,
                              clock=now)
        for _ in range(3):
            assert gate.allow()
            gate.record_failure()
        assert gate.state == "open"
        assert not gate.allow()
        advance(2.0)
        assert gate.allow()        # the single half-open probe
        assert not gate.allow()    # second caller stays gated
        gate.record_success()
        assert gate.state == "closed"
        assert gate.allow()

    def test_reopen_backs_off_exponentially(self):
        now, advance = self.clock()
        gate = CircuitBreaker("w:/claim", threshold=1, cooldown=1.0,
                              clock=now)
        gate.allow()
        gate.record_failure()
        first_wait = gate.probe_in()
        advance(first_wait + 0.01)
        assert gate.allow()
        gate.record_failure()      # the probe failed: reopen, wait longer
        assert gate.probe_in() > first_wait


# ----------------------------------------------------------------------
# The chaos proxy against a live server


class TestChaosProxy:
    def proxied(self, tmp_path, specs=None):
        server = make_server(tmp_path)
        plan = FaultPlan(specs=specs or [])
        proxy = ChaosProxy(server.url, plan=plan)
        proxy.start()
        return server, proxy

    def teardown_pair(self, server, proxy):
        proxy.stop()
        server.stop()

    def test_forwards_and_counts(self, tmp_path):
        server, proxy = self.proxied(tmp_path)
        try:
            status, body = get(proxy.url, "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"
            assert proxy.counters()["forwarded"] == 1
        finally:
            self.teardown_pair(server, proxy)

    def test_error_5xx_never_reaches_the_upstream(self, tmp_path):
        server, proxy = self.proxied(tmp_path, [
            FaultSpec(site="http.error_5xx", index=0, attempt=None)])
        try:
            job = make_job()
            status, document, headers = post(proxy.url, "/jobs",
                                             job.canonical())
            assert status == 503
            assert "injected" in document["error"]
            assert headers.get("Retry-After") is not None
            assert server.queue.get(job.key) is None  # not forwarded
            assert proxy.counters()["faults"] == {"http.error_5xx": 1}
        finally:
            self.teardown_pair(server, proxy)

    def test_drop_response_applies_upstream_but_loses_the_ack(
            self, tmp_path):
        server, proxy = self.proxied(tmp_path, [
            FaultSpec(site="http.drop_response", index=0, attempt=None)])
        try:
            job = make_job()
            with pytest.raises((OSError, urllib.error.URLError)):
                post(proxy.url, "/jobs", job.canonical())
            # The nasty part: the request WAS applied server-side.
            assert server.queue.get(job.key).state == "pending"
        finally:
            self.teardown_pair(server, proxy)

    def test_transport_retry_rides_a_dropped_response(self, tmp_path):
        # Retried POST reuses one request id, so the server replays the
        # original acknowledgement instead of applying the mutation
        # twice — the end-to-end idempotency chain.
        server, proxy = self.proxied(tmp_path, [
            FaultSpec(site="http.drop_response", index=0, attempt=None)])
        try:
            sleeps = []
            transport = ServiceTransport(proxy.url, name="t",
                                         _sleep=sleeps.append)
            job = make_job()
            response = transport.post_json("/jobs", dict(job.canonical()))
            assert response.get("replayed") is True
            assert response["state"] == "pending"
            assert len(server.queue) == 1
            assert server.request_replays == 1
            assert proxy.counters()["replays"] == 1
        finally:
            self.teardown_pair(server, proxy)

    def test_truncated_body_surfaces_as_retryable_connection_loss(
            self, tmp_path):
        server, proxy = self.proxied(tmp_path, [
            FaultSpec(site="http.truncate_body", index=0, attempt=None)])
        try:
            transport = ServiceTransport(proxy.url, name="t",
                                         _sleep=lambda _s: None)
            # The torn first response must never parse as JSON; the
            # retry (ordinal 1, no fault) succeeds.
            document = transport.get_json("/healthz")
            assert document["status"] == "ok"
            assert transport.retried >= 1
        finally:
            self.teardown_pair(server, proxy)

    def test_delay_fault_forwards_after_sleeping(self, tmp_path):
        server, proxy = self.proxied(tmp_path, [
            FaultSpec(site="http.delay", index=0, attempt=None,
                      seconds=0.05)])
        try:
            status, body = get(proxy.url, "/healthz")
            assert status == 200
            assert proxy.counters()["faults"] == {"http.delay": 1}
        finally:
            self.teardown_pair(server, proxy)

    def test_dead_upstream_answers_502_with_retry_after(self, tmp_path):
        proxy = ChaosProxy("http://127.0.0.1:9")  # discard port: refused
        proxy.start()
        try:
            status, document, headers = post(proxy.url, "/jobs", {})
            assert status == 502
            assert document["error"] == "upstream unavailable"
            assert headers.get("Retry-After") is not None
            assert proxy.counters()["upstream_errors"] == 1
        finally:
            proxy.stop()

    def test_metrics_scrape_appends_chaos_families(self, tmp_path):
        server, proxy = self.proxied(tmp_path, [
            FaultSpec(site="http.error_5xx", index=0, attempt=None)])
        try:
            # Ordinal 0 eats the injected 5xx so the faults family has
            # a sample to show.
            with pytest.raises(urllib.error.HTTPError):
                get(proxy.url, "/healthz")
            status, body = get(proxy.url, "/metrics")
            assert status == 200
            text = body.decode("utf-8")
            assert "repro_service_chaos_requests" in text
            assert "repro_service_chaos_forwarded" in text
            assert ('repro_service_chaos_faults{site="http.error_5xx"}'
                    in text)
            # The server's own families are still there.
            assert "repro_service_queue_depth" in text
        finally:
            self.teardown_pair(server, proxy)


# ----------------------------------------------------------------------
# Transport behaviours against the real server


class TestTransportPolicies:
    def test_429_is_honored_not_a_breaker_failure(self, tmp_path):
        server = make_server(tmp_path, max_depth=0)  # shed everything new
        try:
            sleeps = []
            transport = ServiceTransport(server.url, name="t", retries=2,
                                         _sleep=sleeps.append)
            with pytest.raises(ServiceUnavailable) as excinfo:
                transport.post_json("/jobs", dict(make_job().canonical()))
            assert "shedding" in str(excinfo.value)
            assert transport.rate_limited == 3
            # Every pause is the server's Retry-After, not backoff.
            assert sleeps == [0.5, 0.5]
            # Shedding is health, not failure: the breaker never opened.
            assert transport.breaker("/jobs").state == "closed"
            assert server.shed_total == 3
        finally:
            server.stop()

    def test_5xx_trips_the_breaker_and_exhausts_cleanly(self, tmp_path):
        server = make_server(tmp_path)
        plan = FaultPlan([FaultSpec(site="http.error_5xx", index=None,
                                    attempt=None, times=100)])
        proxy = ChaosProxy(server.url, plan=plan)
        proxy.start()
        try:
            transport = ServiceTransport(proxy.url, name="t", retries=6,
                                         breaker_threshold=3,
                                         _sleep=lambda _s: None)
            with pytest.raises(ServiceUnavailable):
                transport.post_json("/claim", {"worker": "w"})
            assert transport.breaker("/claim").opens >= 1
        finally:
            proxy.stop()
            server.stop()

    def test_expired_deadline_is_refused_server_side(self, tmp_path):
        server = make_server(tmp_path)
        try:
            import time as _time

            status, document, _ = post(
                server.url, "/claim", {"worker": "w"},
                headers={"X-Repro-Deadline": f"{_time.time() - 5:.3f}"})
            assert status == 408
            assert server.deadline_rejected == 1
        finally:
            server.stop()

    def test_non_idempotent_post_does_not_retry_connection_loss(
            self, tmp_path):
        server = make_server(tmp_path)
        proxy = ChaosProxy(server.url, plan=FaultPlan([
            FaultSpec(site="http.drop_response", index=0, attempt=None)]))
        proxy.start()
        try:
            transport = ServiceTransport(proxy.url, name="t",
                                         _sleep=lambda _s: None)
            with pytest.raises(ServiceUnavailable):
                transport.post_json("/jobs", dict(make_job().canonical()),
                                    idempotent=False)
            assert transport.retried == 0
        finally:
            proxy.stop()
            server.stop()


# ----------------------------------------------------------------------
# Server-side shedding, drain, and read-only degradation


class TestBackpressureAndDrain:
    def test_shed_answers_429_but_duplicates_still_land(self, tmp_path):
        server = make_server(tmp_path, max_depth=1)
        try:
            first, second = make_job(), make_job(instructions=3_000)
            status, document, _ = post(server.url, "/jobs",
                                       first.canonical())
            assert status == 202
            status, document, headers = post(server.url, "/jobs",
                                             second.canonical())
            assert status == 429
            assert headers.get("Retry-After") is not None
            assert "depth" in document
            # A duplicate of the queued job adds no depth: answered 200
            # even though the queue is full.
            status, document, _ = post(server.url, "/jobs",
                                       first.canonical())
            assert status == 200 and not document["created"]
            assert server.shed_total == 1
        finally:
            server.stop()

    def test_env_default_queue_limit(self, monkeypatch):
        from repro.runtime.settings import resolve_queue_limit

        assert resolve_queue_limit(7) == 7
        monkeypatch.setenv("REPRO_QUEUE_LIMIT", "12")
        assert resolve_queue_limit() == 12
        monkeypatch.setenv("REPRO_QUEUE_LIMIT", "0")
        assert resolve_queue_limit() is None
        monkeypatch.setenv("REPRO_QUEUE_LIMIT", "lots")
        with pytest.raises(ValueError):
            resolve_queue_limit()

    def test_drain_stops_claims_and_submissions_not_completions(
            self, tmp_path):
        server = make_server(tmp_path)
        try:
            job = make_job()
            post(server.url, "/jobs", job.canonical())
            status, claim, _ = post(server.url, "/claim", {"worker": "w"})
            assert claim["key"] == job.key
            server.drain()
            # New submissions shed; claims answer idle + draining.
            status, document, _ = post(
                server.url, "/jobs",
                make_job(instructions=3_000).canonical())
            assert status == 503 and document["draining"]
            status, document, _ = post(server.url, "/claim",
                                       {"worker": "w2"})
            assert status == 200
            assert document["job"] is None and document["draining"]
            # /healthz announces the state for orchestrators.
            _status, body = get(server.url, "/healthz")
            health = json.loads(body)
            assert health["draining"] is True
            # The in-flight completion still lands.
            from tests.test_service_http import make_result

            status, document, _ = post(server.url, "/complete", {
                "key": job.key, "worker": "w",
                "result": make_result().to_dict(), "elapsed": 0.1})
            assert status == 200 and document["accepted"]
        finally:
            server.stop()

    def test_journal_disk_full_degrades_to_read_only_503(self, tmp_path):
        plan = FaultPlan([FaultSpec(site="disk.full", index=1,
                                    attempt=None, path="queue")])
        server = make_server(tmp_path, faults=plan)
        try:
            status, _, _ = post(server.url, "/jobs",
                                make_job().canonical())
            assert status == 202                      # append 0: fine
            second = make_job(instructions=3_000)
            status, document, headers = post(server.url, "/jobs",
                                             second.canonical())
            assert status == 503                      # append 1: ENOSPC
            assert document["read_only"]
            assert headers.get("Retry-After") is not None
            _status, body = get(server.url, "/healthz")
            assert json.loads(body)["read_only"] is True
            # Budget spent: the retry lands and read-only clears.
            status, document, _ = post(server.url, "/jobs",
                                       second.canonical())
            assert status == 202
            _status, body = get(server.url, "/healthz")
            assert json.loads(body)["read_only"] is False
        finally:
            server.stop()

    def test_cache_disk_full_refuses_completion_with_503(self, tmp_path):
        plan = FaultPlan([FaultSpec(site="disk.full", index=None,
                                    attempt=None, path="cache")])
        server = make_server(tmp_path, faults=plan)
        try:
            from tests.test_service_http import make_result

            job = make_job()
            post(server.url, "/jobs", job.canonical())
            post(server.url, "/claim", {"worker": "w"})
            body = {"key": job.key, "worker": "w",
                    "result": make_result().to_dict(), "elapsed": 0.1}
            status, document, headers = post(server.url, "/complete", body)
            assert status == 503                     # store failed
            assert "cache store failed" in document["error"]
            assert headers.get("Retry-After") is not None
            # Without the durable half the completion must NOT apply.
            assert server.queue.get(job.key).state == "running"
            # The worker's retry (budget spent) completes for real.
            status, document, _ = post(server.url, "/complete", body)
            assert status == 200 and document["accepted"]
            assert server.queue.get(job.key).state == "done"
        finally:
            server.stop()


# ----------------------------------------------------------------------
# Worker fail-soft heartbeats (satellite a)


class TestWorkerHeartbeatFailSoft:
    def test_heartbeat_failure_never_aborts_and_warns_once(self, tmp_path):
        import io
        import types

        from repro.service.worker import WorkerAgent

        stream = io.StringIO()
        agent = WorkerAgent("http://127.0.0.1:9", name="w",
                            stream=stream)  # nothing listens there
        beat = agent._heartbeat_hook(make_job(), index=0, attempt=0,
                                     started=0.0)
        pipeline = types.SimpleNamespace(stats=types.SimpleNamespace(
            cycles=100, retired=80, ipc=0.8))
        beat(pipeline)   # must not raise
        beat(pipeline)   # and must not spam
        assert agent.heartbeat_errors == 2
        assert agent.heartbeats == 0
        assert stream.getvalue().count("heartbeat failed") == 1
        assert "continuing without heartbeats" in stream.getvalue()


# ----------------------------------------------------------------------
# A bad reply is a clean failure at every client


class _StubHandler(BaseHTTPRequestHandler):
    """Answers every GET and POST with ``200`` and :attr:`body`."""

    body = b"{}"

    def _answer(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            self.rfile.read(length)
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(self.body)))
        self.end_headers()
        self.wfile.write(self.body)

    do_GET = do_POST = _answer

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def stub_server(body: bytes):
    handler = type("Stub", (_StubHandler,), {"body": body})
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}"
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)


#: A reply every client would accept, had it arrived whole.
GOOD_REPLY = json.dumps({"spans": [], "jobs": [], "status": "complete",
                         "times": {}}).encode("utf-8")


@pytest.fixture(params=["torn body", "non-object body"])
def bad_reply_url(request):
    """A URL whose first reply is torn mid-body (through the proxy),
    or whose every reply is ``200`` with the body ``[]``."""
    if request.param == "non-object body":
        with stub_server(b"[]") as url:
            yield url
        return
    with stub_server(GOOD_REPLY) as upstream:
        proxy = ChaosProxy(upstream, plan=FaultPlan([FaultSpec(
            site="http.truncate_body", index=0, attempt=None)]))
        proxy.start()
        try:
            yield proxy.url
        finally:
            proxy.stop()


def _spans(url, capsys):
    from repro.cli import main

    assert main(["spans", url]) == 1
    assert "cannot fetch spans" in capsys.readouterr().err


def _top(url, capsys):
    from repro.cli import main

    # A torn first reply is retried and renders; a non-object reply
    # ends in "cannot connect".  Either way: an exit code, no raise.
    assert main(["top", url, "--once", "--no-color"]) in (0, 1)


def _latency(url, capsys):
    from repro.service import latency_breakdown

    assert latency_breakdown(url, [make_job()]) is None


def _remote_cache(url, capsys):
    from repro.runtime.cache import fetch_remote_entry

    assert fetch_remote_entry(url, make_job().key) is None


def _heartbeat(url, capsys):
    import io
    import types

    from repro.service.worker import WorkerAgent

    agent = WorkerAgent(url, name="w", stream=io.StringIO())
    beat = agent._heartbeat_hook(make_job(), index=0, attempt=0,
                                 started=0.0)
    beat(types.SimpleNamespace(stats=types.SimpleNamespace(
        cycles=100, retired=80, ipc=0.8)))   # must return normally
    assert agent.heartbeat_errors == 1
    assert agent.heartbeats == 0


@pytest.mark.parametrize("client", [_spans, _top, _latency, _remote_cache,
                                    _heartbeat],
                         ids=["spans", "top", "latency_breakdown",
                              "fetch_remote_entry", "heartbeat"])
def test_bad_reply_is_a_clean_failure_at_every_client(
        client, bad_reply_url, capsys, monkeypatch):
    import repro.obs.top

    monkeypatch.setattr(repro.obs.top, "URL_BACKOFF", 0.001)
    client(bad_reply_url, capsys)
