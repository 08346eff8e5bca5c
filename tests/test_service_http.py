"""Tests of the service HTTP API: submission, worker protocol, metrics."""

import json
import os
import threading
import urllib.error
import urllib.request

import pytest

from repro.assign.base import StrategySpec
from repro.cluster.config import MachineConfig
from repro.obs.server import TelemetryServer
from repro.resilience import ChaosProxy
from repro.runtime import ResultCache, SimJob
from repro.runtime import settings
from repro.service import ServiceServer
from repro.service.queue import JobQueue


@pytest.fixture(autouse=True)
def isolated_runtime(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_SERVICE_URL", raising=False)
    settings.configure(jobs=None, cache=None, service_url=None)
    yield
    settings.configure(jobs=None, cache=None, service_url=None)


@pytest.fixture
def server(tmp_path):
    service = ServiceServer(str(tmp_path / "data"), lease_seconds=30)
    service.start()
    yield service
    service.stop()


def make_job(**overrides) -> SimJob:
    fields = dict(
        benchmark="gzip", spec=StrategySpec(kind="base"),
        config=MachineConfig(), instructions=2_000, warmup=1_000,
    )
    fields.update(overrides)
    return SimJob(**fields)


def make_result(**overrides):
    from repro.core.simulator import SimResult

    fields = dict(
        benchmark="gzip", strategy="Base", cycles=1234, retired=2000,
        ipc=1.6207, pct_tc_instructions=0.71, avg_trace_size=11.3,
        pct_deps_critical=0.42, pct_critical_inter_trace=0.37,
        critical_source={"same trace": 0.5, "earlier trace": 0.3},
        producer_repetition={"same cluster": 0.61},
        pct_intra_cluster_forwarding=0.55, avg_forward_distance=0.83,
        option_counts={"A": 10, "B": 3}, fill_migration_rate=0.07,
        chain_migration_rate=0.02, pct_migrating_intra_cluster=0.4,
        mispredict_rate=0.031, tc_hit_rate=0.88, l1d_hit_rate=0.97,
    )
    fields.update(overrides)
    return SimResult(**fields)


def post(url, path, document):
    request = urllib.request.Request(
        f"{url}{path}", data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def get(url, path):
    try:
        with urllib.request.urlopen(f"{url}{path}", timeout=10) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


class TestSubmission:
    def test_post_jobs_queues_and_is_idempotent(self, server):
        job = make_job()
        status, document = post(server.url, "/jobs", job.canonical())
        assert status == 202
        assert document["key"] == job.key
        assert document["state"] == "pending" and document["created"]
        status, again = post(server.url, "/jobs", job.canonical())
        assert status == 200 and not again["created"]
        assert server.queue.counts()["pending"] == 1

    def test_post_jobs_rejects_bad_payloads(self, server):
        bad_schema = make_job().canonical()
        bad_schema["schema"] = 999
        status, document = post(server.url, "/jobs", bad_schema)
        assert status == 400 and "schema" in document["error"]

        unknown_bench = make_job().canonical()
        unknown_bench["benchmark"] = "no-such-benchmark"
        status, document = post(server.url, "/jobs", unknown_bench)
        assert status == 400 and "no-such-benchmark" in document["error"]

        bad_spec = make_job().canonical()
        bad_spec["spec"] = {"kind": "base", "bogus_knob": True}
        status, document = post(server.url, "/jobs", bad_spec)
        assert status == 400

        assert server.submit_rejected == 3
        assert len(server.queue) == 0

    def test_cached_key_is_answered_without_queueing(self, server):
        job = make_job()
        result = make_result()
        server.cache.store(job, result)
        status, document = post(server.url, "/jobs", job.canonical())
        assert status == 200
        assert document["state"] == "done" and document["cached"]
        assert len(server.queue) == 0
        assert server.submit_cache_hits == 1

    def test_get_job_status_and_result(self, server):
        job = make_job()
        post(server.url, "/jobs", job.canonical())
        status, document = get(server.url, f"/jobs/{job.key}")
        assert status == 200 and document["state"] == "pending"

        status, _ = get(server.url, "/jobs/" + "0" * 64)
        assert status == 404

    def test_queue_endpoint_reports_depth(self, server):
        post(server.url, "/jobs", make_job().canonical())
        status, document = get(server.url, "/queue")
        assert status == 200
        assert document["depth"] == 1
        assert document["counts"]["pending"] == 1


class TestWorkerProtocol:
    def _submit_and_claim(self, server):
        job = make_job()
        post(server.url, "/jobs", job.canonical())
        status, claim = post(server.url, "/claim", {"worker": "w1"})
        assert status == 200
        return job, claim

    def test_claim_returns_payload_and_lease(self, server):
        job, claim = self._submit_and_claim(server)
        assert claim["key"] == job.key
        assert claim["job"] == job.canonical()
        assert claim["lease_seconds"] == 30
        status, empty = post(server.url, "/claim", {"worker": "w2"})
        assert status == 200 and empty["job"] is None

    def test_complete_round_trip_serves_result(self, server):
        job, claim = self._submit_and_claim(server)
        result = make_result()
        status, ack = post(server.url, "/complete", {
            "key": job.key, "worker": "w1",
            "result": result.to_dict(), "elapsed": 0.5,
        })
        assert status == 200 and ack["accepted"]
        status, document = get(server.url, f"/jobs/{job.key}")
        assert document["state"] == "done"
        assert document["result"] == result.to_dict()
        # And the HTTP cache backend serves the entry directly.
        status, entry = get(server.url, f"/cache/{job.key}")
        assert status == 200 and entry["result"] == result.to_dict()

    def test_complete_rejects_garbage_result(self, server):
        job, _ = self._submit_and_claim(server)
        status, document = post(server.url, "/complete", {
            "key": job.key, "worker": "w1", "result": {"ipc": "junk"},
        })
        assert status == 400
        assert server.queue.get(job.key).state == "running"

    def test_fail_marks_job_failed(self, server):
        job, _ = self._submit_and_claim(server)
        status, ack = post(server.url, "/fail", {
            "key": job.key, "worker": "w1", "reason": "KeyError: boom",
        })
        assert status == 200 and ack["accepted"]
        _, document = get(server.url, f"/jobs/{job.key}")
        assert document["state"] == "failed"
        assert document["reason"] == "KeyError: boom"

    def test_heartbeat_renews_lease_and_lands_on_disk(self, server):
        job, claim = self._submit_and_claim(server)
        entry = server.queue.get(job.key)
        before = entry.lease_deadline
        status, ack = post(server.url, "/heartbeat", {
            "key": job.key, "worker": "w1", "index": claim["index"],
            "cycles": 500, "retired": 400, "ipc": 0.8,
            "label": job.label, "schema": 1, "pid": 12345,
        })
        assert status == 200 and ack["renewed"]
        assert entry.lease_deadline >= before
        hb_path = os.path.join(server.data_dir, "heartbeats",
                               f"hb-{claim['index']}.json")
        with open(hb_path, encoding="utf-8") as handle:
            record = json.load(handle)
        assert record["cycles"] == 500 and record["worker"] == "w1"
        assert "ts" in record  # stamped with the *server's* clock

    def test_failed_heartbeat_write_leaves_no_temp_file(self, server,
                                                         monkeypatch):
        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        status, ack = post(server.url, "/heartbeat", {
            "index": 4, "cycles": 500, "schema": 1, "pid": 12345,
        })
        assert status == 200 and ack == {"renewed": False}
        directory = os.path.join(server.data_dir, "heartbeats")
        assert os.listdir(directory) == []

    @pytest.mark.parametrize("index", ["x", -1, 1.5, True, None, "absent"])
    def test_heartbeat_without_a_job_index_is_refused(self, server, index):
        body = {"cycles": 500, "schema": 1, "pid": 12345}
        if index != "absent":
            body["index"] = index
        status, document = post(server.url, "/heartbeat", body)
        assert status == 400 and "index" in document["error"]
        assert not os.path.exists(os.path.join(server.data_dir,
                                               "heartbeats"))
        for path in ("/metrics", "/jobs"):
            with urllib.request.urlopen(server.url + path,
                                        timeout=10) as response:
                assert response.status == 200

    def test_heartbeat_interval_window_reaches_metrics(self, server):
        # A worker running with an interval recorder rides its last
        # window on the heartbeat; the service re-exports it as
        # repro_worker_interval_* gauges.
        job, claim = self._submit_and_claim(server)
        status, ack = post(server.url, "/heartbeat", {
            "key": job.key, "worker": "w1", "index": claim["index"],
            "cycles": 500, "retired": 400, "ipc": 0.8,
            "label": job.label, "schema": 1, "pid": 12345,
            "interval": {"ipc": 1.25, "tc_hit_rate": 0.9,
                         "occupancy_frac": 0.4, "rs_full": 3,
                         "fetch_starve": 7, "forwarded_hops": 2,
                         "forwarded_operands": 2},
        })
        assert status == 200 and ack["renewed"]
        with urllib.request.urlopen(server.url + "/metrics",
                                    timeout=10) as response:
            text = response.read().decode("utf-8")
        assert "repro_worker_interval_ipc{" in text
        assert " 1.25" in text
        assert "repro_worker_interval_tc_hit_rate{" in text
        assert "repro_worker_interval_fetch_starve{" in text

    def test_evicted_result_reruns_on_resubmit(self, server, tmp_path):
        job, _ = self._submit_and_claim(server)
        post(server.url, "/complete", {
            "key": job.key, "worker": "w1",
            "result": make_result().to_dict(), "elapsed": 0.5,
        })
        assert server.cache.gc(max_entries=0)["evicted_lru"] == 1
        status, document = post(server.url, "/jobs", job.canonical())
        assert status == 202
        assert document["state"] == "pending" and document["created"]
        _, view = get(server.url, f"/jobs/{job.key}")
        assert view["state"] == "pending" and "result" not in view
        # A restart replays the second submit as the same reset.
        live = server.queue.get(job.key).public()
        replayed = JobQueue(server.data_dir).get(job.key).public()
        for record in (live, replayed):
            del record["age_seconds"], record["times"]
        assert replayed == live
        status, claim = post(server.url, "/claim", {"worker": "w2"})
        assert status == 200 and claim["key"] == job.key
        assert claim["claims"] == 2

    def test_cache_endpoint_misses_cleanly(self, server):
        status, document = get(server.url, "/cache/" + "f" * 64)
        assert status == 404 and "miss" in document["error"]

    @pytest.mark.parametrize("path", ["/jobs/unknown", "/cache/unknown",
                                      "/jobs/../queue", "/cache/-1"])
    def test_a_string_that_cannot_be_a_key_is_unknown(self, server, path):
        status, document = get(server.url, path)
        assert status == 404 and "error" in document


class TestStatusSnapshot:
    """``GET /jobs/<key>`` never shows half a completion: ``done``
    always comes with ``result`` and ``times.finished``."""

    #: How long a racing thread gets to land (it must not, under the lock).
    RACE_WINDOW = 0.2

    def _claimed(self, server):
        job = make_job()
        post(server.url, "/jobs", job.canonical())
        post(server.url, "/claim", {"worker": "w1"})
        return job, {"key": job.key, "worker": "w1",
                     "result": make_result().to_dict(), "elapsed": 0.5}

    @staticmethod
    def _assert_whole(document):
        if document["state"] == "done":
            assert "result" in document
            assert "finished" in document["times"]

    def test_completion_between_the_status_reads(self, server, monkeypatch):
        job, completion = self._claimed(server)
        racer = threading.Thread(target=server._post_complete,
                                 args=(completion,))
        real_load = server.cache.load_key

        def load_then_complete(key):
            # The queue entry is read; land a completion before replying.
            payload = real_load(key)
            if racer.ident is None:
                racer.start()
                racer.join(self.RACE_WINDOW)
            return payload

        monkeypatch.setattr(server.cache, "load_key", load_then_complete)
        _, racing = get(server.url, f"/jobs/{job.key}")
        racer.join(10)
        assert not racer.is_alive()
        _, settled = get(server.url, f"/jobs/{job.key}")
        self._assert_whole(racing)
        assert racing["state"] == "running"
        self._assert_whole(settled)
        assert settled["state"] == "done"

    def test_status_between_store_and_queue_transition(self, server,
                                                      monkeypatch):
        job, completion = self._claimed(server)
        documents = []
        poller = threading.Thread(target=lambda: documents.append(
            get(server.url, f"/jobs/{job.key}")[1]))
        real_complete = server.queue.complete

        def poll_then_complete(*args, **kwargs):
            # The result is cached; poll before the queue records it.
            poller.start()
            poller.join(self.RACE_WINDOW)
            return real_complete(*args, **kwargs)

        monkeypatch.setattr(server.queue, "complete", poll_then_complete)
        server._post_complete(completion)
        poller.join(10)
        assert not poller.is_alive()
        self._assert_whole(documents[0])
        assert documents[0]["state"] == "done"


class TestMetricsAndCompat:
    def test_metrics_exports_queue_and_shard_families(self, server):
        job = make_job()
        post(server.url, "/jobs", job.canonical())
        server.cache.store(job, make_result())
        server.cache.load(job)
        with urllib.request.urlopen(server.url + "/metrics",
                                    timeout=10) as response:
            text = response.read().decode("utf-8")
        assert "repro_service_queue_depth 1" in text
        assert "repro_service_submits 1" in text
        assert "repro_cache_shards" in text
        shard = f'{{shard="{server.cache.shard_index(job.key):03d}"}}'
        assert f"repro_cache_shard_hits{shard} 1" in text
        assert f"repro_cache_shard_stores{shard} 1" in text

    def test_healthz_lists_service_endpoints(self, server):
        _, document = get(server.url, "/healthz")
        assert document["role"] == "service"
        assert "/cache/<key>" in document["endpoints"]

    def test_restarted_server_resumes_queue(self, server, tmp_path):
        job = make_job()
        post(server.url, "/jobs", job.canonical())
        post(server.url, "/claim", {"worker": "w1"})
        server.stop()
        revived = ServiceServer(str(tmp_path / "data"), lease_seconds=30)
        revived.start()
        try:
            _, document = get(revived.url, f"/jobs/{job.key}")
            assert document["state"] == "pending"  # re-queued on restart
            assert document["requeues"] == 1
        finally:
            revived.stop()

    def test_telemetry_server_still_rejects_posts(self, tmp_path):
        plain = TelemetryServer(telemetry_dir=str(tmp_path / "t"))
        plain.start()
        try:
            status, document = post(plain.url, "/jobs",
                                    make_job().canonical())
            assert status == 405
            assert "read-only" in document["error"]
        finally:
            plain.stop()


class TestBinding:
    def test_servers_bind_without_reverse_dns(self, tmp_path, monkeypatch):
        """Neither server resolves its own host name: a reverse-DNS
        lookup can block for as long as the resolver takes."""
        import socket

        def no_lookup(*args, **kwargs):
            raise AssertionError("socket.getfqdn called")

        monkeypatch.setattr(socket, "getfqdn", no_lookup)
        upstream = TelemetryServer(telemetry_dir=str(tmp_path / "u"))
        upstream.start()
        try:
            for server in (TelemetryServer(telemetry_dir=str(tmp_path / "t")),
                           ServiceServer(str(tmp_path / "data"),
                                         lease_seconds=30),
                           ChaosProxy(upstream.url)):
                server.start()
                try:
                    status, _ = get(server.url, "/healthz")
                    assert status == 200
                finally:
                    server.stop()
        finally:
            upstream.stop()


class TestRouteTable:
    @pytest.fixture(params=["telemetry", "service"])
    def served(self, request, tmp_path):
        """A started server, and a key it knows for ``<key>``."""
        if request.param == "telemetry":
            server = TelemetryServer(telemetry_dir=str(tmp_path / "t"))
            key = None
        else:
            server = ServiceServer(str(tmp_path / "data"), lease_seconds=30)
            job = make_job()
            server.cache.store(job, make_result())
            key = job.key
        server.start()
        yield server, key
        server.stop()

    def test_every_listed_endpoint_answers(self, served):
        server, key = served
        status, health = get(server.url, "/healthz")
        assert status == 200
        for endpoint in health["endpoints"]:
            path = endpoint.replace("<key>", key or "")
            try:
                with urllib.request.urlopen(f"{server.url}{path}",
                                            timeout=10) as response:
                    status = response.status
            except urllib.error.HTTPError as error:
                status = error.code
            assert status != 404, endpoint

    def test_404_lists_the_healthz_endpoints(self, served):
        server, _ = served
        _, health = get(server.url, "/healthz")
        status, document = get(server.url, "/nope")
        assert status == 404
        assert document["endpoints"] == health["endpoints"]
