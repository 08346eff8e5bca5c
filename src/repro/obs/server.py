"""Live telemetry HTTP exporter: in-run metrics, jobs, and health.

:class:`TelemetryServer` is a stdlib-only ``ThreadingHTTPServer`` the
:class:`~repro.runtime.executor.ExperimentEngine` starts when asked
(``--serve PORT`` / ``REPRO_SERVE_PORT``), so a multi-hour sweep is
observable *while it runs* instead of only after the manifest lands.
Everything is pull-based — handlers read engine/cache/heartbeat state
at request time, no background sampling thread — and strictly
read-only: a scrape can never perturb a run, and simulated results are
byte-identical with the server on or off.

Endpoints:

``/metrics``
    Prometheus text exposition (version 0.0.4): the engine's job
    counters and per-state gauges, result-cache counters, per-worker
    heartbeat gauges (age, cycles, sim-IPC), aggregated ``profile.*``
    phase seconds from worker heartbeats, and — when a
    :class:`~repro.obs.metrics.MetricsRegistry` is attached — every
    registered counter/gauge/histogram (histograms export as summaries
    using the shared :meth:`Histogram.summary` quantiles).
``/jobs``
    JSON: per-job records (status, attempts, elapsed, IPC) from the
    live manifest-v3 state, each running job annotated with its newest
    heartbeat; plus the engine report and cache counters.  This is the
    document ``repro top URL`` renders.
``/runs``
    JSON: run history parsed from ``events.jsonl`` (one entry per
    ``run_start``/``run_end`` pair) plus the current run.
``/healthz``
    JSON liveness probe (200 + uptime).

**Request path.**  Route table → dispatch → handler → one
:meth:`~TelemetryServer._respond`.  A server's ``ROUTES`` table is
data: method, exact path or ``/<key>`` prefix, handler.
:meth:`~TelemetryServer.dispatch` serves every request of every server
built on this class.  It normalises the path, mints or adopts the
request id, counts GETs in ``scrapes``, runs the matching handler,
answers 404 listing the method's endpoints when nothing matches, puts
``request_id`` into every ≥400 JSON body, and turns any exception into
a 500 that never kills the thread.  A POST goes through
``_answer_post``: a 405 here, the job API's steps in the simulation
service.  A handler returns ``(status, document[, headers])``; a
``str`` document is Prometheus text, anything else sorted-key JSON.
``/healthz`` lists the endpoints a 404 lists, both read off the table.
:class:`HTTPServerThread` is the one lifecycle (bind without reverse
DNS, daemon thread, stop) this exporter, the service and the chaos
proxy share.

The server binds loopback by default; pass ``host="0.0.0.0"`` to
expose it beyond the machine (the data is read-only but unauthenticated).
"""

from __future__ import annotations

import json
import math
import os
import socketserver
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro._jsonfile import read_json, read_jsonl
from repro.obs.heartbeat import HeartbeatMonitor, heartbeat_dir

#: Exposition content type for Prometheus text format 0.0.4.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Metric-name prefix for everything this exporter emits.
METRIC_PREFIX = "repro_"


class _HTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` that binds without a reverse-DNS lookup.

    The stdlib ``server_bind`` sets ``server_name`` from
    ``socket.getfqdn(host)``, which takes as long as reverse DNS does;
    nothing here reads ``server_name``, so it is just the bound host.
    """

    def server_bind(self) -> None:
        socketserver.TCPServer.server_bind(self)
        self.server_name, self.server_port = self.server_address[:2]


class HTTPServerThread:
    """Bind, serve from a daemon thread, stop: the one lifecycle of the
    package's HTTP servers.  A subclass sets ``host`` and ``port`` and
    returns its request-handler class from :meth:`_handler_class`."""

    thread_name = "repro-http-server"
    _httpd: Optional[_HTTPServer] = None
    _thread: Optional[threading.Thread] = None

    def _handler_class(self) -> type:
        raise NotImplementedError

    def start(self) -> str:
        """Bind and serve from a daemon thread; returns the URL."""
        self._httpd = _HTTPServer((self.host, self.port),
                                  self._handler_class())
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=self.thread_name,
            daemon=True,
        )
        self._thread.start()
        return self.url

    def stop(self) -> None:
        """Shut the server down and release the port."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"


def prom_name(name: str) -> str:
    """Sanitise a dotted repro metric name into a Prometheus one."""
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if cleaned.startswith(METRIC_PREFIX):
        return cleaned
    return METRIC_PREFIX + cleaned


def prom_labels(labels: Dict[str, object]) -> str:
    """Render a label dict as ``{k="v",...}`` (empty string if none)."""
    if not labels:
        return ""
    parts = []
    for key in sorted(labels):
        value = str(labels[key])
        value = value.replace("\\", r"\\").replace('"', r"\"")
        value = value.replace("\n", r"\n")
        parts.append(f'{key}="{value}"')
    return "{" + ",".join(parts) + "}"


def prom_value(value) -> str:
    """Render a sample value; non-finite floats become ``NaN``/``Inf``."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    try:
        value = float(value)
    except (TypeError, ValueError):
        return "NaN"
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return f"{value:.10g}"


class PrometheusText:
    """Accumulates exposition lines with one ``# TYPE`` per family."""

    def __init__(self) -> None:
        self._typed: Dict[str, str] = {}
        self._lines: List[str] = []

    def sample(self, name: str, kind: str, value,
               **labels) -> None:
        family = prom_name(name)
        if family not in self._typed:
            self._typed[family] = kind
            self._lines.append(f"# TYPE {family} {kind}")
        self._lines.append(
            f"{family}{prom_labels(labels)} {prom_value(value)}")

    def summary(self, name: str, summary: dict, **labels) -> None:
        """A :meth:`Histogram.summary` as a Prometheus summary: the
        p50/p95/p99 ``quantile`` samples plus ``_sum`` and ``_count``."""
        for q_label, q_key in (("0.5", "p50"), ("0.95", "p95"),
                               ("0.99", "p99")):
            self.sample(name, "summary", summary[q_key],
                        quantile=q_label, **labels)
        self.sample(f"{name}_sum", "gauge", summary["sum"], **labels)
        self.sample(f"{name}_count", "gauge", summary["count"], **labels)

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def registry_to_prometheus(registry, text: Optional[PrometheusText] = None,
                           ) -> PrometheusText:
    """Export a :class:`MetricsRegistry` snapshot as Prometheus text.

    Counters and gauges map directly; histograms export as summaries —
    ``{quantile="0.5|0.95|0.99"}`` series from the shared
    :meth:`~repro.obs.metrics.Histogram.summary` helper plus ``_sum``
    and ``_count``.
    """
    text = text if text is not None else PrometheusText()
    for (name, labels), counter in sorted(registry._counters.items()):
        text.sample(name, "counter", counter.value, **dict(labels))
    for (name, labels), gauge in sorted(registry._gauges.items()):
        text.sample(name, "gauge", gauge.value, **dict(labels))
    for (name, labels), histogram in sorted(registry._histograms.items()):
        text.summary(name, histogram.summary(), **dict(labels))
    return text


#: Job-record statuses exported under ``repro_engine_job_state``.
JOB_STATES = ("pending", "hit", "executed", "resumed", "failed")


class Route(NamedTuple):
    """One row of a route table.

    ``path`` is exact, or a prefix ending in ``/<key>`` that hands the
    rest of the path to the handler.  ``handler(server, arg)`` returns
    ``(status, document[, headers])``; ``arg`` is the key of a prefix
    route, the JSON body of a POST, or else the query string.
    """

    method: str
    path: str
    handler: Callable


class TelemetryServer(HTTPServerThread):
    """Serves live run state over HTTP from a background thread.

    All sources are optional and read at scrape time:

    * ``engine`` — an :class:`ExperimentEngine`; provides the live
      report, cache counters, and (via its telemetry writer) per-job
      records;
    * ``telemetry_dir`` — a run directory; provides the journal, the
      manifest fallback, and the heartbeat channel (defaults to the
      engine's telemetry directory when unset);
    * ``registry`` — a :class:`MetricsRegistry` merged into
      ``/metrics``.
    """

    thread_name = "repro-telemetry-server"

    #: The route table.  ``/`` answers like ``/healthz`` and is not
    #: listed among the endpoints.
    ROUTES: Tuple[Route, ...] = (
        Route("GET", "/metrics", lambda s, _: (200, s.metrics_text())),
        Route("GET", "/jobs", lambda s, _: (200, s.state())),
        Route("GET", "/runs", lambda s, _: (200, s.runs())),
        Route("GET", "/healthz", lambda s, _: (200, s.healthz())),
        Route("GET", "/", lambda s, _: (200, s.healthz())),
    )

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        engine=None,
        registry=None,
        telemetry_dir: Optional[str] = None,
        stale_after: Optional[float] = None,
    ) -> None:
        self.engine = engine
        self.registry = registry
        self._explicit_dir = (
            os.fspath(telemetry_dir) if telemetry_dir else None)
        self.stale_after = stale_after
        self.host = host
        self.port = port
        self.started = time.time()
        self.scrapes = 0

    def endpoints(self, method: str) -> List[str]:
        """The listed paths of ``method``'s routes, in table order."""
        return [route.path for route in self.ROUTES
                if route.method == method and route.path != "/"]

    # ------------------------------------------------------------------
    # Source resolution.
    # ------------------------------------------------------------------
    @property
    def telemetry_dir(self) -> Optional[str]:
        if self._explicit_dir:
            return self._explicit_dir
        writer = getattr(self.engine, "telemetry", None)
        return writer.directory if writer is not None else None

    def _monitor(self) -> Optional[HeartbeatMonitor]:
        directory = self.telemetry_dir
        if directory is None:
            return None
        return HeartbeatMonitor(
            heartbeat_dir(directory), stale_after=self.stale_after)

    def _jobs_records(self) -> List[dict]:
        writer = getattr(self.engine, "telemetry", None)
        if writer is not None:
            return writer.jobs_snapshot()
        directory = self.telemetry_dir
        if directory is not None:
            manifest = read_json(os.path.join(directory, "manifest.json"))
            if manifest is not None:
                return list(manifest.get("jobs", []))
        return []

    # ------------------------------------------------------------------
    # Documents.
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """The ``/jobs`` document: jobs + heartbeats + report + cache."""
        monitor = self._monitor()
        beats = monitor.by_index() if monitor is not None else {}
        jobs = self._jobs_records()
        for record in jobs:
            # A result payload makes the document heavy and `top`
            # only needs the headline number.
            result = record.pop("result", None)
            if result is not None:
                if record.get("ipc") is None:
                    record["ipc"] = result.get("ipc")
                record.setdefault("cycles", result.get("cycles"))
                record.setdefault("retired", result.get("retired"))
            beat = beats.get(record.get("index"))
            if beat is not None and record.get("status") == "pending":
                record["heartbeat"] = beat
        document = {
            "generated": time.time(),
            "jobs": jobs,
            "heartbeats": sorted(beats.values(),
                                 key=lambda b: b.get("index", 0)),
        }
        report = getattr(self.engine, "report", None)
        if report is not None:
            document["report"] = report.to_dict()
        cache = getattr(self.engine, "cache", None)
        if cache is not None:
            document["cache"] = cache.stats.to_dict()
        return document

    def runs(self) -> dict:
        """The ``/runs`` document: journal run history + current run."""
        entries: List[dict] = []
        directory = self.telemetry_dir
        if directory is not None:
            open_runs: Dict[int, dict] = {}
            records, _ = read_jsonl(os.path.join(directory, "events.jsonl"))
            for record in records:
                event = record.get("event")
                if event == "run_start":
                    entry = {
                        "run": record.get("run"),
                        "started": record.get("ts"),
                        "jobs": record.get("jobs"),
                        "status": "running",
                    }
                    open_runs[record.get("run")] = entry
                    entries.append(entry)
                elif event == "run_end":
                    entry = open_runs.pop(record.get("run"), None)
                    if entry is None:
                        entry = {"run": record.get("run")}
                        entries.append(entry)
                    entry.update({
                        "finished": record.get("ts"),
                        "status": record.get("status", "complete"),
                        "elapsed": record.get("elapsed"),
                        "cache_hits": record.get("cache_hits"),
                        "executed": record.get("executed"),
                        "failed": record.get("failed"),
                    })
        document = {"runs": entries, "telemetry_dir": directory}
        writer = getattr(self.engine, "telemetry", None)
        if writer is not None:
            document["current"] = writer.run_info()
        return document

    def healthz(self) -> dict:
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self.started,
            "scrapes": self.scrapes,
            "endpoints": self.endpoints("GET"),
        }

    # ------------------------------------------------------------------
    # /metrics rendering.
    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        """Exporter preamble, the fronted sources' families,
        heartbeats, then the attached registry."""
        text = PrometheusText()
        text.sample("exporter.uptime_seconds", "gauge",
                    time.time() - self.started)
        text.sample("exporter.scrapes", "counter", self.scrapes)
        self._source_metrics(text)
        self._heartbeat_metrics(text)
        if self.registry is not None:
            registry_to_prometheus(self.registry, text)
        return text.render()

    def _source_metrics(self, text: PrometheusText) -> None:
        """The families of what this server fronts: engine and cache."""
        report = getattr(self.engine, "report", None)
        if report is not None:
            self._engine_metrics(text, report)
        cache = getattr(self.engine, "cache", None)
        if cache is not None:
            stats = cache.stats
            for field in ("hits", "misses", "stores", "corrupt"):
                text.sample(f"cache.{field}", "counter",
                            getattr(stats, field))
            text.sample("cache.hit_rate", "gauge", stats.hit_rate)

    def _engine_metrics(self, text: PrometheusText, report) -> None:
        for field in ("total", "cache_hits", "executed", "retried",
                      "resumed", "failed", "workers_reaped",
                      "stale_workers", "telemetry_write_errors"):
            text.sample(f"engine.{field}", "counter",
                        getattr(report, field, 0))
        text.sample("engine.workers", "gauge", report.workers)
        text.sample("engine.backoff_seconds", "gauge",
                    report.backoff_seconds)
        text.sample("engine.elapsed_seconds", "gauge", report.elapsed)
        text.sample("engine.hit_rate", "gauge", report.hit_rate)
        states = {state: 0 for state in JOB_STATES}
        for record in self._jobs_records():
            status = record.get("status")
            states[status] = states.get(status, 0) + 1
        for state, count in sorted(states.items()):
            text.sample("engine.job_state", "gauge", count, state=state)
        if getattr(report, "job_seconds", None):
            text.summary("engine.job_seconds", report.job_seconds_summary())

    def _heartbeat_metrics(self, text: PrometheusText) -> None:
        monitor = self._monitor()
        if monitor is None:
            return
        records = monitor.snapshot()
        text.sample("workers.heartbeats", "gauge", len(records))
        profile_totals: Dict[str, float] = {}
        stale = 0
        for record in records:
            labels = {"index": record.get("index"),
                      "pid": record.get("pid")}
            text.sample("worker.heartbeat_age_seconds", "gauge",
                        record.get("age", 0.0), **labels)
            text.sample("worker.cycles", "gauge",
                        record.get("cycles", 0), **labels)
            text.sample("worker.retired", "gauge",
                        record.get("retired", 0), **labels)
            text.sample("worker.ipc", "gauge",
                        record.get("ipc", 0.0), **labels)
            # Last interval-recorder window (the `interval` heartbeat
            # field): the worker's *current* behaviour, vs the
            # cumulative gauges above.
            interval = record.get("interval")
            if isinstance(interval, dict):
                for field in ("ipc", "tc_hit_rate", "occupancy_frac",
                              "rs_full", "fetch_starve",
                              "forwarded_hops", "forwarded_operands"):
                    value = interval.get(field)
                    if isinstance(value, (int, float)) \
                            and not isinstance(value, bool):
                        text.sample(f"worker.interval_{field}", "gauge",
                                    value, **labels)
            if record.get("stale"):
                stale += 1
            for phase, seconds in (record.get("profile") or {}).items():
                profile_totals[phase] = (
                    profile_totals.get(phase, 0.0) + seconds)
        if self.stale_after is not None:
            text.sample("workers.stale", "gauge", stale)
        # The hot-path wall-clock split, aggregated across workers: the
        # exporter's view of `profile.*` (see repro.obs.profiler).
        total = sum(profile_totals.values())
        for phase, seconds in sorted(profile_totals.items()):
            text.sample("profile.seconds", "gauge", seconds, phase=phase)
            if total:
                text.sample("profile.share", "gauge", seconds / total,
                            phase=phase)

    # ------------------------------------------------------------------
    # Request path: route table -> dispatch -> handler -> _respond.
    # ------------------------------------------------------------------
    def _handler_class(self) -> type:
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):  # silence per-request spam
                pass

            def do_GET(self):
                server.dispatch(self, "GET")

            def do_POST(self):
                server.dispatch(self, "POST")

        return Handler

    @staticmethod
    def _request_id(request) -> str:
        """The per-request correlation id.

        A client-supplied ``X-Repro-Request-Id`` header is adopted
        verbatim (truncated sane), so a retried request keeps one id
        end-to-end — the service layer keys its idempotent-replay cache
        on exactly this.  Stamped onto every response as
        ``X-Repro-Request-Id`` and echoed in 4xx/5xx JSON bodies so a
        client-side error pairs with the server's view of the request.
        """
        inbound = request.headers.get("X-Repro-Request-Id") or ""
        return ("".join(ch for ch in inbound if ch.isalnum())[:64]
                or uuid.uuid4().hex[:16])

    def dispatch(self, request: BaseHTTPRequestHandler,
                 method: str) -> None:
        """Answer one request; never lets an exception kill the thread."""
        path, _, query = request.path.partition("?")
        path = path.rstrip("/") or "/"
        rid = self._request_id(request)
        try:
            if method == "GET":
                self.scrapes += 1
                outcome = self._routed("GET", path, query)
            else:
                outcome = self._answer_post(request, path, rid)
            reply = _encode(outcome, rid)
        except Exception as error:  # a request must never crash a run
            reply = _encode((500, {"error": str(error)}), rid)
        try:
            self._respond(request, rid, *reply)
        except Exception:
            pass  # the client went away mid-reply

    def _routed(self, method: str, path: str, arg):
        """Run the route matching ``method`` and ``path``, or answer 404
        listing the method's endpoints."""
        for route in self.ROUTES:
            if route.method != method:
                continue
            if route.path.endswith("/<key>"):
                prefix = route.path[:-len("<key>")]
                if path.startswith(prefix):
                    return route.handler(self, path[len(prefix):])
            elif route.path == path:
                return route.handler(self, arg)
        return 404, {"error": f"unknown endpoint {path}",
                     "endpoints": self.endpoints(method)}

    def _answer_post(self, request, path: str, rid: str):
        """The POST steps.  The exporter is strictly read-only; the
        simulation service (:class:`repro.service.ServiceServer`)
        replaces this with its job API's steps."""
        return 405, {"error": "this server is read-only"}

    @staticmethod
    def _read_json_body(request: BaseHTTPRequestHandler) -> dict:
        """Parse a request's JSON body; raises ``ValueError`` on junk."""
        try:
            length = int(request.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            length = 0
        raw = request.rfile.read(length) if length > 0 else b""
        if not raw:
            raise ValueError("empty request body")
        document = json.loads(raw.decode("utf-8"))
        if not isinstance(document, dict):
            raise ValueError("request body must be a JSON object")
        return document

    @staticmethod
    def _respond(request, rid: str, status: int, body: bytes,
                 content_type: str,
                 headers: Optional[Dict[str, str]] = None) -> None:
        request.send_response(status)
        request.send_header("Content-Type", content_type)
        request.send_header("Content-Length", str(len(body)))
        request.send_header("X-Repro-Request-Id", rid)
        for name, value in (headers or {}).items():
            request.send_header(name, str(value))
        request.end_headers()
        request.wfile.write(body)


def _encode(outcome, rid: str) -> tuple:
    """``(status, body, content_type, headers)`` of a handler outcome."""
    status, document, headers = (*outcome, None)[:3]
    if isinstance(document, str):
        return (status, document.encode("utf-8"), PROMETHEUS_CONTENT_TYPE,
                headers)
    if status >= 400:
        document.setdefault("request_id", rid)
    return status, _json_bytes(document), "application/json", headers


def _json_bytes(document: dict) -> bytes:
    return json.dumps(document, sort_keys=True).encode("utf-8")
