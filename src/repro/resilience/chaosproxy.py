"""In-process HTTP chaos proxy for the simulation service tier.

:class:`ChaosProxy` sits between service clients (``repro submit``,
``WorkerAgent``) and a :class:`~repro.service.ServiceServer`, forwarding
every request over a real socket and injecting the HTTP-site faults of
a :class:`~repro.resilience.FaultPlan` (:data:`HTTP_FAULT_SITES`):

``http.drop_response``
    The request IS forwarded and applied upstream; the reply is thrown
    away and the client's connection severed.  This is the nastiest
    network failure for a mutating endpoint — the effect happened, the
    acknowledgement didn't — and is survivable only by idempotent
    retries keyed on ``X-Repro-Request-Id``.
``http.delay``
    Sleep ``spec.seconds`` before forwarding (slow link).
``http.error_5xx``
    Answer 503 without forwarding (the upstream never sees it).
``http.truncate_body``
    Forward, then send headers advertising the full ``Content-Length``
    but only half the body (torn response; clients must treat it as a
    connection failure).

Faults match on the proxy's request ordinal (``spec.index``, with
``attempt=None``) and optionally a path prefix (``spec.path``), so a
seeded plan — e.g. :meth:`FaultPlan.http_scatter` — replays exactly.

The proxy is deliberately resilient itself: when the upstream is down
(say, SIGKILLed by the ``repro chaos`` harness mid-restart) it answers
``502`` with a JSON body rather than dying, so workers keep retrying
through the outage instead of exiting.  ``GET /metrics`` responses get
the proxy's own ``repro_service_chaos_*`` counter families appended, so
one scrape shows server and chaos state together.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from http.server import BaseHTTPRequestHandler
from typing import Dict, Optional, Tuple
from urllib.parse import urlsplit

from repro.obs.server import HTTPServerThread, PrometheusText
from repro.resilience.faults import FaultPlan

#: Request headers not forwarded upstream (recomputed per hop).
_HOP_HEADERS = frozenset({"host", "content-length", "connection",
                          "transfer-encoding"})

#: Response headers relayed back to the client verbatim.  Everything
#: else is hop-local; these carry retry/correlation semantics the
#: transport depends on.
_RELAY_HEADERS = ("Retry-After", "X-Repro-Request-Id")


class ChaosProxy(HTTPServerThread):
    """A forwarding HTTP proxy that injects :class:`FaultPlan` faults.

    Counters (all thread-safe, readable while serving):

    * ``requests`` — requests accepted (each gets the next ordinal);
    * ``forwarded`` — requests that reached the upstream;
    * ``faults`` — per-site injection counts;
    * ``replays`` — requests whose ``X-Repro-Request-Id`` was already
      seen, i.e. client retries of the same logical operation;
    * ``upstream_errors`` — requests answered 502 because the upstream
      connection failed (server down / mid-restart).
    """

    thread_name = "repro-chaos-proxy"

    def __init__(self, upstream: str, plan: Optional[FaultPlan] = None,
                 port: int = 0, host: str = "127.0.0.1",
                 timeout: float = 30.0) -> None:
        parts = urlsplit(upstream if "//" in upstream
                         else f"http://{upstream}")
        self.upstream_host = parts.hostname or "127.0.0.1"
        self.upstream_port = parts.port or 80
        self.plan = plan
        self.host = host
        self.port = port
        self.timeout = timeout
        self.requests = 0
        self.forwarded = 0
        self.replays = 0
        self.upstream_errors = 0
        self.faults: Dict[str, int] = {}
        self._seen_rids: Dict[str, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle: HTTPServerThread's, with this handler class.
    # ------------------------------------------------------------------
    def _handler_class(self) -> type:
        proxy = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt, *args):  # silence request spam
                pass

            def do_GET(self):
                proxy._handle(self)

            do_POST = do_GET

        return Handler

    # ------------------------------------------------------------------
    # Request handling.
    # ------------------------------------------------------------------
    def _next_ordinal(self, rid: Optional[str]) -> int:
        with self._lock:
            ordinal = self.requests
            self.requests += 1
            if rid:
                self._seen_rids[rid] = self._seen_rids.get(rid, 0) + 1
                if self._seen_rids[rid] > 1:
                    self.replays += 1
        return ordinal

    def _fire(self, site: str, ordinal: int, path: str):
        """One budget-consuming plan lookup, serialised by the proxy.

        ``FaultPlan`` counters are not themselves thread-safe; the
        proxy is the only writer, under its own lock.
        """
        if self.plan is None:
            return None
        with self._lock:
            spec = self.plan.fire(site, index=ordinal, attempt=None,
                                  path=path)
            if spec is not None:
                self.faults[site] = self.faults.get(site, 0) + 1
            return spec

    def _handle(self, request: BaseHTTPRequestHandler) -> None:
        path = request.path
        rid = request.headers.get("X-Repro-Request-Id")
        ordinal = self._next_ordinal(rid)

        delay = self._fire("http.delay", ordinal, path)
        if delay is not None:
            time.sleep(delay.seconds)
        if self._fire("http.error_5xx", ordinal, path) is not None:
            self._reply_json(request, 503, {
                "error": "injected http.error_5xx",
                "request_id": rid or "",
            }, retry_after="0.1")
            return

        try:
            length = int(request.headers.get("Content-Length", 0) or 0)
        except (TypeError, ValueError):
            length = 0
        body = request.rfile.read(length) if length > 0 else b""
        try:
            status, reason, headers, payload = self._forward(
                request.command, path, request.headers, body)
        except (OSError, http.client.HTTPException):
            with self._lock:
                self.upstream_errors += 1
            self._reply_json(request, 502, {
                "error": "upstream unavailable",
                "request_id": rid or "",
            }, retry_after="0.2")
            return
        with self._lock:
            self.forwarded += 1

        if self._fire("http.drop_response", ordinal, path) is not None:
            # The mutation already happened upstream; sever without a
            # byte of reply so the client sees a dead connection.
            request.close_connection = True
            try:
                request.connection.close()
            except OSError:
                pass
            return

        if (request.command == "GET" and status == 200
                and path.split("?", 1)[0].rstrip("/") == "/metrics"):
            payload = payload + self.chaos_metrics_text().encode("utf-8")

        truncate = self._fire("http.truncate_body", ordinal, path)
        self._reply(request, status, reason, headers, payload,
                    truncate=truncate is not None)

    def _forward(self, method: str, path: str, headers,
                 body: bytes) -> Tuple[int, str, Dict[str, str], bytes]:
        conn = http.client.HTTPConnection(
            self.upstream_host, self.upstream_port, timeout=self.timeout)
        try:
            outbound = {
                name: value for name, value in headers.items()
                if name.lower() not in _HOP_HEADERS
            }
            conn.request(method, path, body=body or None, headers=outbound)
            response = conn.getresponse()
            payload = response.read()
            relayed = {
                name: response.getheader(name)
                for name in _RELAY_HEADERS
                if response.getheader(name) is not None
            }
            relayed["Content-Type"] = response.getheader(
                "Content-Type", "application/json")
            return response.status, response.reason, relayed, payload
        finally:
            conn.close()

    def _reply(self, request, status: int, reason: str,
               headers: Dict[str, str], payload: bytes,
               truncate: bool = False) -> None:
        try:
            request.send_response(status, reason)
            content_type = headers.pop("Content-Type", "application/json")
            request.send_header("Content-Type", content_type)
            request.send_header("Content-Length", str(len(payload)))
            for name, value in headers.items():
                request.send_header(name, value)
            if truncate:
                # Advertise the full length, deliver half, hang up: the
                # client must see IncompleteRead, never partial JSON.
                request.send_header("Connection", "close")
                request.close_connection = True
                request.end_headers()
                request.wfile.write(payload[:max(0, len(payload) // 2)])
                request.wfile.flush()
                try:
                    request.connection.close()
                except OSError:
                    pass
                return
            request.end_headers()
            request.wfile.write(payload)
        except OSError:
            pass  # client went away mid-reply; nothing to salvage

    def _reply_json(self, request, status: int, document: dict,
                    retry_after: Optional[str] = None) -> None:
        payload = json.dumps(document, sort_keys=True).encode("utf-8")
        headers: Dict[str, str] = {}
        if retry_after is not None:
            headers["Retry-After"] = retry_after
        self._reply(request, status, "", headers, payload)

    # ------------------------------------------------------------------
    # Metrics.
    # ------------------------------------------------------------------
    def counters(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "forwarded": self.forwarded,
                "replays": self.replays,
                "upstream_errors": self.upstream_errors,
                "faults": dict(self.faults),
            }

    def chaos_metrics_text(self) -> str:
        """``repro_service_chaos_*`` families, exposition format."""
        counts = self.counters()
        text = PrometheusText()
        text.sample("service.chaos_requests", "counter",
                    counts["requests"])
        text.sample("service.chaos_forwarded", "counter",
                    counts["forwarded"])
        text.sample("service.chaos_request_replays", "counter",
                    counts["replays"])
        text.sample("service.chaos_upstream_errors", "counter",
                    counts["upstream_errors"])
        for site, count in sorted(counts["faults"].items()):
            text.sample("service.chaos_faults", "counter", count,
                        site=site)
        return text.render()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ChaosProxy(:{self.port} -> "
                f"{self.upstream_host}:{self.upstream_port}, "
                f"requests={self.requests})")
