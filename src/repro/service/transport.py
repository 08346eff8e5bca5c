"""Hardened HTTP transport shared by service clients and workers.

:class:`ServiceTransport` wraps the one round trip of
:mod:`repro._http` in the retry discipline the chaos suite demands
(see ``docs/RESILIENCE.md``):

* **Idempotent retries keyed on ``X-Repro-Request-Id``.**  One logical
  operation mints one request id and reuses it across every retry; the
  server's replay cache answers a retried mutation with the original
  response instead of applying it twice.  This is what makes
  ``http.drop_response`` — effect applied, acknowledgement lost —
  survivable without duplicate cache-store effects.
* **Per-endpoint circuit breakers** (:class:`CircuitBreaker`) with
  deterministic half-open probing: a flapping ``/complete`` does not
  take ``/claim`` down with it, and two transports never probe in
  lock-step because cooldowns are jittered by transport name.
* **Deterministic backoff jitter** — ``deterministic_jitter`` keyed on
  ``(name, path)``; a fleet restarting after ``server.crash`` spreads
  its reconnects without any RNG state.
* **429 + ``Retry-After`` honoured** as load shedding, not failure:
  the transport sleeps the server-suggested delay and tries again
  without tripping the breaker (the server is healthy — that is the
  point of shedding).
* **Deadline propagation**: an absolute deadline rides the
  ``X-Repro-Deadline`` header so the server can decline work the
  client has already given up on (a claim leased to a dead client
  would just burn a lease timeout).

Errors collapse to :class:`~repro._http.ServiceUnavailable` once the
bounded budget is spent.  The leaf raises it for every connection-level
fault, torn responses (``http.truncate_body``) and non-object replies
included; this transport retries it as connection loss when the request
is idempotent.
"""

from __future__ import annotations

import time
import uuid
from typing import Dict, Optional

from repro._http import REQUEST_TIMEOUT, ServiceUnavailable, json_round_trip
from repro.resilience.retry import CircuitBreaker, deterministic_jitter

#: Default retry budget per logical request.
DEFAULT_RETRIES = 4

#: Default backoff base seconds (doubles per attempt, jittered ±25%).
DEFAULT_BACKOFF = 0.25

#: Ceiling on a server-suggested ``Retry-After`` sleep — a confused or
#: hostile header must not park a worker for minutes.
MAX_RETRY_AFTER = 5.0

def _retry_after_seconds(headers, fallback: float) -> float:
    """The server's ``Retry-After`` (seconds form), bounded sane."""
    try:
        seconds = float(headers.get("Retry-After"))
    except (TypeError, ValueError):
        return fallback
    return min(max(0.0, seconds), MAX_RETRY_AFTER)


class ServiceTransport:
    """Retrying, breaker-gated JSON-over-HTTP client for one service.

    One instance per agent (worker loop, submit/fetch client); all
    state — breakers, counters, request-id minting — is per-instance,
    and the jitter/probe schedule is a pure function of ``name``, so a
    named transport behaves identically run to run.
    """

    def __init__(self, url: str, name: str = "client",
                 retries: int = DEFAULT_RETRIES,
                 backoff: float = DEFAULT_BACKOFF,
                 breaker_threshold: int = 4,
                 breaker_cooldown: float = 0.5,
                 _sleep=time.sleep) -> None:
        self.url = url.rstrip("/")
        self.name = name
        self.retries = max(0, int(retries))
        self.backoff = max(0.0, float(backoff))
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self._sleep = _sleep
        self._breakers: Dict[str, CircuitBreaker] = {}
        self.attempts = 0
        self.retried = 0
        self.rate_limited = 0
        self.breaker_rejections = 0
        self.deadline_expired = 0

    # ------------------------------------------------------------------
    def breaker(self, path: str) -> CircuitBreaker:
        gate = self._breakers.get(path)
        if gate is None:
            gate = CircuitBreaker(
                name=f"{self.name}:{path}",
                threshold=self.breaker_threshold,
                cooldown=self.breaker_cooldown,
            )
            self._breakers[path] = gate
        return gate

    def counters(self) -> dict:
        return {
            "attempts": self.attempts,
            "retried": self.retried,
            "rate_limited": self.rate_limited,
            "breaker_rejections": self.breaker_rejections,
            "deadline_expired": self.deadline_expired,
            "breaker_opens": sum(b.opens for b in self._breakers.values()),
        }

    # ------------------------------------------------------------------
    def post_json(self, path: str, document: dict,
                  timeout: float = REQUEST_TIMEOUT,
                  headers: Optional[dict] = None,
                  idempotent: bool = True,
                  deadline: Optional[float] = None) -> dict:
        """POST with bounded retries; the full hardening stack applies.

        Returns the response document (error documents carry a
        ``status`` field); raises :class:`ServiceUnavailable` once the
        retry budget is spent.
        """
        merged = {"X-Repro-Request-Id": uuid.uuid4().hex[:16]}
        if headers:
            merged.update(headers)
        if deadline is not None:
            merged["X-Repro-Deadline"] = f"{deadline:.3f}"
        return self._round_trips(path, document, merged, timeout,
                                 idempotent, deadline)

    def get_json(self, path: str, timeout: float = REQUEST_TIMEOUT,
                 deadline: Optional[float] = None) -> Optional[dict]:
        """GET with the same retry/breaker stack; ``None`` on 404."""
        headers = {"X-Repro-Request-Id": uuid.uuid4().hex[:16]}
        payload = self._round_trips(path, None, headers, timeout, True,
                                    deadline)
        if payload.get("status") == 404:
            return None
        return payload

    # ------------------------------------------------------------------
    def _round_trips(self, path: str, document: Optional[dict],
                     headers: dict, timeout: float, idempotent: bool,
                     deadline: Optional[float]) -> dict:
        gate = self.breaker(path)
        last_error: Optional[str] = None
        for attempt in range(self.retries + 1):
            if deadline is not None and time.time() >= deadline:
                self.deadline_expired += 1
                raise ServiceUnavailable(f"{path}: deadline exceeded")
            if not gate.allow():
                self.breaker_rejections += 1
                last_error = "circuit open"
                self._pause(path, attempt, floor=gate.probe_in())
                continue
            self.attempts += 1
            try:
                status, reply_headers, payload = json_round_trip(
                    f"{self.url}{path}", document, headers, timeout)
            except ServiceUnavailable as error:
                gate.record_failure()
                last_error = str(error)
                if not idempotent or attempt == self.retries:
                    raise ServiceUnavailable(f"{path}: {last_error}") from None
                self.retried += 1
                self._pause(path, attempt)
                continue
            if status == 429:
                # Load shedding: the server is healthy and told us
                # when to come back.  Not a breaker failure.
                gate.record_success()
                self.rate_limited += 1
                if attempt == self.retries:
                    raise ServiceUnavailable(
                        f"{path}: still shedding (HTTP 429) after "
                        f"{self.retries + 1} attempts")
                self.retried += 1
                self._sleep(_retry_after_seconds(reply_headers,
                                                 self.backoff))
                continue
            if status >= 500:
                gate.record_failure()
                last_error = f"HTTP {status}"
                if attempt == self.retries:
                    raise ServiceUnavailable(
                        f"{path}: HTTP {status} after "
                        f"{self.retries + 1} attempts")
                self.retried += 1
                self._pause(path, attempt)
                continue
            # Success, or a plain 4xx: a real answer, not an outage.
            gate.record_success()
            return payload
        raise ServiceUnavailable(
            f"{path}: {last_error or 'retry budget spent'}")

    def _pause(self, path: str, attempt: int, floor: float = 0.0) -> None:
        base = self.backoff * (2 ** attempt)
        delay = deterministic_jitter(f"{self.name}:{path}", attempt, base)
        self._sleep(max(delay, min(floor, MAX_RETRY_AFTER)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ServiceTransport({self.url!r}, name={self.name!r})"
