"""repro.service — simulation-as-a-service over the runtime layer.

The service turns the single-host runtime (``repro.runtime``) into a
shared compute/memoization tier: identical content-addressed cells are
computed once globally and served from the sharded result cache at wire
speed afterwards.

* :class:`ServiceServer` — stdlib HTTP job API grown from the
  read-only :class:`~repro.obs.server.TelemetryServer`: idempotent
  ``POST /jobs`` keyed by :attr:`SimJob.key`, status/result at
  ``GET /jobs/<key>``, queue depth at ``GET /queue``, the HTTP cache
  backend at ``GET /cache/<key>``, and a journaled on-disk queue that
  survives server restarts (:mod:`repro.service.server`);
* :class:`JobQueue` — the durable lease-based queue behind the API
  (:mod:`repro.service.queue`);
* :class:`WorkerAgent` — the pull-based execution agent behind
  ``repro worker URL``: claim with lease, execute via
  :meth:`SimJob.run`, heartbeat over HTTP, complete or fail
  (:mod:`repro.service.worker`);
* :func:`submit_jobs` / :func:`fetch_results` — the client helpers
  behind ``repro submit`` / ``repro fetch``
  (:mod:`repro.service.client`);
* :class:`ServiceTransport` — the hardened HTTP client every agent
  shares: idempotent retries keyed on ``X-Repro-Request-Id``,
  per-endpoint circuit breakers, deterministic backoff jitter,
  ``Retry-After`` honoring (:mod:`repro.service.transport`);
* :func:`run_chaos_soak` / :class:`ChaosReport` — the ``repro chaos``
  soak harness: a pinned job matrix pushed through server + workers
  under a combined fault plan, asserting zero lost jobs and
  byte-identical results (:mod:`repro.service.chaos`).

Results are byte-identical whether a cell is computed inline, by a
local pool, or by a remote worker — the service only moves *where*
:meth:`SimJob.run` executes, never *what* it computes.  See
``docs/SERVICE.md`` for the API schema, the lease protocol, and the
cache sharding/eviction design.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro._http": ("ServiceUnavailable",),
    "repro.service.chaos": ("ChaosReport", "run_chaos_soak"),
    "repro.service.client": (
        "JobRejected", "RemoteJobFailed", "fetch_results", "latency_breakdown",
        "render_latency", "submit_jobs",
    ),
    "repro.service.queue": (
        "DEFAULT_LEASE_SECONDS", "JobQueue", "QueueEntry", "QueueReadOnly",
    ),
    "repro.service.server": ("SERVICE_API_VERSION", "ServiceServer"),
    "repro.service.transport": ("ServiceTransport",),
    "repro.service.worker": ("WorkerAgent",),
})
