"""Process-wide runtime defaults and their environment fallbacks.

Resolution order for every knob is *explicit argument* >
:func:`configure` override > environment variable > built-in default.
The CLI's ``--jobs`` / ``--no-cache`` flags call :func:`configure` so
that experiment code deep below ``run_matrix`` inherits them without
threading parameters through every call site.

Environment variables:

``REPRO_JOBS``
    Worker-process count for the executor (``auto`` or ``0`` = one per
    CPU).  Default ``1`` (inline execution, no pool).
``REPRO_CACHE_DIR``
    Result-cache root directory.  Default ``~/.cache/repro``.
``REPRO_NO_CACHE``
    Any non-empty value disables the result cache entirely.
``REPRO_JOB_TIMEOUT``
    Per-job timeout in seconds (float).  Default: no timeout.
``REPRO_RETRY_BACKOFF``
    Base delay, in seconds, of the deterministic exponential backoff
    between retry rounds (``base * 2**(round-1)``, capped).  ``0``
    disables backoff.  Default ``0.5``.
``REPRO_TELEMETRY_DIR``
    Directory for run telemetry (``events.jsonl`` + ``manifest.json``,
    see ``docs/OBSERVABILITY.md``).  Default: telemetry disabled.
``REPRO_SERVE_PORT``
    Start the live telemetry HTTP exporter on this port for every
    engine run (``0`` = an ephemeral OS-assigned port).  Default: no
    server.
``REPRO_HEARTBEAT_CYCLES``
    Simulated cycles between worker heartbeat records.  Default
    ``2000``; any value ``<= 0`` disables heartbeats.
``REPRO_INTERVAL_CYCLES``
    Simulated cycles per time-series window: when set to a positive
    value, workers attach an
    :class:`~repro.obs.timeseries.IntervalRecorder` to every job and
    the last window's gauges ride heartbeats onto ``/metrics``
    (``repro_worker_interval_*``).  Default ``0`` (recorder off; runs
    stay on the zero-overhead fast path).
``REPRO_STALE_AFTER``
    Seconds of heartbeat silence before a worker is flagged stale and
    handed to the reaping watchdog (float).  Default: staleness
    detection off.
``REPRO_CACHE_SHARDS``
    Shard-directory fan-out for *new* result-cache roots (see
    ``docs/SERVICE.md``).  An existing root keeps the shard count
    recorded in its ``layout.json`` regardless of this setting, so
    every process addressing the root agrees on the layout.  Default
    ``16``.
``REPRO_SERVICE_URL``
    Base URL of a ``repro service`` instance.  When set, the result
    cache consults ``GET <url>/cache/<key>`` on local misses before
    simulating (the shared global memoization tier), and the
    ``submit`` / ``fetch`` / ``worker`` commands use it as their
    default endpoint.  Default: no remote cache.
``REPRO_TRACE_SAMPLE``
    Fraction of distributed traces that are sampled (recorded), in
    ``[0, 1]`` — the root sampling decision is a deterministic hash of
    the trace id, inherited by every child span (see
    ``docs/OBSERVABILITY.md``, "Distributed tracing").  Default ``1.0``
    (trace everything); ``0`` disables tracing entirely.
``REPRO_TRACE_DIR``
    Directory where service clients and workers additionally append
    their own ``spans.jsonl`` (they always ship spans to the service's
    ``POST /spans``).  Default: no local span file.
``REPRO_QUEUE_LIMIT``
    Maximum number of *non-terminal* entries the service queue accepts
    before new submissions are shed with ``429 Too Many Requests`` +
    ``Retry-After`` (load shedding; see ``docs/RESILIENCE.md``).
    Default: unbounded.
"""

from __future__ import annotations

import os
from typing import Optional, Union

_UNSET = object()

#: :func:`configure` overrides; ``None`` means "not configured".
_configured = {"jobs": None, "cache": None, "telemetry_dir": None,
               "serve": None, "service_url": None}


def configure(jobs=_UNSET, cache=_UNSET, telemetry_dir=_UNSET,
              serve=_UNSET, service_url=_UNSET) -> None:
    """Set process-wide runtime defaults.

    ``jobs`` is a worker count (int, or ``'auto'`` for one per CPU);
    ``cache`` is a bool enabling/disabling the result cache;
    ``telemetry_dir`` is a directory for engine run telemetry; ``serve``
    is a port for the live telemetry HTTP exporter (``0`` = ephemeral);
    ``service_url`` is the base URL of a ``repro service`` instance the
    result cache consults on local misses.  Pass ``None`` to clear an
    override back to environment resolution.
    """
    if jobs is not _UNSET:
        _configured["jobs"] = jobs
    if cache is not _UNSET:
        _configured["cache"] = cache
    if telemetry_dir is not _UNSET:
        _configured["telemetry_dir"] = telemetry_dir
    if serve is not _UNSET:
        _configured["serve"] = serve
    if service_url is not _UNSET:
        _configured["service_url"] = service_url


def configured_jobs():
    return _configured["jobs"]


def configured_cache() -> Optional[bool]:
    return _configured["cache"]


def resolve_jobs(explicit: Union[int, str, None] = None) -> int:
    """Resolve a worker count from argument, configuration, or env."""
    value = explicit
    if value is None:
        value = _configured["jobs"]
    if value is None:
        value = os.environ.get("REPRO_JOBS") or 1
    if value in ("auto", "0", 0):
        return os.cpu_count() or 1
    try:
        return max(1, int(value))
    except (TypeError, ValueError):
        raise ValueError(
            f"invalid worker count {value!r}: expected an integer or 'auto'"
        ) from None


def resolve_cache_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve whether the result cache is enabled."""
    if explicit is not None:
        return explicit
    if _configured["cache"] is not None:
        return bool(_configured["cache"])
    return not os.environ.get("REPRO_NO_CACHE")


def resolve_cache_dir(explicit: Union[str, os.PathLike, None] = None) -> str:
    """Resolve the cache root directory."""
    if explicit is not None:
        return os.fspath(explicit)
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def resolve_telemetry_dir(
    explicit: Union[str, os.PathLike, None] = None,
) -> Optional[str]:
    """Resolve the telemetry directory (``None`` = telemetry off)."""
    if explicit is not None:
        return os.fspath(explicit)
    if _configured["telemetry_dir"] is not None:
        return os.fspath(_configured["telemetry_dir"])
    return os.environ.get("REPRO_TELEMETRY_DIR") or None


def resolve_timeout(explicit: Optional[float] = None) -> Optional[float]:
    """Resolve the per-job timeout in seconds (``None`` = unlimited)."""
    if explicit is not None:
        return explicit
    env = os.environ.get("REPRO_JOB_TIMEOUT")
    return float(env) if env else None


def resolve_serve_port(
    explicit: Union[int, str, None] = None,
) -> Optional[int]:
    """Resolve the telemetry-server port (``None`` = no server).

    ``0`` is a valid port: the OS assigns an ephemeral one (the server
    reports what it actually bound).
    """
    value = explicit
    if value is None:
        value = _configured["serve"]
    if value is None:
        value = os.environ.get("REPRO_SERVE_PORT")
    if value is None or value == "":
        return None
    try:
        port = int(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"invalid serve port {value!r}: expected an integer"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"serve port out of range: {port}")
    return port


def resolve_heartbeat_cycles(explicit: Optional[int] = None) -> int:
    """Resolve cycles between heartbeats (``0`` = heartbeats off)."""
    value = explicit
    if value is None:
        env = os.environ.get("REPRO_HEARTBEAT_CYCLES")
        if env:
            value = env
    if value is None:
        from repro.obs.heartbeat import DEFAULT_BEAT_CYCLES

        return DEFAULT_BEAT_CYCLES
    try:
        return max(0, int(value))
    except (TypeError, ValueError):
        raise ValueError(
            f"invalid heartbeat interval {value!r}: expected an integer"
        ) from None


def resolve_interval_cycles(explicit: Optional[int] = None) -> int:
    """Resolve cycles per time-series window (``0`` = recorder off)."""
    value = explicit
    if value is None:
        env = os.environ.get("REPRO_INTERVAL_CYCLES")
        if env:
            value = env
    if value is None:
        return 0
    try:
        return max(0, int(value))
    except (TypeError, ValueError):
        raise ValueError(
            f"invalid interval cycles {value!r}: expected an integer"
        ) from None


def resolve_stale_after(explicit: Optional[float] = None) -> Optional[float]:
    """Resolve the heartbeat staleness budget (``None`` = detection off)."""
    if explicit is not None:
        return max(0.0, float(explicit))
    env = os.environ.get("REPRO_STALE_AFTER")
    return max(0.0, float(env)) if env else None


#: Default shard-directory fan-out for new cache roots.
DEFAULT_CACHE_SHARDS = 16


def resolve_cache_shards(explicit: Optional[int] = None) -> int:
    """Resolve the shard fan-out for a *new* cache root.

    Existing roots pin their layout in ``layout.json`` — this setting
    only applies when a root is first created (see
    :class:`repro.runtime.cache.ResultCache`).
    """
    value = explicit
    if value is None:
        value = os.environ.get("REPRO_CACHE_SHARDS")
    if value is None or value == "":
        return DEFAULT_CACHE_SHARDS
    try:
        shards = int(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"invalid cache shard count {value!r}: expected an integer"
        ) from None
    if not 1 <= shards <= 4096:
        raise ValueError(f"cache shard count out of range: {shards}")
    return shards


def resolve_service_url(explicit: Optional[str] = None) -> Optional[str]:
    """Resolve the simulation-service base URL (``None`` = no service)."""
    value = explicit
    if value is None:
        value = _configured["service_url"]
    if value is None:
        value = os.environ.get("REPRO_SERVICE_URL")
    if not value:
        return None
    value = str(value).rstrip("/")
    if not value.startswith(("http://", "https://")):
        raise ValueError(
            f"invalid service URL {value!r}: expected http(s)://host:port"
        )
    return value


def resolve_trace_sample(explicit: Optional[float] = None) -> float:
    """Resolve the distributed-trace sampling rate (clamped to [0, 1])."""
    value = explicit
    if value is None:
        env = os.environ.get("REPRO_TRACE_SAMPLE")
        if env is None or env == "":
            return 1.0
        value = env
    try:
        rate = float(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"invalid trace sample rate {value!r}: expected a float in [0, 1]"
        ) from None
    return min(1.0, max(0.0, rate))


def resolve_trace_dir(
    explicit: Union[str, os.PathLike, None] = None,
) -> Optional[str]:
    """Resolve the local span directory (``None`` = no local spans)."""
    if explicit is not None:
        return os.fspath(explicit)
    return os.environ.get("REPRO_TRACE_DIR") or None


def resolve_queue_limit(explicit: Optional[int] = None) -> Optional[int]:
    """Resolve the service queue-depth bound (``None`` = unbounded).

    The bound counts non-terminal entries (pending + running): a full
    queue sheds *new* submissions with 429 + ``Retry-After`` while
    still answering duplicates and cache hits.
    """
    value = explicit
    if value is None:
        value = os.environ.get("REPRO_QUEUE_LIMIT")
    if value is None or value == "":
        return None
    try:
        limit = int(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"invalid queue limit {value!r}: expected an integer"
        ) from None
    return limit if limit > 0 else None


def resolve_backoff(explicit: Optional[float] = None) -> float:
    """Resolve the retry-backoff base delay in seconds (``0`` = off)."""
    if explicit is not None:
        return max(0.0, float(explicit))
    env = os.environ.get("REPRO_RETRY_BACKOFF")
    if env:
        return max(0.0, float(env))
    return 0.5
