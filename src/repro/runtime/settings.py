"""Every ``REPRO_*`` runtime knob: one table, one resolution rule.

:func:`setting` resolves a knob as *explicit argument* >
:func:`configure` override > environment variable > default.  An empty
environment value counts as unset.  Every source goes through the
knob's parse; a value that fails it raises one :class:`ValueError`
naming its source and the bad value.  A non-positive duration
(``timeout``, ``stale_after``) means off.  ``docs/RUNTIME.md`` "Knobs"
gives each knob's meaning and default.
"""

from __future__ import annotations

import os
from typing import Any, Callable, NamedTuple


def _int(value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError("expected an integer") from None


def _float(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError("expected a number") from None


def _workers(value) -> int:
    if value in ("auto", "0", 0):
        return os.cpu_count() or 1
    try:
        return max(1, int(value))
    except (TypeError, ValueError):
        raise ValueError("expected an integer or 'auto'") from None


def _cache_on(value) -> bool:
    # From REPRO_NO_CACHE any non-empty text turns the cache off.
    return not value if isinstance(value, str) else bool(value)


def _port(value) -> int:
    port = _int(value)
    if not 0 <= port <= 65535:
        raise ValueError("expected a port in 0..65535")
    return port


def _shards(value) -> int:
    shards = _int(value)
    if not 1 <= shards <= 4096:
        raise ValueError("expected a shard count in 1..4096")
    return shards


def _url(value):
    if not value:
        return None
    url = str(value).rstrip("/")
    if not url.startswith(("http://", "https://")):
        raise ValueError("expected http(s)://host:port")
    return url


def _count(value) -> int:
    """Cycles between records; ``0`` = off."""
    return max(0, _int(value))


def _limit(value):
    """A positive bound, or ``None`` (= unbounded) for ``<= 0``."""
    limit = _int(value)
    return limit if limit > 0 else None


def _seconds(value):
    """A positive duration, or ``None`` (= off) for ``<= 0``."""
    seconds = _float(value)
    return seconds if seconds > 0 else None


def _beat_cycles() -> int:
    # Loaded on first use: the service and the worker import this
    # module at start-up and must not pay for obs.heartbeat there.
    from repro.obs.heartbeat import DEFAULT_BEAT_CYCLES

    return DEFAULT_BEAT_CYCLES


class Knob(NamedTuple):
    env: str
    parse: Callable[[Any], Any]
    #: The value when no source sets the knob; a callable is called.
    default: Any


#: Every ``REPRO_*`` knob, by the name :func:`setting` takes.
KNOBS = {
    "jobs": Knob("REPRO_JOBS", _workers, 1),
    "cache": Knob("REPRO_NO_CACHE", _cache_on, True),
    "cache_dir": Knob("REPRO_CACHE_DIR", os.fspath, lambda: os.path.join(
        os.path.expanduser("~"), ".cache", "repro")),
    "cache_shards": Knob("REPRO_CACHE_SHARDS", _shards, 16),
    "service_url": Knob("REPRO_SERVICE_URL", _url, None),
    "telemetry_dir": Knob("REPRO_TELEMETRY_DIR", os.fspath, None),
    "serve": Knob("REPRO_SERVE_PORT", _port, None),
    "timeout": Knob("REPRO_JOB_TIMEOUT", _seconds, None),
    "backoff": Knob("REPRO_RETRY_BACKOFF",
                    lambda value: max(0.0, _float(value)), 0.5),
    "heartbeat_cycles": Knob("REPRO_HEARTBEAT_CYCLES", _count, _beat_cycles),
    "interval_cycles": Knob("REPRO_INTERVAL_CYCLES", _count, 0),
    "stale_after": Knob("REPRO_STALE_AFTER", _seconds, None),
    "trace_sample": Knob("REPRO_TRACE_SAMPLE",
                         lambda value: min(1.0, max(0.0, _float(value))), 1.0),
    "trace_dir": Knob("REPRO_TRACE_DIR", os.fspath, None),
    "queue_limit": Knob("REPRO_QUEUE_LIMIT", _limit, None),
    "bench_instructions": Knob("REPRO_BENCH_INSTRUCTIONS", _int, 40_000),
    "bench_warmup": Knob("REPRO_BENCH_WARMUP", _int, 30_000),
}

#: The knobs :func:`configure` may override.
CONFIGURABLE = ("jobs", "cache", "telemetry_dir", "serve", "service_url")

_configured: dict = {}


def configure(**overrides) -> None:
    """Set process-wide overrides for the :data:`CONFIGURABLE` knobs
    (the CLI's runtime flags land here, so code deep below
    ``run_matrix`` inherits them); ``None`` clears one."""
    unknown = set(overrides) - set(CONFIGURABLE)
    if unknown:
        raise TypeError(f"configure() got unknown knobs {sorted(unknown)}")
    _configured.update(overrides)


def parse(name: str, value, source: str):
    """``value`` through knob ``name``'s parse; a failure names ``source``."""
    try:
        return KNOBS[name].parse(value)
    except (TypeError, ValueError) as error:
        raise ValueError(f"invalid {source} {value!r}: {error}") from None


def setting(name: str, explicit=None):
    """Resolve knob ``name``: explicit > configure > environment > default."""
    if explicit is not None:
        return parse(name, explicit, f"{name} argument")
    if _configured.get(name) is not None:
        return parse(name, _configured[name], f"configured {name}")
    knob = KNOBS[name]
    value = os.environ.get(knob.env)
    if value:
        return parse(name, value, knob.env)
    return knob.default() if callable(knob.default) else knob.default
