"""Named metrics: counters, gauges, and fixed-bucket histograms.

:class:`MetricsRegistry` is the simulator-wide metric store.  Every
instrument is addressed by name plus an optional label set::

    registry = MetricsRegistry()
    registry.counter("fetch.packets", source="tc").inc()
    registry.histogram("dispatch.forward_distance", (0, 1, 2, 4),
                       cluster=2).observe(1)
    registry.to_dict()   # {"counters": {...}, "gauges": ..., ...}

A registry built with ``enabled=False`` hands out shared null
instruments whose methods are no-ops, so instrumented code needs no
``if telemetry:`` guards of its own and a disabled registry costs one
dictionary-free method call per event.

Serialised metric names follow the Prometheus-style convention
``name{label=value,...}`` with labels sorted, so exports are
deterministic and diffable.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.obs.tracer import PipelineObserver

#: Default histogram bucket upper bounds (values above the last bound
#: land in the overflow bucket).
DEFAULT_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64)

LabelItems = Tuple[Tuple[str, str], ...]


def _labelled_name(name: str, labels: LabelItems) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """Last-written value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: Union[int, float]) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram: counts per upper bound plus overflow."""

    __slots__ = ("buckets", "counts", "count", "sum")

    def __init__(self, buckets: Sequence[float]) -> None:
        bounds = tuple(buckets)
        if not bounds or any(b > a for b, a in zip(bounds, bounds[1:])):
            raise ValueError(f"buckets must be non-empty ascending: {bounds}")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 = overflow
        self.count = 0
        self.sum = 0.0

    def observe(self, value: Union[int, float]) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @classmethod
    def of(cls, values: Sequence[float],
           buckets: Optional[Sequence[float]] = None) -> "Histogram":
        """Build a histogram over ``values`` (default bucket bounds)."""
        histogram = cls(buckets if buckets is not None else DEFAULT_BUCKETS)
        for value in values:
            histogram.observe(value)
        return histogram

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0..1), interpolated within buckets.

        The first bucket is assumed to start at 0 (all repro metrics
        are non-negative); observations in the overflow bucket clamp to
        the last finite bound, so tail quantiles are conservative lower
        bounds once values exceed the bucket range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0.0
        lower = 0.0
        for i, bound in enumerate(self.buckets):
            in_bucket = self.counts[i]
            if in_bucket and cumulative + in_bucket >= target:
                fraction = (target - cumulative) / in_bucket
                return lower + fraction * (bound - lower)
            cumulative += in_bucket
            lower = bound
        return float(self.buckets[-1])

    def summary(self) -> dict:
        """Count/sum/mean plus interpolated p50/p95/p99.

        The one summary shape shared by the Prometheus exporter
        (:mod:`repro.obs.server`) and ``EngineReport.render``.
        """
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def to_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


class _NullInstrument:
    """Shared no-op stand-in handed out by a disabled registry."""

    __slots__ = ()
    value = 0
    count = 0
    sum = 0.0
    mean = 0.0

    def inc(self, amount=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def quantile(self, q) -> float:
        return 0.0

    def summary(self) -> dict:
        return {"count": 0, "sum": 0.0, "mean": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0}


_NULL = _NullInstrument()


class MetricsRegistry:
    """Registry of named, optionally labelled instruments."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[Tuple[str, LabelItems], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelItems], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelItems], Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument lookup (creates on first use).
    # ------------------------------------------------------------------
    @staticmethod
    def _key(name: str, labels: dict) -> Tuple[str, LabelItems]:
        return name, tuple(sorted((k, str(v)) for k, v in labels.items()))

    def counter(self, name: str, /, **labels) -> Counter:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        key = self._key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, /, **labels) -> Gauge:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        key = self._key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, /,
        **labels,
    ) -> Histogram:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        key = self._key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(
                buckets if buckets is not None else DEFAULT_BUCKETS
            )
        return instrument

    # ------------------------------------------------------------------
    # Export.
    # ------------------------------------------------------------------
    def snapshot(self) -> Iterable[dict]:
        """One record per instrument, sorted by serialised name."""
        records = []
        for (name, labels), c in self._counters.items():
            records.append({
                "name": _labelled_name(name, labels),
                "type": "counter", "value": c.value,
            })
        for (name, labels), g in self._gauges.items():
            records.append({
                "name": _labelled_name(name, labels),
                "type": "gauge", "value": g.value,
            })
        for (name, labels), h in self._histograms.items():
            record = {"name": _labelled_name(name, labels),
                      "type": "histogram"}
            record.update(h.to_dict())
            records.append(record)
        records.sort(key=lambda r: r["name"])
        return records

    def to_dict(self) -> dict:
        """Nested plain-dict form: ``{"counters": {name: value}, ...}``."""
        return {
            "counters": {
                _labelled_name(name, labels): c.value
                for (name, labels), c in sorted(self._counters.items())
            },
            "gauges": {
                _labelled_name(name, labels): g.value
                for (name, labels), g in sorted(self._gauges.items())
            },
            "histograms": {
                _labelled_name(name, labels): h.to_dict()
                for (name, labels), h in sorted(self._histograms.items())
            },
        }

    def to_jsonl(self, stream_or_path) -> None:
        """Write :meth:`snapshot` as JSON Lines (one metric per line)."""
        if hasattr(stream_or_path, "write"):
            for record in self.snapshot():
                stream_or_path.write(json.dumps(record, sort_keys=True) + "\n")
            return
        with open(stream_or_path, "w", encoding="utf-8") as handle:
            self.to_jsonl(handle)


class PipelineMetrics(PipelineObserver):
    """Observer that feeds per-event pipeline metrics into a registry.

    Attach alongside (or instead of) a
    :class:`~repro.obs.tracer.CycleTracer`::

        registry = MetricsRegistry()
        with PipelineMetrics(registry).attach(pipeline):
            pipeline.run(30_000)
        registry.to_dict()["histograms"]["dispatch.forward_distance{cluster=2}"]
    """

    #: Forward-distance bucket bounds (clusters traversed).
    DISTANCE_BUCKETS = (0, 1, 2, 3, 4)

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry

    def on_fetch(self, packet, now: int) -> None:
        source = "tc" if packet[0].from_trace_cache else "icache"
        self.registry.counter("fetch.packets", source=source).inc()
        self.registry.counter(
            "fetch.instructions", source=source).inc(len(packet))

    def on_dispatch(self, inst, now: int) -> None:
        self.registry.counter("dispatch.count", cluster=inst.cluster).inc()
        if inst.critical_forwarded:
            self.registry.histogram(
                "dispatch.forward_distance", self.DISTANCE_BUCKETS,
                cluster=inst.cluster,
            ).observe(inst.critical_distance)

    def on_retire(self, inst, now: int) -> None:
        self.registry.counter("retire.count", cluster=inst.cluster).inc()

    def on_fill_install(self, line, ready: int, now: int) -> None:
        self.registry.counter("fill.installs").inc()
