"""Tests for the metrics registry and its pipeline/stats publishers."""

import io
import json
import urllib.request

import pytest

from repro.assign.base import StrategySpec
from repro.cluster.config import MachineConfig
from repro.core.accounting import CYCLE_LOSS_CATEGORIES
from repro.core.pipeline import Pipeline
from repro.core.simulator import Simulator
from repro.obs import Histogram, MetricsRegistry, PipelineMetrics


@pytest.fixture
def pipeline(tiny_program):
    return Pipeline(tiny_program, MachineConfig(), StrategySpec(kind="fdrt"))


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(4)
        assert registry.counter("a").value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("a").inc(-1)

    def test_gauge_holds_last_value(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.5)
        registry.gauge("g").set(0.25)
        assert registry.gauge("g").value == 0.25

    def test_labels_separate_instruments(self):
        registry = MetricsRegistry()
        registry.counter("c", cluster=0).inc()
        registry.counter("c", cluster=1).inc(2)
        assert registry.counter("c", cluster=0).value == 1
        assert registry.counter("c", cluster=1).value == 2
        names = set(registry.to_dict()["counters"])
        assert names == {"c{cluster=0}", "c{cluster=1}"}

    def test_histogram_buckets_and_overflow(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1, 2, 4))
        for value in (0, 1, 2, 3, 100):
            hist.observe(value)
        assert hist.counts == [2, 1, 1, 1]  # <=1, <=2, <=4, overflow
        assert hist.count == 5
        assert hist.mean == pytest.approx(106 / 5)

    def test_histogram_rejects_bad_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=(4, 2, 1))
        with pytest.raises(ValueError):
            registry.histogram("empty", buckets=())


class TestDisabledRegistry:
    def test_all_instruments_are_noops(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("a").inc()
        registry.gauge("g").set(7)
        registry.histogram("h").observe(3)
        assert registry.to_dict() == {
            "counters": {}, "gauges": {}, "histograms": {}}
        assert list(registry.snapshot()) == []

    def test_shared_null_instrument(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a") is registry.histogram("b")


class TestExport:
    def test_jsonl_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("events", kind="x").inc(3)
        registry.gauge("level").set(0.5)
        registry.histogram("sizes", buckets=(1, 2)).observe(2)
        stream = io.StringIO()
        registry.to_jsonl(stream)
        records = [json.loads(line) for line in
                   stream.getvalue().splitlines()]
        assert len(records) == 3
        by_name = {r["name"]: r for r in records}
        assert by_name["events{kind=x}"]["value"] == 3
        assert by_name["sizes"]["counts"] == [0, 1, 0]
        # Sorted by name for deterministic diffs.
        assert [r["name"] for r in records] == sorted(
            r["name"] for r in records)

    def test_prometheus_scrape_takes_any_label_name(self):
        from repro.obs.server import PrometheusText, TelemetryServer

        registry = MetricsRegistry()
        registry.gauge("queue.size", kind="a", value="b").set(3)
        registry.histogram("wait", buckets=(1,), kind="c",
                           summary="d").observe(0.5)
        server = TelemetryServer(registry=registry)
        server.start()
        try:
            with urllib.request.urlopen(server.url + "/metrics",
                                        timeout=10) as response:
                assert response.status == 200
                text = response.read().decode("utf-8")
        finally:
            server.stop()
        assert 'repro_queue_size{kind="a",value="b"} 3' in text
        assert 'repro_wait{kind="c",quantile="0.5",summary="d"}' in text
        sample = PrometheusText()
        sample.sample("x", "gauge", 1, name="n")
        assert sample.render() == '# TYPE repro_x gauge\nrepro_x{name="n"} 1\n'

    def test_jsonl_to_path(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("one").inc()
        path = tmp_path / "metrics.jsonl"
        registry.to_jsonl(str(path))
        assert json.loads(path.read_text())["name"] == "one"


class TestSimStatsPublish:
    def test_publishes_counters_and_derived_gauges(self, pipeline):
        pipeline.run(1500)
        registry = MetricsRegistry()
        pipeline.stats.publish(registry)
        data = registry.to_dict()
        assert data["counters"]["sim.cycles"] == pipeline.stats.cycles
        assert data["counters"]["sim.retired"] == pipeline.stats.retired
        assert data["gauges"]["sim.ipc"] == pipeline.stats.ipc
        assert data["gauges"]["sim.avg_forward_distance"] == (
            pipeline.stats.avg_forward_distance)
        sources = {f"sim.critical_source{{source={s}}}"
                   for s in ("RF", "RS1", "RS2")}
        assert sources <= set(data["gauges"])

    def test_simulator_publish_metrics(self, tiny_program):
        simulator = Simulator(tiny_program, StrategySpec(kind="fdrt"))
        simulator.run(1500)
        registry = MetricsRegistry()
        simulator.publish_metrics(registry)
        data = registry.to_dict()
        assert data["counters"]["fill.traces_built"] > 0
        assert 0.0 <= data["gauges"]["tc.hit_rate"] <= 1.0


class TestStallAttributorPublish:
    def test_cpi_stack_lands_in_registry(self, pipeline):
        acc = pipeline.accounting
        acc.reset()
        for _ in range(300):
            pipeline.step()
        registry = MetricsRegistry()
        acc.publish(registry)
        data = registry.to_dict()
        losses = [data["gauges"][f"accounting.ipc_loss{{category={c}}}"]
                  for c in CYCLE_LOSS_CATEGORIES]
        assert sum(losses) == pytest.approx(acc.width - acc.retired_slots / 300)
        lost = sum(value for name, value in data["counters"].items()
                   if name.startswith("accounting.lost_slots{"))
        assert lost + acc.retired_slots == acc.width * 300


class TestPipelineMetricsObserver:
    def test_forward_distance_histogram_per_cluster(self, pipeline):
        registry = MetricsRegistry()
        with PipelineMetrics(registry).attach(pipeline):
            pipeline.run(2000)
        data = registry.to_dict()
        dist = {name: h for name, h in data["histograms"].items()
                if name.startswith("dispatch.forward_distance")}
        assert dist  # at least one cluster saw critical forwarding
        for hist in dist.values():
            assert hist["count"] == sum(hist["counts"])
        retired = sum(
            value for name, value in data["counters"].items()
            if name.startswith("retire.count"))
        assert retired == pipeline.stats.retired

    def test_detach_stops_recording(self, pipeline):
        registry = MetricsRegistry()
        metrics = PipelineMetrics(registry).attach(pipeline)
        assert pipeline.observers == (metrics,)
        pipeline.run(500)
        metrics.detach()
        before = registry.counter("retire.count", cluster=0).value
        pipeline.run(500)
        assert registry.counter("retire.count", cluster=0).value == before
        assert pipeline.observers == ()


class TestHistogramSummaryEdgeCases:
    def test_empty_histogram_summary_is_all_zero(self):
        summary = Histogram.of([]).summary()
        assert summary == {"count": 0, "sum": 0.0, "mean": 0.0,
                           "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_single_sample_quantiles_cover_the_sample(self):
        summary = Histogram.of([3.0]).summary()
        assert summary["count"] == 1
        assert summary["sum"] == pytest.approx(3.0)
        assert summary["mean"] == pytest.approx(3.0)
        # One sample lands in one bucket: every quantile interpolates
        # inside that bucket, so none can exceed its upper bound and
        # all must stay past the previous bound.
        assert 2.0 < summary["p50"] <= 4.0
        assert 2.0 < summary["p99"] <= 4.0

    def test_all_equal_samples_agree_across_quantiles(self):
        summary = Histogram.of([5.0] * 100).summary()
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(5.0)
        # All mass sits in the bucket containing 5.0 (bounds 4..8):
        # quantiles interpolate within it and stay ordered.
        assert 4.0 < summary["p50"] <= 8.0
        assert summary["p50"] <= summary["p95"] <= summary["p99"] <= 8.0

    def test_quantiles_are_monotonic_on_spread_data(self):
        values = [0.1 * i for i in range(1, 200)]
        summary = Histogram.of(values).summary()
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
        assert summary["count"] == len(values)
        assert summary["sum"] == pytest.approx(sum(values))

    def test_overflow_samples_report_last_bound(self):
        histogram = Histogram([1.0, 2.0])
        for value in (10.0, 20.0, 30.0):
            histogram.observe(value)
        summary = histogram.summary()
        # Everything overflowed: quantiles can only answer with the
        # largest finite bound, and stay monotonic doing it.
        assert summary["p50"] == summary["p99"] == 2.0
