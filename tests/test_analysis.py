"""Unit tests for the analysis tooling (utilization, export, charts)."""

import pytest

from repro import Simulator, StrategySpec
from repro.analysis import (
    bar_chart,
    collect_utilization,
    results_to_csv,
    results_to_rows,
)
from repro.analysis.charts import grouped_bar_chart, sparkline


@pytest.fixture(scope="module")
def run(request):
    import repro.workloads as w
    program = w.generate_program(w.profile_for("gzip"))
    simulator = Simulator(program, StrategySpec(kind="fdrt"))
    result = simulator.run(3000)
    return simulator, result


class TestUtilization:
    def test_collect(self, run):
        simulator, _ = run
        report = collect_utilization(simulator.pipeline)
        assert report.cycles > 0
        assert len(report.cluster_dispatches) == 4
        assert sum(report.cluster_dispatches) > 2500

    def test_shares_sum_to_one(self, run):
        simulator, _ = run
        report = collect_utilization(simulator.pipeline)
        assert sum(report.cluster_shares) == pytest.approx(1.0)

    def test_imbalance_at_least_one(self, run):
        simulator, _ = run
        report = collect_utilization(simulator.pipeline)
        assert report.imbalance >= 1.0

    def test_busiest_units(self, run):
        simulator, _ = run
        report = collect_utilization(simulator.pipeline)
        top = report.busiest_units(3)
        assert len(top) == 3
        assert top[0][1] >= top[1][1] >= top[2][1]

    def test_render(self, run):
        simulator, _ = run
        text = collect_utilization(simulator.pipeline).render()
        assert "cluster 0" in text and "imbalance" in text


class TestExport:
    def test_rows_have_scalars_and_nested(self, run):
        _, result = run
        rows = results_to_rows([result])
        assert rows[0]["benchmark"] == "gzip"
        assert "critical_source.RF" in rows[0]
        assert "option_counts.A" in rows[0]

    def test_csv_roundtrip(self, run):
        _, result = run
        text = results_to_csv([result, result])
        lines = text.strip().splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert lines[0].startswith("benchmark,strategy,")
        import csv
        import io
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert float(parsed[0]["ipc"]) == pytest.approx(result.ipc)

    def test_empty(self):
        assert results_to_csv([]) == ""


class TestCharts:
    def test_bar_lengths_proportional(self):
        chart = bar_chart({"a": 1.0, "b": 2.0, "c": 3.0}, width=10)
        lines = chart.splitlines()
        counts = [line.count("#") for line in lines]
        assert counts[0] < counts[1] < counts[2]

    def test_baseline_marker(self):
        chart = bar_chart({"x": 0.9, "y": 1.1}, baseline=1.0)
        assert "(below baseline)" in chart.splitlines()[0]
        assert "(below baseline)" not in chart.splitlines()[1]

    def test_title_and_empty(self):
        assert bar_chart({}, title="T") == "T"
        assert bar_chart({"a": 1.0}, title="T").startswith("T")

    def test_grouped(self):
        out = grouped_bar_chart({"g1": {"a": 1.0}, "g2": {"b": 2.0}})
        assert "[g1]" in out and "[g2]" in out

    def test_sparkline(self):
        line = sparkline([41.0, 42.0, 43.0])
        assert len(line) == 3 and line[0] < line[1] < line[2]
        assert sparkline([]) == ""
        assert len(set(sparkline([5.0, 5.0, 5.0]))) == 1
