"""Compare two sets of benchmark runs: the parent (A) and a change (B).

    python perf/compare.py A.json B.json

``A.json`` and ``B.json`` are ``perf/bench.py --out`` files.  The i-th
run of a workload in A pairs with its i-th run in B, so run the two
sides alternately, at least ten times each.  For every (workload,
metric) row this prints both medians, the delta, the bound and a
verdict.  The rows are the ``BENCHMARK.json`` metrics and the
workloads' own figures (:data:`FIGURES`), whose bounds live here
because the contract line does not carry them.

* ``better`` — B wins at least 9 of every 10 pairs and the medians
  differ by more than A's spread (the distance between its quartiles);
* ``worse`` — B's median is worse than A's by more than the bound, or,
  for a metric without a bound, B loses 9 of every 10 pairs by more than
  A's spread;
* ``unresolved`` — fewer than ten pairs, or A's spread is wider than the
  bound and the runs of A and B do not separate (every run of one side
  better than every run of the other);
* ``same`` — otherwise.

A metric without a bound whose paired runs read exactly equal (a count
such as ``core.cycles`` on the same seeds) is ``same``, however few the
runs.

Each workload also gets a ``failed_frac`` row: the share of attempted
operations that failed, over all of a side's runs.  It is ``worse`` when
B fails a larger share than A, and then no row of that workload may be
``better``: a gain does not count while more operations fail.

A ``worse`` end-to-end row names the per-layer metric, from the traced
runs, that got worse by the largest share among those expected to move
it on that workload (see :data:`LAYER_TARGETS`).
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import json
import statistics
import sys
from typing import Dict, List, Optional, Sequence

from harness import load_benchmark

MIN_PAIRS = 10
SIMS = ("sim-mcf-fdrt", "sim-adpcm-issue")
SWEEP = ("sweep-matrix",)
SVC = ("svc-open",)


@dataclasses.dataclass(frozen=True)
class Figure:
    better: str
    bound: float
    #: The bound is a difference in the metric's own unit, not a share
    #: of the parent's median.
    absolute: bool = False


#: The workloads' own end-to-end figures and their bounds.
FIGURES: Dict[str, Figure] = {
    "sim_kips": Figure("higher", 0.10),
    "run_s": Figure("lower", 0.10),
    "sweep_cold_s": Figure("lower", 0.10),
    "sweep_warm_ms.p50": Figure("lower", 0.10),
    "sweep_warm_ms.p99": Figure("lower", 0.10),
    "svc_miss_ms.p50": Figure("lower", 0.10),
    "svc_miss_ms.p90": Figure("lower", 0.10),
    "svc_hit_ms.p50": Figure("lower", 0.10),
    "svc_hit_ms.p90": Figure("lower", 0.10),
    "svc_within_limit_frac": Figure("higher", 0.02, absolute=True),
}

#: Which end-to-end metrics each per-layer metric should move, and on
#: which workloads: (per-layer name pattern, end-to-end name patterns,
#: workloads).
LAYER_TARGETS = [
    ("*.self_share", ("sim_kips", "run_s"), SIMS),
    ("*.calls_per_kinst", ("sim_kips", "run_s"), SIMS),
    ("cluster.ready_checks_per_dispatch", ("sim_kips", "run_s"), SIMS),
    ("workloads.generate_ms", ("setup_s", "run_s"), SIMS),
    ("core.construct_ms", ("setup_s", "run_s"), SIMS),
    ("core.warmup_kips", ("run_s",), SIMS),
    ("runtime.job_elapsed_s.sum", ("sweep_cold_s",), SWEEP),
    ("runtime.pool_busy_frac", ("sweep_cold_s",), SWEEP),
    ("runtime.cache.store_ms.p50", ("sweep_cold_s",), SWEEP),
    ("runtime.cache.load_ms.p50", ("sweep_warm_ms.p50",), SWEEP),
    ("runtime.cache.load_ms.p99", ("sweep_warm_ms.p99",), SWEEP),
    ("runtime.cache.hit_frac", ("sweep_warm_ms.*",), SWEEP),
    ("service.submit_ms.p50", ("svc_hit_ms.*", "svc_miss_ms.*"), SVC),
    ("service.status_ms.p50", ("svc_miss_ms.*",), SVC),
    ("service.queue_wait_ms.p50", ("svc_miss_ms.*",), SVC),
    ("service.execute_ms.p50", ("svc_miss_ms.*",), SVC),
    ("service.hit_frac", ("svc_hit_ms.*",), SVC),
    ("service.backlog_end", ("svc_miss_ms.*",), SVC),
    ("bench.generator_late_ms.max",
     ("svc_miss_ms.*", "svc_hit_ms.*", "svc_within_limit_frac"), SVC),
]


@dataclasses.dataclass
class Row:
    workload: str
    metric: str
    unit: str
    a: float
    b: float
    bound: Optional[float]
    verdict: str
    pairs: int
    wins: int
    absolute: bool = False
    layer: Optional[str] = None
    layer_delta: Optional[float] = None

    @property
    def delta(self) -> float:
        return (self.b - self.a) / abs(self.a) if self.a else 0.0


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: Optional[float], absolute: bool = False) -> str:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    if bound is None and pairs and all(x == y for x, y in pairs):
        return "same"  # a count that repeats exactly, run for run
    if len(pairs) < MIN_PAIRS:
        return "unresolved"
    median_a = statistics.median(a)
    gain = sign * (statistics.median(b) - median_a)
    iqr = spread(a)
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    losses = sum(sign * (y - x) < 0 for x, y in pairs)
    if bound is not None:
        limit = bound if absolute else bound * abs(median_a)
        if iqr > limit:
            # Too noisy to hold against the bound unless the sides
            # separate.
            if all(sign * (y - x) > 0 for x in a for y in b):
                return "better"
            if all(sign * (y - x) < 0 for x in a for y in b) \
                    and -gain > limit:
                return "worse"
            return "unresolved"
    if wins >= 0.9 * len(pairs) and gain > iqr:
        return "better"
    if bound is not None:
        return "worse" if -gain > limit else "same"
    if losses >= 0.9 * len(pairs) and -gain > iqr:
        return "worse"
    return "same"


def _runs(runs: List[dict], workload: str, trace: int) -> List[dict]:
    return [run for run in runs
            if run["workload"] == workload and run["trace"] == trace]


def _series(runs: List[dict], group: str) -> Dict[str, list]:
    series: Dict[str, list] = {}
    for run in runs:
        for name, value in run.get(group, {}).items():
            series.setdefault(name, []).append(value["value"])
    return series


def _failed_share(runs: List[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def _culprit(workload: str, metric: str, layers_a, layers_b,
             per_layer: Dict[str, dict]):
    """The per-layer metric expected to move ``metric`` on ``workload``
    that worsened by the largest share, or ``(None, None)``."""
    best = (None, None)
    for name, values_a in layers_a.items():
        values_b = layers_b.get(name)
        if not values_b or name not in per_layer:
            continue
        if not any(fnmatch.fnmatchcase(name, pattern)
                   and workload in workloads
                   and any(fnmatch.fnmatchcase(metric, target)
                           for target in targets)
                   for pattern, targets, workloads in LAYER_TARGETS):
            continue
        median_a = statistics.median(values_a)
        if median_a == 0:
            continue
        sign = 1.0 if per_layer[name]["better"] == "higher" else -1.0
        worse_by = -sign * (statistics.median(values_b) - median_a) / abs(
            median_a)
        if worse_by > 0 and (best[1] is None or worse_by > best[1]):
            best = (name, worse_by)
    return best


def _row(workload: str, name: str, unit: str, a: list, b: list,
         better: str, bound: Optional[float], absolute: bool = False) -> Row:
    sign = 1.0 if better == "higher" else -1.0
    return Row(workload, name, unit, statistics.median(a),
               statistics.median(b), bound,
               verdict(a, b, better, bound, absolute), min(len(a), len(b)),
               sum(sign * (y - x) > 0 for x, y in zip(a, b)), absolute)


def compare(runs_a: List[dict], runs_b: List[dict],
            benchmark: dict) -> List[Row]:
    """One row per (workload, metric) present on both sides, plus one
    ``failed_frac`` row per workload run on both sides."""
    end_to_end = {spec["name"]: spec for spec in benchmark["end_to_end"]}
    per_layer = {spec["name"]: spec for spec in benchmark["per_layer"]}
    rows: List[Row] = []
    for spec in benchmark["workloads"]:
        workload = spec["name"]
        untraced_a = _runs(runs_a, workload, 0)
        untraced_b = _runs(runs_b, workload, 0)
        layers_a = _series(_runs(runs_a, workload, 1), "metrics")
        layers_b = _series(_runs(runs_b, workload, 1), "metrics")
        series_a = {**_series(untraced_a, "figures"),
                    **_series(untraced_a, "metrics")}
        series_b = {**_series(untraced_b, "figures"),
                    **_series(untraced_b, "metrics")}
        workload_rows: List[Row] = []
        for name, metric in end_to_end.items():
            if series_a.get(name) and series_b.get(name):
                workload_rows.append(_row(
                    workload, name, metric["unit"], series_a[name],
                    series_b[name], metric["better"], metric["bound"]))
        for name, figure in FIGURES.items():
            if series_a.get(name) and series_b.get(name):
                unit = untraced_a[0]["figures"][name]["unit"]
                workload_rows.append(_row(
                    workload, name, unit, series_a[name], series_b[name],
                    figure.better, figure.bound, figure.absolute))
        for row in workload_rows:
            if row.verdict == "worse":
                row.layer, row.layer_delta = _culprit(
                    workload, row.metric, layers_a, layers_b, per_layer)
        for name, metric in per_layer.items():
            a, b = layers_a.get(name), layers_b.get(name)
            if a and b and any(a + b):  # skip layers it does not observe
                workload_rows.append(_row(workload, name, metric["unit"],
                                          a, b, metric["better"], None))
        all_a = [run for run in runs_a if run["workload"] == workload]
        all_b = [run for run in runs_b if run["workload"] == workload]
        if all_a and all_b:
            failed_a, failed_b = _failed_share(all_a), _failed_share(all_b)
            more = failed_b > failed_a
            if more:
                for row in workload_rows:
                    if row.verdict == "better":
                        row.verdict = "unresolved"
            workload_rows.append(Row(
                workload, "failed_frac", "frac", failed_a, failed_b, 0.0,
                "worse" if more else "same", min(len(all_a), len(all_b)), 0,
                absolute=True))
        rows.extend(workload_rows)
    return rows


def render(rows: List[Row]) -> str:
    lines = [f"{'workload':16} {'metric':40} {'A median':>12} "
             f"{'B median':>12} {'delta':>8} {'bound':>6} {'wins':>6}  verdict"]
    for row in rows:
        if row.bound is None:
            bound = "-"
        elif row.absolute:
            bound = f"±{row.bound:g}"
        else:
            bound = f"{row.bound:.0%}"
        line = (f"{row.workload:16} {row.metric:40} {row.a:12.6g} "
                f"{row.b:12.6g} {row.delta:+8.1%} {bound:>6} "
                f"{row.wins:>3}/{row.pairs:<2}  {row.verdict}")
        if row.layer is not None:
            line += f" (layer: {row.layer} {row.layer_delta:+.0%} worse)"
        lines.append(line)
    return "\n".join(lines)


def load_runs(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="bench.py --out file of the parent")
    parser.add_argument("change", help="bench.py --out file of the change")
    args = parser.parse_args(argv)
    rows = compare(load_runs(args.parent), load_runs(args.change),
                   load_benchmark())
    print(render(rows))
    return 1 if any(row.verdict == "worse" for row in rows
                    if row.bound is not None) else 0


if __name__ == "__main__":
    sys.exit(main())
