"""The ``sweep-matrix`` workload: the path every experiment takes.

``ExperimentEngine(jobs=2)`` over a 48-cell matrix, first cold (every
cell simulated in the process pool and written to an empty
``ResultCache``), then fully warm (every cell read back from the cache,
which is what re-running an experiment or paper figure costs).

Set-up, sweep and re-run times are wall time, as a user waits for them.
``setup_s`` is a fresh engine, cache and pool up to its first two
cells, scaled to the nominal host speed (:class:`harness.HostSpeed`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import time
from typing import List, Sequence

from harness import HostSpeed, Run, cells_digest, check_sample, \
    children_peak_rss_mb, clock, median, percentile, repeat_within, \
    scratch, self_peak_rss_mb
from layers import LayerTrace

NAME = "sweep-matrix"
WORKERS = 2


@dataclasses.dataclass(frozen=True)
class SweepBudget:
    benchmarks: Sequence[str] = ("gzip", "twolf", "mcf", "gcc", "adpcm_enc",
                                 "perlbmk")
    strategies: Sequence[str] = ("base", "issue", "friendly", "fdrt")
    instructions: int = 4_000
    warmup: int = 1_000
    #: Share of the run spent on cold sweeps; the rest re-runs warm.
    cold_share: float = 0.65
    #: Fresh engines started behind ``setup_s``, after one discarded.
    setup_starts: int = 5

    @property
    def tag(self) -> str:
        return (f"{len(self.benchmarks)}x{len(self.strategies)}x2 "
                f"{self.instructions}/{self.warmup}")


BUDGET = SweepBudget()


def matrix(seed: int, budget: SweepBudget) -> list:
    from repro.assign.base import StrategySpec
    from repro.cluster.config import MachineConfig
    from repro.runtime.job import SimJob

    config = MachineConfig()
    return [SimJob(benchmark, StrategySpec(kind=kind), config,
                   budget.instructions, budget.warmup, job_seed)
            for benchmark in budget.benchmarks
            for kind in budget.strategies
            for job_seed in (seed, seed + 1)]


def _engine(root):
    from repro.runtime.cache import ResultCache
    from repro.runtime.executor import ExperimentEngine

    return ExperimentEngine(jobs=WORKERS,
                            cache=ResultCache(root=str(root), remote=False))


def _reap_pool(timeout: float = 30.0) -> None:
    """Wait until the engine's pool processes have exited and been
    reaped (the engine shuts a clean pool down without waiting)."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("sweep pool workers did not exit")
        time.sleep(0.01)


def _cache_hooks() -> list:
    from repro.runtime.cache import ResultCache

    return [("runtime.cache.load", ResultCache, "load"),
            ("runtime.cache.store", ResultCache, "store")]


def run_workload(seed: int, seconds: float, trace: int,
                 budget: SweepBudget = BUDGET) -> Run:
    run = Run(NAME, seed, seconds, trace)
    jobs = matrix(seed, budget)
    # Sampled only between pool lifetimes, while no worker is busy.
    host = HostSpeed()
    with scratch("sweep") as root:
        setups: List[float] = []
        # A fresh engine, cache and pool until its first two cells are
        # back; the first start is a discarded warm-up.
        for start_index in range(budget.setup_starts + 1):
            host.sample()
            start = clock()
            engine = _engine(root / f"setup-{start_index}")
            engine.run(jobs[:2])
            engine.close()
            setups.append(clock() - start)
            _reap_pool()
        host.sample()
        del setups[0]

        cold: List[dict] = []

        def cold_sweep() -> dict:
            engine = _engine(root / f"cold-{len(cold)}")
            start = clock()
            results = engine.run(jobs)
            elapsed = clock() - start
            engine.close()
            _reap_pool()
            rep = {"s": elapsed, "results": results,
                   "job_seconds": sum(engine.report.job_seconds)}
            cold.append(rep)
            return rep

        cold_trace = LayerTrace(_cache_hooks(), keep_durations=True)
        with cold_trace if trace else contextlib.nullcontext():
            repeat_within(seconds * budget.cold_share, cold_sweep)
        expected = cold[0]["results"]
        for rep in cold:
            run.check(all(r is not None for r in rep["results"])
                      and rep["results"] == expected,
                      "cold sweeps disagree or lost cells")

        engine = _engine(root / f"cold-{len(cold) - 1}")
        warm_s: List[float] = []
        hits = 0

        def warm_sweep() -> None:
            nonlocal hits
            start = clock()
            results = engine.run(jobs)
            warm_s.append(clock() - start)
            hits += engine.report.cache_hits
            run.check(results == expected,
                      "a warm re-run returned results unlike the cold sweep")

        warm_trace = LayerTrace(_cache_hooks(), keep_durations=True)
        with warm_trace if trace else contextlib.nullcontext():
            repeat_within(seconds * (1 - budget.cold_share), warm_sweep,
                          min_reps=10)

    results = {job.key: result.to_dict() for job, result in zip(jobs, expected)}
    check_sample(run, {job.key: job for job in jobs}, results, "cell")
    run.set_digest(cells_digest(results), budget.tag)
    cold_s = [rep["s"] for rep in cold]
    if trace:
        busy = median([rep["job_seconds"] for rep in cold])
        run.metric("runtime.job_elapsed_s.sum", busy, "s")
        run.metric("runtime.pool_busy_frac",
                   busy / (WORKERS * median(cold_s)), "frac")
        run.metric("runtime.cache.store_ms.p50", median(
            cold_trace.durations["runtime.cache.store"]) * 1e3, "ms")
        loads = warm_trace.durations["runtime.cache.load"]
        run.metric("runtime.cache.load_ms.p50", median(loads) * 1e3, "ms")
        run.metric("runtime.cache.load_ms.p99",
                   percentile(loads, 99) * 1e3, "ms")
        run.metric("runtime.cache.hit_frac",
                   hits / (len(jobs) * len(warm_s)), "frac")
    else:
        run.setup_metric(median(setups), host)
        run.metric("peak_rss_mb",
                   max(self_peak_rss_mb(), children_peak_rss_mb()), "MB")
        run.figure("sweep_cold_s", median(cold_s), "s")
        run.figure("sweep_warm_ms.p50", median(warm_s) * 1e3, "ms")
        run.figure("sweep_warm_ms.p99", percentile(warm_s, 99) * 1e3, "ms")
    return run

