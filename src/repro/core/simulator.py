"""Top-level simulation API.

:func:`simulate` is the one-call entry point used by the examples and the
experiment harness::

    from repro import simulate, StrategySpec
    result = simulate("bzip2", StrategySpec(kind="fdrt"),
                      instructions=20_000, warmup=5_000)
    print(result.ipc, result.pct_intra_cluster_forwarding)

``Simulator`` is the stateful object underneath, for callers that want to
drive warmup/measurement phases themselves or inspect the live pipeline.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.assign.base import StrategySpec
from repro.cluster.config import MachineConfig
from repro.core.pipeline import Pipeline
from repro.core.result import SimResult
from repro.workloads.generator import generate_program
from repro.workloads.profiles import profile_for
from repro.workloads.program import Program


class Simulator:
    """Owns a pipeline for one (benchmark, machine, strategy) combination."""

    def __init__(
        self,
        benchmark: Union[str, Program],
        spec: Optional[StrategySpec] = None,
        config: Optional[MachineConfig] = None,
        seed: Optional[int] = None,
    ) -> None:
        if isinstance(benchmark, Program):
            self.program = benchmark
            self.benchmark_name = benchmark.name
        else:
            self.program = generate_program(profile_for(benchmark))
            self.benchmark_name = benchmark
        self.spec = spec if spec is not None else StrategySpec(kind="fdrt")
        self.config = config if config is not None else MachineConfig()
        self.pipeline = Pipeline(self.program, self.config, self.spec, seed=seed)
        #: The hook :meth:`progress` registered on ``pipeline``.
        self._progress_hook = None

    def progress(self, hook, every: int = 2_000) -> None:
        """Install an in-run progress hook, called every ``every`` cycles.

        ``hook(pipeline)`` first fires after the next simulated cycle
        inside :meth:`run`/:meth:`warmup` loops (e.g. a
        :class:`repro.obs.heartbeat.HeartbeatWriter` beating live worker
        state to disk).  Hooks must only read pipeline state; simulated
        results are byte-identical with or without one.  Pass
        ``hook=None`` to uninstall.
        """
        if every <= 0:
            raise ValueError(f"progress interval must be positive: {every}")
        self.pipeline.unschedule(self._progress_hook)
        self._progress_hook = hook
        if hook is not None:
            self.pipeline.schedule(hook, every, due=self.pipeline.now)

    def warmup(self, instructions: int) -> None:
        """Run ``instructions`` then zero statistics (state preserved)."""
        self.pipeline.run(instructions)
        self.pipeline.reset_stats()

    def run(self, instructions: int) -> SimResult:
        """Simulate ``instructions`` and snapshot the statistics."""
        self.pipeline.run(instructions)
        return self.result()

    def result(self) -> SimResult:
        """Snapshot the current statistics into a :class:`SimResult`."""
        pipeline = self.pipeline
        stats = pipeline.stats
        fill = pipeline.fill_unit
        option_counts = dict(getattr(pipeline.strategy, "option_counts", {}))
        return SimResult(
            benchmark=self.benchmark_name,
            strategy=self.spec.label,
            cycles=stats.cycles,
            retired=stats.retired,
            ipc=stats.ipc,
            pct_tc_instructions=stats.pct_tc_instructions,
            avg_trace_size=stats.avg_trace_size,
            pct_deps_critical=stats.pct_deps_critical,
            pct_critical_inter_trace=stats.pct_critical_inter_trace,
            critical_source=stats.critical_source_breakdown(),
            producer_repetition=stats.producer_repetition(),
            pct_intra_cluster_forwarding=stats.pct_intra_cluster_forwarding,
            avg_forward_distance=stats.avg_forward_distance,
            option_counts=option_counts,
            fill_migration_rate=fill.migration_rate,
            chain_migration_rate=fill.chain_migration_rate,
            pct_migrating_intra_cluster=stats.pct_migrating_intra_cluster,
            mispredict_rate=stats.mispredict_rate,
            tc_hit_rate=pipeline.trace_cache.hit_rate,
            l1d_hit_rate=pipeline.memory.l1d.hit_rate,
            width=self.config.width,
            cycle_accounting=pipeline.accounting.to_dict(),
        )

    def publish_metrics(self, registry) -> None:
        """Publish the run's statistics into a
        :class:`repro.obs.MetricsRegistry`: the full :class:`SimStats`
        counter bag plus the fill-unit and cache summaries that
        :meth:`result` reports."""
        pipeline = self.pipeline
        pipeline.stats.publish(registry)
        fill = pipeline.fill_unit
        registry.counter("fill.traces_built").inc(fill.traces_built)
        registry.counter("fill.instances").inc(fill.fill_instances)
        registry.counter("fill.migrations").inc(fill.fill_migrations)
        registry.gauge("fill.migration_rate").set(fill.migration_rate)
        registry.gauge(
            "fill.chain_migration_rate").set(fill.chain_migration_rate)
        registry.gauge("tc.hit_rate").set(pipeline.trace_cache.hit_rate)
        registry.gauge("l1d.hit_rate").set(pipeline.memory.l1d.hit_rate)
        pipeline.accounting.publish(registry)


def simulate(
    benchmark: Union[str, Program],
    spec: Optional[StrategySpec] = None,
    config: Optional[MachineConfig] = None,
    instructions: int = 20_000,
    warmup: int = 5_000,
    seed: Optional[int] = None,
    progress_hook=None,
    progress_interval: int = 2_000,
    profiler=None,
    recorder=None,
) -> SimResult:
    """Generate the workload, warm up, measure, and return the result.

    ``progress_hook`` (with ``progress_interval`` cycles between calls)
    installs a read-only in-run hook before warmup — see
    :meth:`Simulator.progress` — ``profiler`` attaches a
    :class:`repro.obs.profiler.PhaseProfiler` for the whole run, and
    ``recorder`` attaches a
    :class:`repro.obs.timeseries.IntervalRecorder` over the *measured*
    region (warmup is excluded, matching the statistics window).  None
    of them affects the result.
    """
    simulator = Simulator(benchmark, spec=spec, config=config, seed=seed)
    if progress_hook is not None:
        simulator.progress(progress_hook, every=progress_interval)
    if profiler is not None:
        profiler.attach(simulator.pipeline)
    try:
        if warmup:
            simulator.warmup(warmup)
        if recorder is not None:
            recorder.attach(simulator.pipeline)
        return simulator.run(instructions)
    finally:
        if recorder is not None:
            recorder.detach()
        if profiler is not None:
            profiler.detach()
