"""The ``sim-*`` workloads: one simulator, timed from the outside.

Each repetition is the whole call a user makes:
``generate_program`` → ``Simulator(...)`` → ``warmup`` → ``run`` →
``result``.  The simulator is single-threaded and CPU-bound, so its
times are this process's CPU time, which leaves out any wait for a CPU.
``setup_s`` is scaled to the nominal host speed
(:class:`harness.HostSpeed`), sampled between the set-up pairs.

The program is the catalog's (its generator seed is the profile's own);
``--seed`` drives the functional simulator's branch outcomes and address
streams.  Re-seeding the program generator instead changes the generated
code itself, which moves IPC by up to 2× between seeds and would swamp
any change to the simulator's speed.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Dict, List, Optional

from harness import HostSpeed, Run, cpu_clock, digest, median, \
    repeat_within, self_peak_rss_mb
from layers import LayerTrace


@dataclasses.dataclass(frozen=True)
class SimBudget:
    benchmark: str
    strategy: str
    warmup: int = 20_000
    instructions: int = 150_000
    #: ``generate_program`` + ``Simulator()`` pairs behind ``setup_s``.
    setup_pairs: int = 20

    @property
    def tag(self) -> str:
        return (f"{self.benchmark}/{self.strategy} "
                f"{self.warmup}+{self.instructions}")


WORKLOADS: Dict[str, SimBudget] = {
    "sim-mcf-fdrt": SimBudget("mcf", "fdrt", instructions=150_000),
    "sim-adpcm-issue": SimBudget("adpcm_enc", "issue", instructions=200_000),
}


#: (metric prefix, class path, method).  ``None`` stands for the class of
#: the run's own retire-time strategy.
HOOKS = [
    ("core.step", "repro.core.pipeline.Pipeline", "step"),
    # The callables the pipeline hands to Cluster.dispatch_cycle.
    ("core.is_ready", "repro.core.pipeline.Pipeline", "_is_ready"),
    ("core.on_dispatch", "repro.core.pipeline.Pipeline", "_on_dispatch"),
    ("core.accounting", "repro.core.accounting.CycleAccounting", "observe"),
    ("core.fetch", "repro.core.fetch.FetchEngine", "fetch"),
    ("cluster.dispatch_cycle", "repro.cluster.cluster.Cluster",
     "dispatch_cycle"),
    ("cluster.accept", "repro.cluster.cluster.Cluster", "accept"),
    ("tracecache.fill_retire", "repro.tracecache.fill_unit.FillUnit",
     "retire"),
    ("tracecache.fill_tick", "repro.tracecache.fill_unit.FillUnit", "tick"),
    ("tracecache.lookup", "repro.tracecache.trace_cache.TraceCache",
     "lines_starting_at"),
    ("assign.reorder", None, "reorder"),
    ("assign.steer", "repro.assign.issue_time.IssueTimeSteering", "steer"),
    ("memory.data_access", "repro.memory.hierarchy.MemoryHierarchy",
     "data_access"),
    ("frontend.predict", "repro.frontend.branch_predictor.HybridPredictor",
     "predict_and_update"),
    ("workloads.step", "repro.workloads.execution.FunctionalSimulator",
     "step"),
]
HOOK_NAMES = [name for name, _, _ in HOOKS]


def _hooks(simulator) -> list:
    hooks = []
    for name, path, attr in HOOKS:
        if path is None:
            cls = type(simulator.pipeline.strategy)
        else:
            module, _, cls_name = path.rpartition(".")
            cls = getattr(importlib.import_module(module), cls_name)
        hooks.append((name, cls, attr))
    return hooks


class _Simulation:
    def __init__(self, budget: SimBudget, seed: int) -> None:
        from repro.assign.base import StrategySpec
        from repro.workloads.profiles import profile_for

        self.budget = budget
        self.seed = seed
        self.profile = profile_for(budget.benchmark)
        self.spec = StrategySpec(kind=budget.strategy)

    def build(self):
        from repro.core.simulator import Simulator
        from repro.workloads.generator import generate_program

        start = cpu_clock()
        program = generate_program(self.profile)
        generated = cpu_clock()
        simulator = Simulator(program, self.spec, seed=self.seed)
        return simulator, generated - start, cpu_clock() - generated

    def setup_samples(self, host: HostSpeed) -> List[tuple]:
        """``(generate_s, construct_s)`` of each set-up pair, with
        ``host`` sampled between the pairs."""
        samples = []
        for _ in range(self.budget.setup_pairs):
            host.sample()
            samples.append(self.build()[1:])
        host.sample()
        return samples

    def rep(self, instructions: int, trace: bool = False) -> dict:
        """One whole generate → construct → warmup → run → result call.

        With ``trace`` the measured ``run`` executes under a
        :class:`LayerTrace`; warmup stays untraced either way.
        """
        start = cpu_clock()
        simulator, generate_s, construct_s = self.build()
        began = cpu_clock()
        simulator.warmup(self.budget.warmup)
        warmup_s = cpu_clock() - began
        layers = None
        began = cpu_clock()
        if trace:
            with LayerTrace(_hooks(simulator)) as layers:
                result = simulator.run(instructions)
        else:
            result = simulator.run(instructions)
        run_s = cpu_clock() - began
        return {"result": result, "generate_s": generate_s,
                "construct_s": construct_s, "warmup_s": warmup_s,
                "run_s": run_s, "total_s": cpu_clock() - start,
                "layers": layers}


def _check_result(run: Run, budget: SimBudget, result) -> None:
    lost = sum(sum(per.values()) for per in result.cycle_accounting.values())
    run.check(result.retired >= budget.instructions
              and lost == result.width * result.cycles - result.retired,
              f"{budget.tag}: retired {result.retired}, accounting "
              f"{lost} != width*cycles-retired")


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 budget: Optional[SimBudget] = None) -> Run:
    budget = budget or WORKLOADS[name]
    run = Run(name, seed, seconds, trace)
    sim = _Simulation(budget, seed)
    host = HostSpeed()
    setups = sim.setup_samples(host)
    # Discarded warm-up repetition: first-call costs stay out of the reps.
    sim.rep(budget.warmup)
    if trace:
        pairs = repeat_within(seconds, lambda: (
            sim.rep(budget.instructions),
            sim.rep(budget.instructions, trace=True)))
        reps = [rep for pair in pairs for rep in pair]
        _traced_metrics(run, budget, setups, pairs)
    else:
        reps = repeat_within(seconds, lambda: sim.rep(budget.instructions))
        run.setup_metric(median([g + c for g, c in setups]), host)
        run.metric("peak_rss_mb", self_peak_rss_mb(), "MB")
        run.figure("sim_kips", median(
            [r["result"].retired / r["run_s"] / 1e3 for r in reps]), "kinst/s")
        run.figure("run_s", median([r["total_s"] for r in reps]), "s")
    digests = {digest(r["result"].to_dict()) for r in reps}
    run.check(len(digests) == 1,
              f"{len(digests)} different SimResults from identical "
              "simulations (traced and untraced runs must agree)")
    for r in reps:
        _check_result(run, budget, r["result"])
    run.set_digest(digest(reps[0]["result"].to_dict()), budget.tag)
    return run


def _traced_metrics(run: Run, budget: SimBudget, setups, pairs) -> None:
    plain = [untraced for untraced, _ in pairs]
    traced = [traced for _, traced in pairs]
    result = traced[0]["result"]
    traced_s = sum(r["layers"].elapsed for r in traced)
    kinst = sum(r["result"].retired for r in traced) / 1e3
    calls: Dict[str, int] = dict.fromkeys(HOOK_NAMES, 0)
    self_s: Dict[str, float] = dict.fromkeys(HOOK_NAMES, 0.0)
    for r in traced:
        for name in HOOK_NAMES:
            calls[name] += r["layers"].calls[name]
            self_s[name] += r["layers"].self_seconds[name]
    for name in HOOK_NAMES:
        run.metric(f"{name}.self_share", self_s[name] / traced_s, "frac")
        run.metric(f"{name}.calls_per_kinst", calls[name] / kinst, "1/kinst")
    run.metric("cluster.ready_checks_per_dispatch",
               calls["core.is_ready"] / max(1, calls["core.on_dispatch"]),
               "ratio")
    run.metric("tracecache.hit_rate", result.tc_hit_rate, "frac")
    run.metric("memory.l1d_hit_rate", result.l1d_hit_rate, "frac")
    run.metric("frontend.mispredict_rate", result.mispredict_rate, "frac")
    run.metric("core.ipc", result.ipc, "inst/cycle")
    run.metric("core.cycles", result.cycles, "count")
    run.metric("trace.overhead_x",
               median([r["run_s"] for r in traced])
               / median([r["run_s"] for r in plain]), "x")
    run.metric("workloads.generate_ms",
               median([g for g, _ in setups]) * 1e3, "ms")
    run.metric("core.construct_ms", median([c for _, c in setups]) * 1e3, "ms")
    run.metric("core.warmup_kips", median(
        [budget.warmup / r["warmup_s"] / 1e3 for r in plain]), "kinst/s")
