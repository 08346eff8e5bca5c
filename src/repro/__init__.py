"""repro — a clustered trace cache processor (CTCP) simulator.

Reproduction of *"Improving Dynamic Cluster Assignment for Clustered Trace
Cache Processors"* (Bhargava & John, ISCA 2003): a cycle-level simulator
of a 16-wide, four-cluster trace cache processor with retire-time
(fill-unit) cluster assignment, including the paper's feedback-directed
FDRT strategy, Friendly et al.'s prior retire-time scheme, issue-time
steering, and the slot-based baseline.

Quickstart::

    from repro import StrategySpec, simulate

    base = simulate("gzip", StrategySpec(kind="base"))
    fdrt = simulate("gzip", StrategySpec(kind="fdrt"))
    print(f"FDRT speedup: {fdrt.speedup_over(base):.3f}x")

Package map:

* :mod:`repro.isa` — the synthetic RISC ISA.
* :mod:`repro.workloads` — per-benchmark synthetic program generation and
  functional execution.
* :mod:`repro.frontend` — branch predictors, BTB, RAS.
* :mod:`repro.memory` — caches, TLB, load/store queues.
* :mod:`repro.tracecache` — trace cache and fill unit.
* :mod:`repro.cluster` — clusters, reservation stations, functional
  units, interconnect, machine configuration.
* :mod:`repro.assign` — the cluster assignment strategies.
* :mod:`repro.core` — the cycle-level pipeline and the simulation API.
* :mod:`repro.experiments` — reproductions of every table and figure in
  the paper's evaluation.
* :mod:`repro.runtime` — the parallel execution engine and
  content-addressed result cache behind ``run_matrix``.
* :mod:`repro.obs` — the observability layer: metrics registry,
  cycle-level pipeline tracing (Chrome trace-event / Perfetto), and
  machine-readable run manifests.

Every package's public names (``repro.simulate``, ``repro.obs.CycleTracer``,
...) are resolved on first access: importing a package imports none of
its submodules, and a name's module loads when the name is first used
(:mod:`repro._lazy`).  So ``import repro.service.server`` never loads
the simulator.  See "Import layering" in ``docs/RUNTIME.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.assign.base": ("StrategySpec",),
    "repro.cluster.config": (
        "MachineConfig", "baseline_config", "fast_forward_config",
        "mesh_config", "two_cluster_config",
    ),
    "repro.core.result": ("SimResult",),
    "repro.core.simulator": ("Simulator", "simulate"),
    "repro.workloads.suites": (
        "MEDIABENCH", "SPECINT2000", "SPECINT2000_SELECTED",
    ),
})

__version__ = "1.0.0"
