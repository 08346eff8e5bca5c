"""Reproductions of every table and figure in the paper's evaluation.

Each experiment module exposes a ``run_*`` function returning a structured
result object and a ``render_*`` function producing the paper-style text
table.  The mapping to the paper:

=========  ==========================================  =====================
Artifact   Content                                     Module
=========  ==========================================  =====================
Table 1    %TC instructions, trace size                characterization
Figure 4   critical-input source (RF/RS1/RS2)          characterization
Table 2    critical forwarding, inter-trace share      characterization
Table 3    producer repetition rates                   characterization
Figure 5   speedup from removing latencies             latency_study
Figure 6   speedup per assignment strategy             strategy_comparison
Table 8    intra-cluster forwarding %, distances       strategy_comparison
Figure 7   FDRT option mix                             fdrt_analysis
Table 9    cluster migration, pinning vs not           fdrt_analysis
Table 10   intra-cluster fwd during migration          fdrt_analysis
Figure 8   robustness across machine variants          robustness
Figure 9   full SPECint2000 + MediaBench suites        suite_study
=========  ==========================================  =====================

Run budgets default to values that finish in minutes on a laptop; pass
larger ``instructions``/``warmup`` for tighter numbers.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.experiments.runner": (
        "DEFAULT_INSTRUCTIONS", "DEFAULT_WARMUP", "ExperimentTable",
        "harmonic_mean", "run_matrix",
    ),
    "repro.experiments.characterization": (
        "run_characterization", "render_table1", "render_table2",
        "render_table3", "render_figure4",
    ),
    "repro.experiments.latency_study": ("run_latency_study", "render_figure5"),
    "repro.experiments.strategy_comparison": (
        "run_strategy_comparison", "render_figure6", "render_table8",
    ),
    "repro.experiments.fdrt_analysis": (
        "run_fdrt_analysis", "render_figure7", "render_table9",
        "render_table10",
    ),
    "repro.experiments.robustness": ("run_robustness", "render_figure8"),
    "repro.experiments.suite_study": ("run_suite_study", "render_figure9"),
    "repro.experiments.reference": ("render_table6", "render_table7"),
    "repro.experiments.report": ("generate_report",),
    "repro.experiments.sensitivity": (
        "render_sweep", "run_hop_latency_sweep", "run_tc_capacity_sweep",
    ),
})
