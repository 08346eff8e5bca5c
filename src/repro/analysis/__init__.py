"""Post-simulation analysis tooling.

Utilities that sit on top of :class:`~repro.core.simulator.SimResult` and
live :class:`~repro.core.pipeline.Pipeline` objects: hardware utilization
reports, CSV export of result matrices, the text bar charts used to
render the paper's figures in a terminal, and the performance-analysis
and regression subsystem behind ``repro analyze`` / ``repro baseline``
/ ``repro diff`` — top-down IPC-loss attribution, golden-metric
baselines with noise bands, and out-of-band run diffing.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.analysis.utilization": ("UtilizationReport", "collect_utilization"),
    "repro.analysis.export": ("results_to_csv", "results_to_rows"),
    "repro.analysis.charts": ("bar_chart", "sparkline"),
    "repro.analysis.energy": (
        "EnergyModel", "EnergyReport", "estimate_energy",
    ),
    "repro.analysis.attribution": ("Attribution",),
    "repro.analysis.baseline": (
        "BASELINE_SCHEMA_VERSION", "capture_baseline", "load_baseline",
        "metric_direction", "metrics_from_result", "write_baseline",
    ),
    "repro.analysis.diffing": ("DiffReport", "MetricDelta", "diff_sources"),
    "repro.analysis.reporting": (
        "AnalysisReport", "AssignmentQuality", "analyze_manifest",
    ),
    "repro.analysis.phases": (
        "PHASE_SIGNATURE_VERSION", "Phase", "PhaseReport", "compare_timelines",
        "detect_phases", "load_timeline", "render_comparison",
        "render_timeline", "segment_timeline", "window_features",
    ),
})
