"""repro.obs — the simulator-wide observability layer.

Three pillars (see ``docs/OBSERVABILITY.md``):

* :class:`MetricsRegistry` — named counters, gauges, and fixed-bucket
  histograms with label support (:mod:`repro.obs.metrics`), plus
  :class:`PipelineMetrics`, an observer that feeds per-event pipeline
  metrics (e.g. ``dispatch.forward_distance{cluster=2}``) into one.
* :class:`CycleTracer` — a per-cycle pipeline tracer emitting Chrome
  trace-event JSON viewable in Perfetto, one lane per cluster plus
  fetch and fill-unit lanes (:mod:`repro.obs.tracer`).  The underlying
  :class:`PipelineObserver` hook protocol appends to the pipeline's
  ``observers`` tuple, which costs one truth test per event when
  empty, so untraced runs are byte-identical to pre-observability
  builds.
* :class:`TelemetryWriter` — structured JSONL event logs and
  machine-readable ``manifest.json`` run manifests for the experiment
  engine (:mod:`repro.obs.manifest`), enabled with ``--telemetry-dir``
  / ``REPRO_TELEMETRY_DIR``.

Plus the *live* layer built on those pillars (same doc, "Live
observability" section):

* :class:`TelemetryServer` — an in-run HTTP exporter (``/metrics``
  Prometheus text, ``/jobs``, ``/runs``, ``/healthz``) the engine
  starts with ``--serve PORT`` / ``REPRO_SERVE_PORT``
  (:mod:`repro.obs.server`);
* :class:`HeartbeatWriter` / :class:`HeartbeatMonitor` — the worker
  heartbeat channel: live progress records on disk, staleness
  detection feeding the engine's watchdog (:mod:`repro.obs.heartbeat`);
* :class:`PhaseProfiler` — deterministic per-phase wall-clock split of
  the pipeline hot path, exportable as speedscope JSON
  (:mod:`repro.obs.profiler`);
* ``repro top`` — the terminal client tailing a telemetry directory or
  server URL (:mod:`repro.obs.top`).

Quickstart::

    from repro import Simulator, StrategySpec
    from repro.obs import CycleTracer, MetricsRegistry, PipelineMetrics

    simulator = Simulator("gzip", StrategySpec(kind="fdrt"))
    registry = MetricsRegistry()
    tracer = CycleTracer(capacity=50_000)
    with tracer.attach(simulator.pipeline), \
            PipelineMetrics(registry).attach(simulator.pipeline):
        simulator.run(20_000)
    tracer.write("trace.json")          # open in https://ui.perfetto.dev
    print(registry.to_dict()["counters"])
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.obs.heartbeat": (
        "HEARTBEAT_SCHEMA_VERSION", "HeartbeatMonitor", "HeartbeatWriter",
        "heartbeat_dir", "read_heartbeats",
    ),
    "repro.obs.manifest": (
        "MANIFEST_SCHEMA_VERSION", "TelemetryWriter", "git_dirty", "git_sha",
        "history_key", "host_fingerprint", "host_info", "load_manifest",
        "new_run_id",
    ),
    "repro.obs.metrics": (
        "DEFAULT_BUCKETS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
        "PipelineMetrics",
    ),
    "repro.obs.profiler": ("PHASES", "PhaseProfiler"),
    "repro.obs.server": (
        "PROMETHEUS_CONTENT_TYPE", "PrometheusText", "TelemetryServer",
        "registry_to_prometheus",
    ),
    "repro.obs.spans": (
        "SPAN_SCHEMA_VERSION", "SPAN_STAGES", "Span", "SpanRecorder",
        "TraceContext", "critical_path", "group_traces", "read_spans",
        "render_critical_path", "render_spans", "spans_to_chrome",
        "trace_sampled",
    ),
    "repro.obs.timeseries": (
        "DEFAULT_INTERVAL_CYCLES", "INTERVAL_SCHEMA_VERSION", "TIMELINE_PID",
        "IntervalRecorder",
    ),
    "repro.obs.tracer": (
        "FETCH_LANE", "FILL_LANE", "CycleTracer", "PipelineObserver",
    ),
})
