"""repro.runtime — parallel experiment execution with result caching.

The runtime turns the repo's dominant cost — re-simulating identical
(benchmark, strategy, config) cells one at a time — into a scheduled,
cached workload:

* :class:`SimJob` — canonical, content-hashed description of one
  simulation (:mod:`repro.runtime.job`);
* :class:`ResultCache` — on-disk JSON store of
  :class:`~repro.core.simulator.SimResult`, keyed by job hash and
  schema version, with atomic writes (:mod:`repro.runtime.cache`);
* :class:`ExperimentEngine` — process-pool scheduler with bounded
  retry + deterministic exponential backoff, real per-job deadlines,
  a worker-reaping watchdog, per-job quarantine (``keep_going``),
  journal-based resume (``resume=``), deterministic fault injection
  (``faults=``), signal-safe graceful shutdown, and inline fallback
  (:mod:`repro.runtime.executor`; see ``docs/RESILIENCE.md``);
* :class:`EngineReport` / :func:`progress_printer` — timing, hit/miss
  counters, and live progress (:mod:`repro.runtime.observe`); with a
  telemetry directory configured (``REPRO_TELEMETRY_DIR`` /
  ``--telemetry-dir``) the engine also writes structured JSONL event
  logs and ``manifest.json`` run manifests through
  :class:`repro.obs.TelemetryWriter` (see ``docs/OBSERVABILITY.md``).

Live observability (``docs/OBSERVABILITY.md``, "Live observability"):
``serve=PORT`` / ``--serve`` / ``REPRO_SERVE_PORT`` starts a
:class:`repro.obs.TelemetryServer` HTTP exporter for the run; workers
heartbeat their progress every ``heartbeat_cycles`` simulated cycles
(``REPRO_HEARTBEAT_CYCLES``) through :mod:`repro.obs.heartbeat`; and
``stale_after=S`` / ``REPRO_STALE_AFTER`` turns heartbeat silence into
early worker reaping via the engine's watchdog.

``run_matrix`` in :mod:`repro.experiments.runner` routes every cell
through this engine, so all experiments, benchmarks, and examples
inherit parallelism and caching.  See ``docs/RUNTIME.md``.

Quickstart::

    from repro.runtime import ExperimentEngine, SimJob
    from repro import MachineConfig, StrategySpec

    engine = ExperimentEngine(jobs=4)
    jobs = [SimJob("gzip", StrategySpec(kind=k), MachineConfig(),
                   instructions=20_000, warmup=10_000)
            for k in ("base", "fdrt")]
    base, fdrt = engine.run(jobs)
    print(fdrt.speedup_over(base), engine.report.render())
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.runtime.cache": (
        "CacheStats", "ResultCache", "fetch_remote_entry",
        "global_cache_stats",
    ),
    "repro.runtime.executor": (
        "ExperimentEngine", "JobFailedError", "JobFailure", "RunInterrupted",
        "matrix_jobs", "run_jobs",
    ),
    "repro.runtime.job": ("JOB_SCHEMA_VERSION", "SimJob"),
    "repro.runtime.observe": (
        "EngineReport", "JobEvent", "progress_printer", "stream_is_tty",
    ),
    "repro.runtime.settings": ("configure",),
})
