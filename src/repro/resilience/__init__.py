"""repro.resilience — chaos engineering and run-lifecycle hardening.

Long, many-cell sweeps must survive worker crashes, hangs, kills, and
corrupted state; this package makes the engine provably resilient
instead of hopefully so (see ``docs/RESILIENCE.md``):

* :class:`FaultPlan` / :class:`FaultSpec` — deterministic, seeded,
  content-addressed fault injection at named runtime sites
  (:data:`FAULT_SITES`): worker crash/hang, cache-entry corruption,
  telemetry write failure, pool-creation failure
  (:mod:`repro.resilience.faults`).  Thread one into
  ``ExperimentEngine(faults=...)`` or ``repro sweep --fault-plan``.
* :func:`reap_executor` — the watchdog that force-kills wedged pool
  workers instead of leaking them (:mod:`repro.resilience.watchdog`).
* :class:`ResumeState` / :func:`load_resume_state` — journal-based
  checkpoint/resume: replay completed cells from ``events.jsonl`` +
  the result cache and execute only the remainder
  (:mod:`repro.resilience.resume`); ``repro sweep --resume DIR``.
* :class:`ChaosProxy` — an in-process HTTP proxy that injects the
  :data:`HTTP_FAULT_SITES` (dropped responses, delays, 5xx bursts,
  torn bodies) between service clients and the server
  (:mod:`repro.resilience.chaosproxy`); ``repro chaos`` drives it.
* :func:`deterministic_jitter` / :class:`CircuitBreaker` — RNG-free
  retry spreading and per-endpoint failure gating
  (:mod:`repro.resilience.retry`), shared by the engine backoff and
  the service transport.

Quickstart::

    from repro.resilience import FaultPlan, FaultSpec
    from repro.runtime import ExperimentEngine

    plan = FaultPlan([FaultSpec(site="worker.crash", index=1)])
    engine = ExperimentEngine(jobs=4, faults=plan, keep_going=True)
    results = engine.run(jobs)      # identical to a fault-free run
    print(engine.report.render())   # ... 1 retried ...
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.resilience.chaosproxy": ("ChaosProxy",),
    "repro.resilience.faults": (
        "CRASH_EXIT_CODE", "FAULT_PLAN_SCHEMA_VERSION", "FAULT_SITES",
        "HTTP_FAULT_SITES", "FaultPlan", "FaultSpec", "InjectedCrash",
        "InjectedFault", "InjectedHang",
    ),
    "repro.resilience.resume": ("ResumeState", "load_resume_state"),
    "repro.resilience.retry": (
        "BREAKER_COOLDOWN_CAP", "CircuitBreaker", "deterministic_jitter",
    ),
    "repro.resilience.watchdog": ("reap_executor", "worker_processes"),
})
