"""Command-line interface.

``python -m repro`` exposes the library without writing scripts::

    python -m repro list
    python -m repro simulate gzip --strategy fdrt
    python -m repro compare twolf --csv --jobs 4
    python -m repro experiment table1 --jobs auto
    python -m repro utilization vpr --strategy fdrt
    python -m repro sweep --jobs 4          # full benchmark x strategy matrix

All subcommands accept ``--instructions`` / ``--warmup`` to trade accuracy
for speed, and ``--machine`` to pick a Figure 8 machine variant.

Runtime flags (see ``docs/RUNTIME.md``): ``--jobs N`` runs simulations on
``N`` worker processes (``auto`` = one per CPU; also ``REPRO_JOBS``), and
``--no-cache`` disables the on-disk result cache (also ``REPRO_NO_CACHE``;
relocate it with ``REPRO_CACHE_DIR``).  ``compare``, ``experiment``, and
``sweep`` all honor both; ``sweep`` with no parameter (or ``matrix``) runs
the full benchmark × strategy grid with live progress and a cache-stats
summary, while ``sweep tc`` / ``sweep hops`` keep the original
sensitivity sweeps.

Observability (see ``docs/OBSERVABILITY.md``): ``repro trace`` writes a
Chrome trace-event JSON of one simulation (open it in
https://ui.perfetto.dev), ``--telemetry-dir DIR`` (also
``REPRO_TELEMETRY_DIR``) makes every engine run write structured JSONL
event logs plus a ``manifest.json`` run manifest, and
``sweep --report-json PATH`` dumps the engine report and cache counters
as machine-readable JSON (``-`` = stdout).

Live observability: ``--serve PORT`` (also ``REPRO_SERVE_PORT``; ``0``
= ephemeral) starts an in-run HTTP exporter with Prometheus
``/metrics`` plus ``/jobs``, ``/runs``, and ``/healthz`` JSON;
``repro top DIR|URL`` tails a running sweep's heartbeats and journal
as a live per-job table; and ``repro profile BENCH`` reports the
per-phase (fetch/assign/execute/fill) wall-clock split of one
simulation, with ``--out`` exporting a speedscope JSON profile.

Resilience (see ``docs/RESILIENCE.md``): ``sweep --resume DIR`` resumes
an interrupted sweep from its telemetry journal (SIGINT/SIGTERM write a
``status: interrupted`` manifest first and exit 130), ``sweep
--keep-going`` quarantines cells that exhaust their retries instead of
aborting (exit 3 flags the partial result), and ``sweep --fault-plan
PATH`` injects a deterministic chaos plan for testing the engine's
degradation paths.

Simulation as a service (see ``docs/SERVICE.md``): ``repro service
DATA-DIR`` runs the HTTP job API + shared sharded result cache,
``repro worker URL`` runs a pull-based execution agent against it,
``repro submit`` / ``repro fetch`` route a benchmark × strategy matrix
through the service (``$REPRO_SERVICE_URL`` supplies the default URL),
and ``repro cache stats`` / ``repro cache gc`` inspect and maintain the
sharded on-disk result cache (entry counts, per-shard distribution,
hit rate since last reset; TTL/LRU eviction).

Regression tracking (see ``docs/OBSERVABILITY.md``): ``repro analyze
DIR`` renders top-down IPC-loss attribution and assignment-quality
reports from a telemetry directory, ``repro baseline capture`` snapshots
golden metrics (with multi-seed noise bands) into ``baselines/*.json``,
and ``repro diff A B`` / ``repro diff RUN --against BASELINE`` flags
out-of-noise-band deltas, exiting non-zero on regressions.  Both
``analyze`` and ``diff`` take ``--json`` for machine-readable output.

Imports: this module loads only argument parsing and the strategy and
machine presets.  Each subcommand imports what it uses inside its
handler, and package names resolve on first access (see
:mod:`repro._lazy`), so ``repro service`` never loads the simulator and
``repro worker`` loads it when it runs its first job.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.assign.base import StrategySpec
from repro.cluster.config import (
    MachineConfig,
    baseline_config,
    fast_forward_config,
    mesh_config,
    two_cluster_config,
)

_MACHINES = {
    "base": baseline_config,
    "mesh": mesh_config,
    "fast": fast_forward_config,
    "two-cluster": two_cluster_config,
}

_STRATEGIES = {
    "base": StrategySpec(kind="base"),
    "issue": StrategySpec(kind="issue", steer_latency=0),
    "issue4": StrategySpec(kind="issue", steer_latency=4),
    "friendly": StrategySpec(kind="friendly"),
    "friendly-middle": StrategySpec(kind="friendly", middle_bias=True),
    "fdrt": StrategySpec(kind="fdrt"),
    "fdrt-nopin": StrategySpec(kind="fdrt", pinning=False),
    "fdrt-intra": StrategySpec(kind="fdrt", intra_only=True),
}

_EXPERIMENTS = (
    "table1", "table2", "table3", "fig4", "fig5", "fig6", "table8",
    "fig7", "table9", "table10", "fig8", "fig9",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Clustered trace cache processor simulator "
                    "(Bhargava & John, ISCA 2003 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark catalog")

    def jobs_arg(value):
        from repro.runtime.settings import parse

        try:
            return parse("jobs", value, "--jobs")
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None

    def add_runtime(p):
        p.add_argument("--jobs", default=None, metavar="N", type=jobs_arg,
                       help="worker processes ('auto' = one per CPU; "
                            "default $REPRO_JOBS or 1)")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk result cache")
        p.add_argument("--telemetry-dir", default=None, metavar="DIR",
                       help="write engine run telemetry (events.jsonl + "
                            "manifest.json) under DIR "
                            "(default $REPRO_TELEMETRY_DIR or off)")
        p.add_argument("--serve", default=None, metavar="PORT", type=int,
                       help="serve live run telemetry over HTTP on PORT "
                            "(/metrics /jobs /runs /healthz; 0 = "
                            "ephemeral; default $REPRO_SERVE_PORT or off)")

    def add_common(p):
        p.add_argument("--instructions", type=int, default=30_000,
                       help="measured instructions per run")
        p.add_argument("--warmup", type=int, default=25_000,
                       help="warmup instructions per run")
        p.add_argument("--machine", choices=sorted(_MACHINES),
                       default="base", help="machine variant")
        p.add_argument("--config-file", default=None,
                       help="JSON MachineConfig (overrides --machine)")
        add_runtime(p)

    sim = sub.add_parser("simulate", help="simulate one benchmark")
    sim.add_argument("benchmark")
    sim.add_argument("--strategy", choices=sorted(_STRATEGIES),
                     default="fdrt")
    sim.add_argument("--csv", action="store_true",
                     help="emit the result as CSV")
    add_common(sim)

    cmp_parser = sub.add_parser(
        "compare", help="compare all strategies on one benchmark")
    cmp_parser.add_argument("benchmark")
    cmp_parser.add_argument("--csv", action="store_true")
    add_common(cmp_parser)

    trace = sub.add_parser(
        "trace",
        help="record a Chrome trace-event JSON of one simulation "
             "(view in Perfetto)")
    trace.add_argument("benchmark")
    trace.add_argument("--strategy", choices=sorted(_STRATEGIES),
                       default="fdrt")
    trace.add_argument("--out", default="trace.json", metavar="PATH",
                       help="output trace file (default trace.json)")
    trace.add_argument("--events", type=int, default=200_000, metavar="N",
                       help="ring-buffer capacity: keep the newest N "
                            "events (default 200000)")
    add_common(trace)

    util = sub.add_parser(
        "utilization", help="cluster/unit utilization report")
    util.add_argument("benchmark")
    util.add_argument("--strategy", choices=sorted(_STRATEGIES),
                      default="fdrt")
    add_common(util)

    exp = sub.add_parser(
        "experiment", help="reproduce one of the paper's tables/figures")
    exp.add_argument("artifact", choices=_EXPERIMENTS)
    exp.add_argument("--instructions", type=int, default=None)
    exp.add_argument("--warmup", type=int, default=None)
    add_runtime(exp)

    energy = sub.add_parser(
        "energy", help="activity-based energy estimate for one benchmark")
    energy.add_argument("benchmark")
    energy.add_argument("--strategy", choices=sorted(_STRATEGIES),
                        default="fdrt")
    add_common(energy)

    sweep = sub.add_parser(
        "sweep",
        help="benchmark x strategy matrix sweep (default), or a "
             "sensitivity sweep (tc / hops)")
    sweep.add_argument("parameter", nargs="?", default="matrix",
                       choices=("matrix", "tc", "hops"))
    sweep.add_argument("--benchmarks", default=None, metavar="A,B,...",
                       help="comma-separated benchmarks "
                            "(matrix mode; default: the paper's six)")
    sweep.add_argument("--strategies", default=None, metavar="A,B,...",
                       help="comma-separated strategies "
                            "(matrix mode; default: Figure 6's five)")
    sweep.add_argument("--machine", choices=sorted(_MACHINES),
                       default="base", help="machine variant (matrix mode)")
    sweep.add_argument("--instructions", type=int, default=8_000)
    sweep.add_argument("--warmup", type=int, default=15_000)
    sweep.add_argument("--report-json", default=None, metavar="PATH",
                       help="write the engine report + cache counters as "
                            "JSON to PATH ('-' = stdout; matrix mode)")
    sweep.add_argument("--resume", default=None, metavar="DIR",
                       help="resume an interrupted sweep from its "
                            "telemetry directory: completed cells replay "
                            "from the events.jsonl journal + cache, only "
                            "the remainder executes (matrix mode; "
                            "implies --telemetry-dir DIR)")
    sweep.add_argument("--keep-going", action="store_true",
                       help="quarantine cells that exhaust their retries "
                            "instead of aborting the sweep (exit code 3 "
                            "flags the partial result; matrix mode)")
    sweep.add_argument("--fault-plan", default=None, metavar="PATH",
                       help="inject the deterministic FaultPlan in the "
                            "JSON file at PATH (chaos testing; see "
                            "docs/RESILIENCE.md; matrix mode)")
    add_runtime(sweep)

    top = sub.add_parser(
        "top",
        help="live per-job view of a running sweep "
             "(from a telemetry dir or a --serve URL)")
    top.add_argument("source",
                     help="telemetry directory or telemetry-server URL")
    top.add_argument("--interval", type=float, default=1.0, metavar="S",
                     help="seconds between refreshes (default 1)")
    top.add_argument("--once", action="store_true",
                     help="print one snapshot and exit")
    top.add_argument("--no-color", action="store_true",
                     help="plain output even on a TTY")
    top.add_argument("--stale-after", type=float, default=None, metavar="S",
                     help="flag workers silent for S seconds as stale")

    service = sub.add_parser(
        "service",
        help="run the simulation service: HTTP job API + shared "
             "sharded result cache (see docs/SERVICE.md)")
    service.add_argument("data_dir", metavar="DATA-DIR",
                         help="durable service state: queue journal + "
                              "worker heartbeats")
    service.add_argument("--port", type=int, default=0, metavar="PORT",
                         help="listen port (default 0 = ephemeral)")
    service.add_argument("--host", default="127.0.0.1",
                         help="bind address (default loopback; the API "
                              "is unauthenticated)")
    service.add_argument("--lease", type=float, default=None, metavar="S",
                         help="seconds a claimed job may go without a "
                              "heartbeat before it is re-queued "
                              "(default 60)")
    service.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="result-cache root served to clients "
                              "(default $REPRO_CACHE_DIR)")
    service.add_argument("--max-depth", type=int, default=None, metavar="N",
                         help="shed submissions with 429 + Retry-After "
                              "once N jobs are pending+running "
                              "(default $REPRO_QUEUE_LIMIT; unbounded)")
    service.add_argument("--drain-grace", type=float, default=10.0,
                         metavar="S",
                         help="seconds SIGTERM waits for in-flight jobs "
                              "to land before stopping (default 10)")
    service.add_argument("--fault-plan", default=None, metavar="PATH",
                         help="inject a deterministic FaultPlan into the "
                              "queue journal and cache store "
                              "(disk.full chaos testing)")

    worker = sub.add_parser(
        "worker",
        help="run a pull-based worker against a repro service URL")
    worker.add_argument("url", nargs="?", default=None,
                        help="service base URL "
                             "(default $REPRO_SERVICE_URL)")
    worker.add_argument("--name", default=None,
                        help="worker name reported to the service "
                             "(default host-pid)")
    worker.add_argument("--poll", type=float, default=1.0, metavar="S",
                        help="seconds between claim polls when idle "
                             "(default 1)")
    worker.add_argument("--max-jobs", type=int, default=None, metavar="N",
                        help="exit after executing N jobs")
    worker.add_argument("--max-idle", type=float, default=None, metavar="S",
                        help="exit after S seconds with an empty queue")
    worker.add_argument("--heartbeat-cycles", type=int, default=2_000,
                        metavar="N",
                        help="simulated cycles between HTTP heartbeats "
                             "(default 2000; 0 = no heartbeats)")
    worker.add_argument("--interval-cycles", type=int, default=None,
                        metavar="N",
                        help="attach an interval recorder to each job "
                             "and ride its last window on heartbeats "
                             "(default $REPRO_INTERVAL_CYCLES; 0 = off)")
    worker.add_argument("--fault-plan", default=None, metavar="PATH",
                        help="inject a deterministic FaultPlan "
                             "(worker.lease_expire chaos testing)")
    worker.add_argument("--outage-grace", type=float, default=0.0,
                        metavar="S",
                        help="keep polling through a service outage for "
                             "S seconds before exiting (default 0 = "
                             "exit on first exhausted retry budget)")

    def add_matrix(p):
        p.add_argument("url", nargs="?", default=None,
                       help="service base URL "
                            "(default $REPRO_SERVICE_URL)")
        p.add_argument("--benchmarks", default=None, metavar="A,B,...",
                       help="comma-separated benchmarks "
                            "(default: the paper's six)")
        p.add_argument("--strategies", default=None, metavar="A,B,...",
                       help="comma-separated strategies "
                            "(default: Figure 6's five)")
        p.add_argument("--machine", choices=sorted(_MACHINES),
                       default="base", help="machine variant")
        p.add_argument("--instructions", type=int, default=8_000)
        p.add_argument("--warmup", type=int, default=15_000)
        p.add_argument("--seed", type=int, default=None,
                       help="workload replicate seed")

    submit = sub.add_parser(
        "submit",
        help="submit a benchmark x strategy matrix to a repro service")
    add_matrix(submit)
    submit.add_argument("--wait", action="store_true",
                        help="poll until every cell completes and print "
                             "the IPC table")
    submit.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="give up waiting after S seconds (--wait)")

    fetch = sub.add_parser(
        "fetch",
        help="poll a repro service for a submitted matrix's results")
    add_matrix(fetch)
    fetch.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="give up after S seconds of polling")

    chaos = sub.add_parser(
        "chaos",
        help="soak the service tier under a combined fault plan: "
             "server SIGKILL + restart, worker crashes, dropped "
             "responses, 5xx bursts, disk.full (see docs/RESILIENCE.md)")
    chaos.add_argument("--workdir", default=None, metavar="DIR",
                       help="scratch directory for server data, caches, "
                            "and the fault plan (default: a temp dir)")
    chaos.add_argument("--benchmarks", default=None, metavar="A,B,...",
                       help="comma-separated benchmarks "
                            "(default: four of the paper's six)")
    chaos.add_argument("--strategies", default=None, metavar="A,B,...",
                       help="comma-separated strategies "
                            "(default: base,fdrt)")
    chaos.add_argument("--machine", choices=sorted(_MACHINES),
                       default="base", help="machine variant")
    chaos.add_argument("--instructions", type=int, default=8_000)
    chaos.add_argument("--warmup", type=int, default=15_000)
    chaos.add_argument("--seed", type=int, default=None,
                       help="workload replicate seed")
    chaos.add_argument("--plan-seed", type=int, default=1234, metavar="N",
                       help="fault-plan seed (default 1234; same seed = "
                            "same faults, replayable)")
    chaos.add_argument("--workers", type=int, default=3, metavar="N",
                       help="worker fleet size (default 3)")
    chaos.add_argument("--max-depth", type=int, default=None, metavar="N",
                       help="queue-depth bound for the backpressure "
                            "check (default: jobs - 3)")
    chaos.add_argument("--lease", type=float, default=4.0, metavar="S",
                       help="server lease seconds (default 4; short so "
                            "killed workers re-queue fast)")
    chaos.add_argument("--quick", action="store_true",
                       help="CI sizing: smaller matrix, 2 workers, "
                            "1 worker kill")
    chaos.add_argument("--json", action="store_true",
                       help="emit the report as JSON")

    spans = sub.add_parser(
        "spans",
        help="render distributed traces: per-trace waterfall + "
             "critical-path summary (see docs/OBSERVABILITY.md)")
    spans.add_argument("source",
                       help="directory holding spans.jsonl (or the file "
                            "itself), or a repro service URL")
    spans.add_argument("--trace", default=None, metavar="ID",
                       help="show only traces whose id starts with ID")
    spans.add_argument("--limit", type=int, default=20, metavar="N",
                       help="traces to render (default 20)")
    spans.add_argument("--once", action="store_true",
                       help="print one snapshot and exit (the default; "
                            "accepted for symmetry with `repro top`)")
    spans.add_argument("--perfetto", default=None, metavar="PATH",
                       help="also write a Chrome/Perfetto trace-event "
                            "JSON file to PATH")
    spans.add_argument("--cycle-trace", default=None, metavar="PATH",
                       help="merge a `repro trace` cycle-trace JSON "
                            "into the --perfetto export")

    cache = sub.add_parser(
        "cache", help="inspect and maintain the on-disk result cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats",
        help="entry count, bytes, per-shard distribution, hit rate "
             "since last reset")
    cache_stats.add_argument("--cache-dir", default=None, metavar="DIR",
                             help="cache root (default $REPRO_CACHE_DIR)")
    cache_stats.add_argument("--json", action="store_true",
                             help="emit the report as JSON")
    cache_stats.add_argument("--reset", action="store_true",
                             help="zero the persistent counters after "
                                  "reporting")
    cache_gc = cache_sub.add_parser(
        "gc",
        help="migrate legacy entries and apply TTL/LRU eviction")
    cache_gc.add_argument("--cache-dir", default=None, metavar="DIR",
                          help="cache root (default $REPRO_CACHE_DIR)")
    cache_gc.add_argument("--ttl", type=float, default=None, metavar="S",
                          help="evict entries unused for more than S "
                               "seconds")
    cache_gc.add_argument("--max-entries", type=int, default=None,
                          metavar="N",
                          help="evict least-recently-used entries down "
                               "to N")
    cache_gc.add_argument("--max-bytes", type=int, default=None,
                          metavar="B",
                          help="evict least-recently-used entries down "
                               "to B bytes")

    profile = sub.add_parser(
        "profile",
        help="per-phase wall-clock profile of one simulation "
             "(fetch/assign/execute/fill; speedscope export)")
    profile.add_argument("benchmark")
    profile.add_argument("--strategy", choices=sorted(_STRATEGIES),
                         default="fdrt")
    profile.add_argument("--out", default=None, metavar="PATH",
                         help="write a speedscope JSON profile to PATH "
                              "(open in https://www.speedscope.app)")
    profile.add_argument("--sample-cycles", type=int, default=1_000,
                         metavar="N",
                         help="cycles per speedscope sample frame "
                              "(default 1000; 0 = totals only)")
    add_common(profile)

    timeline = sub.add_parser(
        "timeline",
        help="windowed time-series of one simulation + program-phase "
             "detection: sparklines, lost-slot heatmap, per-phase "
             "attribution (see docs/OBSERVABILITY.md)")
    timeline.add_argument("benchmark", nargs="?", default=None,
                          help="benchmark name (omit with --phased)")
    timeline.add_argument("--strategy", choices=sorted(_STRATEGIES),
                          default="fdrt")
    timeline.add_argument("--seed", type=int, default=None,
                          help="workload replicate seed")
    timeline.add_argument("--interval-cycles", type=int, default=None,
                          metavar="N",
                          help="cycles per window (default "
                               "$REPRO_INTERVAL_CYCLES or 1000)")
    timeline.add_argument("--phased", default=None, metavar="A,B,...",
                          help="simulate a synthetic phased workload "
                               "instead of a benchmark: comma-separated "
                               "segment kinds (compute, memory, branchy) "
                               "looped in order")
    timeline.add_argument("--threshold", type=float, default=None,
                          metavar="D",
                          help="change-point distance threshold "
                               "(default 0.25)")
    timeline.add_argument("--json", default=None, metavar="PATH",
                          help="write meta + windows + phases as one "
                               "JSON document to PATH ('-' = stdout; "
                               "readable by `repro analyze --phases`)")
    timeline.add_argument("--markdown", default=None, metavar="PATH",
                          help="write the per-phase table as markdown "
                               "to PATH")
    timeline.add_argument("--perfetto", default=None, metavar="PATH",
                          help="write the series as Chrome-trace counter "
                               "tracks to PATH (open in Perfetto)")
    timeline.add_argument("--cycle-trace", default=None, metavar="PATH",
                          help="merge a `repro trace` cycle-trace JSON "
                               "into the --perfetto export")
    timeline.add_argument("--no-color", action="store_true",
                          help="plain output even on a TTY")
    add_common(timeline)

    analyze = sub.add_parser(
        "analyze",
        help="performance report from a telemetry directory: top-down "
             "IPC-loss attribution + assignment quality")
    analyze.add_argument("telemetry", nargs="?", default=None,
                         help="telemetry directory (or manifest.json "
                              "path); optional with --phases")
    analyze.add_argument("--markdown", default=None, metavar="PATH",
                         help="also write the report as markdown to PATH")
    analyze.add_argument("--json", action="store_true",
                         help="emit the report as machine-readable JSON "
                              "instead of the terminal dashboard")
    analyze.add_argument("--phases", nargs="+", default=None,
                         metavar="TIMELINE",
                         help="per-phase attribution from one or more "
                              "`repro timeline --json` exports; two or "
                              "more add a phase-by-phase strategy "
                              "comparison (winner per phase id)")

    baseline = sub.add_parser(
        "baseline",
        help="capture golden per-(benchmark x strategy) metrics with "
             "multi-seed noise bands")
    baseline.add_argument("action", choices=("capture",))
    baseline.add_argument("--out", default="baselines/base.json",
                          metavar="PATH", help="baseline JSON to write")
    baseline.add_argument("--benchmarks", default=None, metavar="A,B,...",
                          help="comma-separated benchmarks "
                               "(default: the paper's six)")
    baseline.add_argument("--strategies", default=None, metavar="A,B,...",
                          help="comma-separated strategies "
                               "(default: base,friendly,fdrt)")
    baseline.add_argument("--seeds", default="1,2", metavar="S1,S2,...",
                          help="replicate workload seeds for the noise "
                               "band (default 1,2)")
    add_common(baseline)

    diff = sub.add_parser(
        "diff",
        help="compare two runs (or a run against a baseline); exits 1 "
             "on out-of-noise-band regressions")
    diff.add_argument("a", metavar="RUN-A",
                      help="reference run: telemetry dir or baseline/"
                           "manifest JSON (the candidate with --against)")
    diff.add_argument("b", metavar="RUN-B", nargs="?", default=None,
                      help="candidate run (omit when using --against)")
    diff.add_argument("--against", default=None, metavar="PATH",
                      help="reference to compare RUN-A against "
                           "(typically a committed baseline)")
    diff.add_argument("--markdown", default=None, metavar="PATH",
                      help="also write the diff as markdown to PATH")
    diff.add_argument("--json", action="store_true",
                      help="emit the diff as machine-readable JSON "
                           "instead of the terminal summary (the exit "
                           "code still gates)")

    return parser


def _machine(args) -> MachineConfig:
    if getattr(args, "config_file", None):
        return MachineConfig.from_json(args.config_file)
    return _MACHINES[args.machine]()


def _run(benchmark: str, spec: StrategySpec, args) -> tuple:
    from repro.core.simulator import Simulator

    simulator = Simulator(benchmark, spec, config=_machine(args))
    if args.warmup:
        simulator.warmup(args.warmup)
    return simulator, simulator.run(args.instructions)


def _cmd_list(_args) -> int:
    from repro.workloads.profiles import all_profiles

    profiles = all_profiles()
    width = max(len(name) for name in profiles)
    for name in sorted(profiles):
        print(f"{name.ljust(width)}  {profiles[name].description}")
    return 0


def _cmd_simulate(args) -> int:
    from repro.analysis import results_to_csv

    spec = _STRATEGIES[args.strategy]
    _, result = _run(args.benchmark, spec, args)
    if args.csv:
        print(results_to_csv([result]), end="")
        return 0
    print(f"benchmark          : {result.benchmark}")
    print(f"strategy           : {result.strategy}")
    print(f"IPC                : {result.ipc:.3f}")
    print(f"from trace cache   : {result.pct_tc_instructions:.1%}")
    print(f"mean trace size    : {result.avg_trace_size:.1f}")
    print(f"mispredict rate    : {result.mispredict_rate:.2%}")
    print(f"intra-cluster fwd  : {result.pct_intra_cluster_forwarding:.1%}")
    print(f"mean fwd distance  : {result.avg_forward_distance:.2f} clusters")
    return 0


#: Strategy presentation order for ``compare`` and matrix sweeps.
_COMPARE_ORDER = ("base", "issue", "issue4", "friendly", "fdrt")


def _cmd_compare(args) -> int:
    from repro.analysis import bar_chart, results_to_csv
    from repro.experiments import run_matrix

    specs = [_STRATEGIES[name] for name in _COMPARE_ORDER]
    matrix = run_matrix(
        [args.benchmark], specs, config=_machine(args),
        instructions=args.instructions, warmup=args.warmup,
    )
    results = [matrix[(args.benchmark, spec.label)] for spec in specs]
    base = results[0]
    speedups = {r.strategy: r.speedup_over(base) for r in results}
    if args.csv:
        print(results_to_csv(results), end="")
        return 0
    print(bar_chart(speedups, title=f"speedup over base — {args.benchmark}",
                    baseline=1.0))
    return 0


def _cmd_trace(args) -> int:
    from repro.core.simulator import Simulator
    from repro.obs import CycleTracer

    if args.events <= 0:
        print(f"error: --events must be positive (got {args.events})",
              file=sys.stderr)
        return 2
    try:
        # Probe writability up front: a multi-minute simulation that
        # dies on the final write is the worst possible failure mode.
        with open(args.out, "a", encoding="utf-8"):
            pass
    except OSError as error:
        print(f"error: cannot write --out {args.out}: {error}",
              file=sys.stderr)
        return 2

    spec = _STRATEGIES[args.strategy]
    simulator = Simulator(args.benchmark, spec, config=_machine(args))
    if args.warmup:
        simulator.warmup(args.warmup)
    tracer = CycleTracer(capacity=args.events)
    with tracer.attach(simulator.pipeline):
        result = simulator.run(args.instructions)
    tracer.write(args.out)
    print(f"wrote {args.out}: {len(tracer.events)} events "
          f"({tracer.dropped} dropped by the ring buffer), "
          f"{result.retired} instructions over {result.cycles} cycles")
    for lane, count in sorted(tracer.lane_counts().items()):
        print(f"  {lane:<12} {count:>8} events")
    print("open in https://ui.perfetto.dev (1 ts = 1 cycle)")
    return 0


def _cmd_utilization(args) -> int:
    from repro.analysis import collect_utilization

    spec = _STRATEGIES[args.strategy]
    simulator, _ = _run(args.benchmark, spec, args)
    print(collect_utilization(simulator.pipeline).render())
    return 0


def _cmd_experiment(args) -> int:
    import repro.experiments as ex

    budgets = {}
    if args.instructions:
        budgets["instructions"] = args.instructions
    if args.warmup is not None:
        budgets["warmup"] = args.warmup

    def char():
        return ex.run_characterization(**budgets)

    runners = {
        "table1": lambda: ex.render_table1(char()),
        "table2": lambda: ex.render_table2(char()),
        "table3": lambda: ex.render_table3(char()),
        "fig4": lambda: ex.render_figure4(char()),
        "fig5": lambda: ex.render_figure5(ex.run_latency_study(**budgets)),
        "fig6": lambda: ex.render_figure6(
            ex.run_strategy_comparison(**budgets)),
        "table8": lambda: ex.render_table8(
            ex.run_strategy_comparison(**budgets)),
        "fig7": lambda: ex.render_figure7(ex.run_fdrt_analysis(**budgets)),
        "table9": lambda: ex.render_table9(ex.run_fdrt_analysis(**budgets)),
        "table10": lambda: ex.render_table10(ex.run_fdrt_analysis(**budgets)),
        "fig8": lambda: ex.render_figure8(ex.run_robustness(**budgets)),
        "fig9": lambda: ex.render_figure9(ex.run_suite_study(**budgets)),
    }
    print(runners[args.artifact]())
    return 0


def _cmd_energy(args) -> int:
    from repro.analysis import estimate_energy

    spec = _STRATEGIES[args.strategy]
    simulator, _ = _run(args.benchmark, spec, args)
    print(estimate_energy(simulator.pipeline).render())
    return 0


def _cmd_sweep(args) -> int:
    from repro.experiments import (
        render_sweep,
        run_hop_latency_sweep,
        run_tc_capacity_sweep,
    )

    if args.parameter == "matrix":
        return _cmd_sweep_matrix(args)
    budgets = dict(instructions=args.instructions, warmup=args.warmup)
    if args.parameter == "tc":
        result = run_tc_capacity_sweep(**budgets)
    else:
        result = run_hop_latency_sweep(**budgets)
    print(render_sweep(result))
    return 0


def _cmd_sweep_matrix(args) -> int:
    """Full benchmark × strategy matrix with live progress + cache stats.

    Exit codes: 0 success, 1 jobs failed (no ``--keep-going``), 2 usage
    error, 3 partial success (cells quarantined under ``--keep-going``),
    130 interrupted by SIGINT/SIGTERM (resume with ``--resume``).
    """
    from repro.experiments import ExperimentTable, run_matrix
    from repro.runtime import (
        ExperimentEngine,
        JobFailedError,
        RunInterrupted,
        progress_printer,
    )
    from repro.workloads.suites import SPECINT2000_SELECTED

    benchmarks = (_split_tokens(args.benchmarks) if args.benchmarks
                  else list(SPECINT2000_SELECTED))
    names = (_split_tokens(args.strategies) if args.strategies
             else list(_COMPARE_ORDER))
    if not benchmarks or not names:
        print("error: empty benchmark/strategy selection", file=sys.stderr)
        return 2
    try:
        specs = [_STRATEGIES[name] for name in names]
    except KeyError as error:
        print(f"error: unknown strategy {error} "
              f"(choices: {', '.join(sorted(_STRATEGIES))})", file=sys.stderr)
        return 2

    faults = None
    if args.fault_plan:
        from repro.resilience import FaultPlan

        try:
            faults = FaultPlan.from_file(args.fault_plan)
        except (OSError, ValueError) as error:
            print(f"error: cannot load --fault-plan {args.fault_plan}: "
                  f"{error}", file=sys.stderr)
            return 2
        print(f"fault plan: {len(faults.specs)} spec(s), "
              f"key {faults.key[:12]}…", file=sys.stderr)

    resume = None
    telemetry = args.telemetry_dir
    if args.resume:
        from repro.resilience import load_resume_state

        try:
            resume = load_resume_state(args.resume)
        except (OSError, ValueError) as error:
            print(f"error: cannot resume from {args.resume}: {error}",
                  file=sys.stderr)
            return 2
        print(resume.render(), file=sys.stderr)
        # Keep journaling into the same directory so the resumed run
        # finalizes the manifest it is completing.
        telemetry = telemetry or args.resume

    engine = ExperimentEngine(
        progress=progress_printer(), telemetry=telemetry,
        faults=faults, keep_going=args.keep_going, resume=resume,
    )
    try:
        matrix = run_matrix(
            benchmarks, specs, config=_MACHINES[args.machine](),
            instructions=args.instructions, warmup=args.warmup,
            engine=engine,
        )
    except RunInterrupted as stop:
        print(f"\n{stop}; completed cells are journaled", file=sys.stderr)
        if engine.telemetry is not None:
            print(f"resume with: repro sweep --resume "
                  f"{engine.telemetry.directory}", file=sys.stderr)
        return 130
    except JobFailedError as error:
        print(f"error: {error}", file=sys.stderr)
        for failure in error.failures:
            print(f"  [{failure.index}] {failure.job.label}: "
                  f"{failure.reason} ({failure.attempts} attempt(s))",
                  file=sys.stderr)
        print("hint: --keep-going quarantines failing cells instead of "
              "aborting the sweep", file=sys.stderr)
        return 1
    finally:
        engine.close()

    table = ExperimentTable(
        f"IPC — {len(benchmarks)}x{len(specs)} matrix "
        f"({args.instructions} instructions)",
        ["benchmark"] + [spec.label for spec in specs],
    )
    for benchmark in benchmarks:
        row = []
        for spec in specs:
            result = matrix[(benchmark, spec.label)]
            row.append(f"{result.ipc:.3f}" if result is not None
                       else "FAILED")
        table.add_row(benchmark, *row)
    print(table.render())
    print()
    print(engine.report.render())
    print(engine.cache.stats.render())
    if engine.telemetry is not None:
        print(f"telemetry: {engine.telemetry.manifest_path}")
    if args.report_json:
        import json

        payload = json.dumps(
            {"report": engine.report.to_dict(),
             "cache": engine.cache.stats.to_dict()},
            indent=2, sort_keys=True,
        )
        if args.report_json == "-":
            print(payload)
        else:
            with open(args.report_json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
    return 3 if engine.report.failed else 0


def _split_tokens(value: str) -> List[str]:
    """Comma-split a CLI list, dropping empty tokens (``"a,,b"``)."""
    return [token.strip() for token in value.split(",") if token.strip()]


def _cmd_top(args) -> int:
    from repro.obs.top import run_top

    return run_top(
        args.source,
        interval=args.interval,
        once=args.once,
        ansi=False if args.no_color else None,
        stale_after=args.stale_after,
    )


def _resolve_url(args) -> Optional[str]:
    from repro.runtime.settings import setting

    url = setting("service_url", args.url)
    if url is None:
        print("error: no service URL (give one, or set "
              "$REPRO_SERVICE_URL)", file=sys.stderr)
    return url


def _matrix_cells(args):
    """The (benchmarks, specs, jobs) triple submit/fetch operate on."""
    from repro.runtime import matrix_jobs
    from repro.workloads.suites import SPECINT2000_SELECTED

    benchmarks = (_split_tokens(args.benchmarks) if args.benchmarks
                  else list(SPECINT2000_SELECTED))
    names = (_split_tokens(args.strategies) if args.strategies
             else list(_COMPARE_ORDER))
    if not benchmarks or not names:
        raise ValueError("empty benchmark/strategy selection")
    try:
        specs = [_STRATEGIES[name] for name in names]
    except KeyError as error:
        raise ValueError(
            f"unknown strategy {error} "
            f"(choices: {', '.join(sorted(_STRATEGIES))})") from None
    grid = matrix_jobs(
        benchmarks, specs, config=_MACHINES[args.machine](),
        instructions=args.instructions, warmup=args.warmup,
        seed=args.seed,
    )
    jobs = [grid[(benchmark, spec.label)]
            for benchmark in benchmarks for spec in specs]
    return benchmarks, specs, jobs


def _render_remote_table(benchmarks, specs, jobs, results) -> str:
    from repro.experiments import ExperimentTable

    by_key = {job.key: result for job, result in zip(jobs, results)}
    table = ExperimentTable(
        f"IPC — {len(benchmarks)}x{len(specs)} matrix (via service)",
        ["benchmark"] + [spec.label for spec in specs],
    )
    cells = iter(jobs)
    for benchmark in benchmarks:
        row = []
        for _spec in specs:
            result = by_key[next(cells).key]
            row.append(f"{result.ipc:.3f}")
        table.add_row(benchmark, *row)
    return table.render()


def _load_fault_plan(path):
    """Load a FaultPlan file for a CLI flag (None passes through)."""
    if not path:
        return None
    from repro.resilience import FaultPlan

    return FaultPlan.from_file(path)


def _cmd_service(args) -> int:
    import signal
    import time as _time

    from repro.runtime import ResultCache
    from repro.runtime.settings import setting
    from repro.service import DEFAULT_LEASE_SECONDS, ServiceServer

    try:
        faults = _load_fault_plan(args.fault_plan)
    except (OSError, ValueError) as error:
        print(f"error: cannot load --fault-plan {args.fault_plan}: "
              f"{error}", file=sys.stderr)
        return 2
    cache = ResultCache(root=args.cache_dir, remote=False)
    server = ServiceServer(
        args.data_dir, port=args.port, host=args.host, cache=cache,
        lease_seconds=(args.lease if args.lease is not None
                       else DEFAULT_LEASE_SECONDS),
        max_depth=setting("queue_limit", args.max_depth),
        faults=faults,
    )
    # SIGTERM = graceful drain: stop granting claims, shed new
    # submissions, give in-flight completions --drain-grace seconds to
    # land (journaled), then stop.  SIGINT stays an immediate stop.
    draining = []
    signal.signal(signal.SIGTERM, lambda *_: draining.append(True))
    url = server.start()
    counts = server.queue.counts()
    resumed = counts["pending"] + counts["running"]
    print(f"service: {url} (data: {server.data_dir}, "
          f"cache: {server.cache.root}, "
          f"{server.cache.shards} shards, "
          f"lease {server.queue.lease_seconds:.0f}s"
          + (f", max depth {server.max_depth}"
             if server.max_depth is not None else "")
          + ")")
    if resumed:
        print(f"resumed {resumed} unfinished job(s) from the queue "
              f"journal")
    print("endpoints: POST /jobs, GET /jobs/<key>, GET /queue, "
          "GET /cache/<key>, GET /metrics  (ctrl-c to stop)")
    try:
        while not draining:
            _time.sleep(0.2)
        server.drain()
        print("SIGTERM: draining (no new claims; waiting up to "
              f"{args.drain_grace:.0f}s for in-flight jobs)",
              file=sys.stderr)
        deadline = _time.monotonic() + max(0.0, args.drain_grace)
        while _time.monotonic() < deadline:
            if server.queue.counts()["running"] == 0:
                break
            _time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        print("service stopped", file=sys.stderr)
    return 0


def _cmd_worker(args) -> int:
    from repro.service import WorkerAgent

    url = _resolve_url(args)
    if url is None:
        return 2
    try:
        faults = _load_fault_plan(args.fault_plan)
    except (OSError, ValueError) as error:
        print(f"error: cannot load --fault-plan {args.fault_plan}: "
              f"{error}", file=sys.stderr)
        return 2
    agent = WorkerAgent(
        url, name=args.name, poll_interval=args.poll,
        max_jobs=args.max_jobs, max_idle=args.max_idle,
        heartbeat_cycles=args.heartbeat_cycles,
        interval_cycles=args.interval_cycles, faults=faults,
        outage_grace=args.outage_grace,
    )
    return agent.run()


def _cmd_chaos(args) -> int:
    import json as _json
    import tempfile

    from repro.service.chaos import run_chaos_soak

    if args.benchmarks is None:
        from repro.workloads.suites import SPECINT2000_SELECTED

        count = 2 if args.quick else 4
        args.benchmarks = ",".join(list(SPECINT2000_SELECTED)[:count])
    if args.strategies is None:
        args.strategies = "base,fdrt"
    try:
        _benchmarks, _specs, jobs = _matrix_cells(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    report = run_chaos_soak(
        jobs, workdir,
        seed=args.plan_seed,
        workers=args.workers,
        lease_seconds=args.lease,
        max_depth=args.max_depth,
        quick=args.quick,
        stream=sys.stderr,
    )
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_submit(args) -> int:
    from repro.service import (
        JobRejected,
        RemoteJobFailed,
        ServiceUnavailable,
        fetch_results,
        submit_jobs,
    )

    url = _resolve_url(args)
    if url is None:
        return 2
    try:
        benchmarks, specs, jobs = _matrix_cells(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        states = submit_jobs(url, jobs, stream=sys.stderr)
    except JobRejected as error:
        print(f"error: submission rejected: {error}", file=sys.stderr)
        return 2
    except ServiceUnavailable as error:
        print(f"error: cannot reach service at {url} ({error})",
              file=sys.stderr)
        return 1
    queued = sum(1 for state in states.values() if state != "done")
    print(f"submitted {len(jobs)} cell(s): {len(jobs) - queued} already "
          f"done, {queued} queued")
    if not args.wait:
        if queued:
            print(f"fetch results with: repro fetch {url} [...]")
        return 0
    try:
        results = fetch_results(url, jobs, timeout=args.timeout,
                                stream=sys.stderr)
    except RemoteJobFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (ServiceUnavailable, TimeoutError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(_render_remote_table(benchmarks, specs, jobs, results))
    _print_latency(url, jobs)
    return 0


def _cmd_fetch(args) -> int:
    from repro.service import (
        RemoteJobFailed,
        ServiceUnavailable,
        fetch_results,
    )

    url = _resolve_url(args)
    if url is None:
        return 2
    try:
        benchmarks, specs, jobs = _matrix_cells(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        results = fetch_results(url, jobs, timeout=args.timeout,
                                stream=sys.stderr)
    except RemoteJobFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (ServiceUnavailable, TimeoutError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(_render_remote_table(benchmarks, specs, jobs, results))
    _print_latency(url, jobs)
    return 0


def _cmd_spans(args) -> int:
    import json

    from repro.obs.spans import (
        read_spans,
        render_critical_path,
        render_spans,
        spans_to_chrome,
    )

    source = args.source
    if source.startswith(("http://", "https://")):
        from repro._http import ServiceUnavailable, get_json

        try:
            document = get_json(f"{source.rstrip('/')}/spans", timeout=10.0)
        except ServiceUnavailable as error:
            print(f"error: cannot fetch spans from {source} ({error})",
                  file=sys.stderr)
            return 1
        spans = [record for record in document.get("spans", [])
                 if isinstance(record, dict)]
    else:
        spans = read_spans(source)
    if args.trace:
        spans = [record for record in spans
                 if str(record.get("trace", "")).startswith(args.trace)]
    from repro.runtime.observe import stream_is_tty

    print(render_spans(spans, limit=args.limit,
                       ansi=stream_is_tty(sys.stdout)))
    if spans:
        print()
        print(render_critical_path(spans))
    if args.perfetto:
        cycle = None
        if args.cycle_trace:
            try:
                with open(args.cycle_trace, encoding="utf-8") as handle:
                    cycle = json.load(handle)
            except (OSError, ValueError) as error:
                print(f"error: cannot read --cycle-trace "
                      f"{args.cycle_trace}: {error}", file=sys.stderr)
                return 2
        chrome = spans_to_chrome(spans, cycle_trace=cycle)
        with open(args.perfetto, "w", encoding="utf-8") as handle:
            json.dump(chrome, handle)
        print(f"wrote Perfetto trace: {args.perfetto}", file=sys.stderr)
    return 0


def _print_latency(url, jobs) -> None:
    """The submitted→claimed→done one-liner after a fetch (best-effort)."""
    from repro.service import latency_breakdown, render_latency

    line = render_latency(latency_breakdown(url, jobs))
    if line:
        print(line)


def _cmd_cache(args) -> int:
    import json

    from repro.runtime import ResultCache

    cache = ResultCache(root=args.cache_dir, remote=False)
    if args.cache_command == "gc":
        report = cache.gc(ttl=args.ttl, max_entries=args.max_entries,
                          max_bytes=args.max_bytes)
        print(f"cache gc: {report['migrated']} migrated, "
              f"{report['evicted_ttl']} evicted by TTL, "
              f"{report['evicted_lru']} evicted by LRU; "
              f"{report['entries']} entries "
              f"({report['bytes']} bytes) remain")
        return 0
    scan = cache.scan()
    persistent = cache.persistent_stats()
    if args.json:
        print(json.dumps({"scan": scan, "since_reset": persistent},
                         indent=2, sort_keys=True))
    else:
        print(f"cache root : {scan['root']}")
        print(f"layout     : {scan['shards']} shards"
              + (f" ({scan['legacy_entries']} legacy entries pending "
                 f"migration)" if scan['legacy_entries'] else ""))
        print(f"entries    : {scan['entries']} ({scan['bytes']} bytes)")
        if scan["per_shard"]:
            largest = sorted(
                scan["per_shard"].items(),
                key=lambda item: -item[1]["entries"])[:8]
            spread = ", ".join(
                f"shard-{index:03d}: {record['entries']}"
                for index, record in largest)
            print(f"per shard  : {spread}")
        looked = (persistent["hits"] + persistent["remote_hits"]
                  + persistent["misses"])
        print(f"since reset: {persistent['hits']} hits, "
              f"{persistent['remote_hits']} remote hits, "
              f"{persistent['misses']} misses "
              f"({persistent['hit_rate']:.0%} of {looked} lookups), "
              f"{persistent['stores']} stores, "
              f"{persistent['evicted']} evicted, "
              f"{persistent['processes']} process(es)")
    if args.reset:
        removed = cache.reset_persistent_stats()
        print(f"reset: cleared {removed} counter file(s)")
    return 0


def _cmd_profile(args) -> int:
    from repro.core.simulator import simulate
    from repro.obs.profiler import PhaseProfiler

    if args.sample_cycles < 0:
        print(f"error: --sample-cycles must be >= 0 "
              f"(got {args.sample_cycles})", file=sys.stderr)
        return 2
    spec = _STRATEGIES[args.strategy]
    profiler = PhaseProfiler(sample_cycles=args.sample_cycles)
    result = simulate(
        args.benchmark, spec, config=_machine(args),
        instructions=args.instructions, warmup=args.warmup,
        profiler=profiler,
    )
    print(profiler.render())
    print(f"simulated: {result.retired} instructions over "
          f"{result.cycles} cycles (IPC {result.ipc:.3f})")
    if args.out:
        profiler.write(args.out)
        print(f"speedscope profile: {args.out} "
              f"(open in https://www.speedscope.app)")
    return 0


def _cmd_timeline(args) -> int:
    import json

    from repro.analysis import render_timeline, segment_timeline
    from repro.analysis.phases import DEFAULT_THRESHOLD
    from repro.core.simulator import simulate
    from repro.obs.timeseries import (
        DEFAULT_INTERVAL_CYCLES,
        IntervalRecorder,
    )
    from repro.runtime.observe import stream_is_tty
    from repro.runtime.settings import setting

    if (args.benchmark is None) == (args.phased is None):
        print("error: give a benchmark or --phased KINDS (not both)",
              file=sys.stderr)
        return 2
    try:
        interval = setting("interval_cycles", args.interval_cycles)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if interval <= 0:
        interval = DEFAULT_INTERVAL_CYCLES
    if args.phased is not None:
        from repro.workloads import phased_program

        try:
            subject = phased_program(tuple(_split_tokens(args.phased)),
                                     seed=args.seed or 1)
        except (KeyError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        label = subject.name
    else:
        subject = label = args.benchmark
    cycle = None
    if args.cycle_trace:
        try:
            with open(args.cycle_trace, encoding="utf-8") as handle:
                cycle = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"error: cannot read --cycle-trace "
                  f"{args.cycle_trace}: {error}", file=sys.stderr)
            return 2
    recorder = IntervalRecorder(interval_cycles=interval)
    result = simulate(
        subject, _STRATEGIES[args.strategy], config=_machine(args),
        instructions=args.instructions, warmup=args.warmup,
        seed=args.seed, recorder=recorder,
    )
    threshold = (args.threshold if args.threshold is not None
                 else DEFAULT_THRESHOLD)
    report = segment_timeline(
        recorder.windows, threshold=threshold,
        meta=dict(recorder.meta(), benchmark=label,
                  strategy=args.strategy, seed=args.seed))
    document = {
        "meta": report.meta,
        "windows": list(recorder.windows),
        "phases": report.to_dict(),
    }
    payload = json.dumps(document, indent=2, sort_keys=True)
    if args.json == "-":
        print(payload)
    else:
        ansi = (not args.no_color) and stream_is_tty(sys.stdout)
        print(f"timeline — {label} / {args.strategy}  "
              f"({interval} cycles per window, "
              f"{len(recorder.windows)} window(s)"
              + (f", {recorder.dropped} dropped"
                 if recorder.dropped else "") + ")")
        print()
        print(render_timeline(recorder.windows, report=report, ansi=ansi))
        print()
        print(report.render())
        print()
        print(f"simulated: {result.retired} instructions over "
              f"{result.cycles} cycles (IPC {result.ipc:.3f})")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"timeline JSON: {args.json}")
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(report.to_markdown() + "\n")
        if args.json != "-":
            print(f"markdown report: {args.markdown}")
    if args.perfetto:
        recorder.write_chrome_trace(args.perfetto, cycle_trace=cycle)
        if args.json != "-":
            print(f"Perfetto counter tracks: {args.perfetto}")
    return 0


def _cmd_analyze(args) -> int:
    import json
    import os

    from repro.analysis import analyze_manifest

    if args.telemetry is None and not args.phases:
        print("error: give a telemetry directory or --phases TIMELINE...",
              file=sys.stderr)
        return 2
    report = None
    if args.telemetry is not None:
        from repro.obs.manifest import load_manifest

        try:
            manifest = load_manifest(args.telemetry)
        except OSError as error:
            print(f"error: cannot read manifest: {error}", file=sys.stderr)
            return 2
        report = analyze_manifest(manifest)
    phase_reports = {}
    if args.phases:
        from repro.analysis import load_timeline, segment_timeline

        for file_path in args.phases:
            try:
                meta, windows = load_timeline(file_path)
            except OSError as error:
                print(f"error: cannot read timeline {file_path}: {error}",
                      file=sys.stderr)
                return 2
            label = (meta.get("strategy")
                     or os.path.splitext(os.path.basename(file_path))[0])
            if label in phase_reports:
                label = f"{label}:{len(phase_reports)}"
            phase_reports[label] = segment_timeline(windows, meta=meta)
    document = {}
    sections = []
    markdown = []
    if report is not None:
        document["report"] = report.to_dict()
        sections.append(report.render())
        markdown.append(report.to_markdown())
    if phase_reports:
        from repro.analysis import compare_timelines, render_comparison

        document["phases"] = {label: r.to_dict()
                              for label, r in phase_reports.items()}
        for label, phase_report in phase_reports.items():
            sections.append(f"phases — {label}\n"
                            + phase_report.render())
            markdown.append(f"## Phases — {label}\n\n"
                            + phase_report.to_markdown())
        if len(phase_reports) > 1:
            rows = compare_timelines(phase_reports)
            document["comparison"] = rows
            sections.append("per-phase strategy comparison "
                            "(cycle-weighted mean IPC)\n"
                            + render_comparison(rows))
    if args.json:
        payload = (document["report"] if set(document) == {"report"}
                   else document)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n\n".join(sections))
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write("\n\n".join(markdown) + "\n")
        if not args.json:
            print(f"\nmarkdown report: {args.markdown}")
    return 0


def _cmd_baseline(args) -> int:
    from repro.analysis import capture_baseline, write_baseline
    from repro.runtime import ExperimentEngine, progress_printer
    from repro.workloads.suites import SPECINT2000_SELECTED

    benchmarks = (_split_tokens(args.benchmarks) if args.benchmarks
                  else list(SPECINT2000_SELECTED))
    names = (_split_tokens(args.strategies) if args.strategies
             else ["base", "friendly", "fdrt"])
    if not benchmarks or not names:
        print("error: empty benchmark/strategy selection", file=sys.stderr)
        return 2
    try:
        specs = [_STRATEGIES[name] for name in names]
    except KeyError as error:
        print(f"error: unknown strategy {error} "
              f"(choices: {', '.join(sorted(_STRATEGIES))})", file=sys.stderr)
        return 2
    try:
        seeds = [int(token) for token in _split_tokens(args.seeds)]
    except ValueError:
        print(f"error: --seeds must be comma-separated integers "
              f"(got {args.seeds!r})", file=sys.stderr)
        return 2

    document = capture_baseline(
        benchmarks, specs, config=_machine(args), machine=args.machine,
        instructions=args.instructions, warmup=args.warmup, seeds=seeds,
        engine=ExperimentEngine(progress=progress_printer()),
    )
    path = write_baseline(args.out, document)
    print(f"baseline: {path} — {len(document['entries'])} entries, "
          f"{len(seeds)} replicate seed(s) per entry")
    return 0


def _cmd_diff(args) -> int:
    from repro.analysis import diff_sources

    if args.against and args.b:
        print("error: give either RUN-B or --against, not both",
              file=sys.stderr)
        return 2
    if args.against:
        before, after = args.against, args.a
    elif args.b:
        before, after = args.a, args.b
    else:
        print("error: nothing to diff against "
              "(give RUN-B or --against PATH)", file=sys.stderr)
        return 2
    try:
        report = diff_sources(before, after)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(report.to_markdown() + "\n")
    return report.exit_code


def _apply_runtime(args) -> None:
    """Install ``--jobs`` / ``--no-cache`` as process-wide defaults.

    Experiment code calls ``run_matrix`` deep below the subcommand, so
    the flags travel via :func:`repro.runtime.configure` rather than
    through every signature.  Both keys are always (re)set, so repeated
    in-process invocations don't leak settings into each other.
    """
    from repro.runtime import configure

    configure(
        jobs=getattr(args, "jobs", None),
        cache=False if getattr(args, "no_cache", False) else None,
        telemetry_dir=getattr(args, "telemetry_dir", None),
        serve=getattr(args, "serve", None),
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Exit codes: 0 success, 1 failure (regressions, quarantine-worthy
    job failures), 2 usage error, 3 partial success (``sweep
    --keep-going`` with quarantined cells), 130 interrupted
    (SIGINT/SIGTERM; ``sweep --resume`` picks the run back up).
    """
    args = _build_parser().parse_args(argv)
    _apply_runtime(args)
    handlers = {
        "list": _cmd_list,
        "simulate": _cmd_simulate,
        "compare": _cmd_compare,
        "trace": _cmd_trace,
        "utilization": _cmd_utilization,
        "experiment": _cmd_experiment,
        "energy": _cmd_energy,
        "sweep": _cmd_sweep,
        "top": _cmd_top,
        "service": _cmd_service,
        "worker": _cmd_worker,
        "submit": _cmd_submit,
        "fetch": _cmd_fetch,
        "chaos": _cmd_chaos,
        "spans": _cmd_spans,
        "cache": _cmd_cache,
        "profile": _cmd_profile,
        "timeline": _cmd_timeline,
        "analyze": _cmd_analyze,
        "baseline": _cmd_baseline,
        "diff": _cmd_diff,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that's a clean exit.
        return 0
    except KeyboardInterrupt as stop:
        # Including RunInterrupted: the engine already flushed telemetry
        # and wrote a `status: interrupted` manifest before raising.
        print(f"\n{stop or 'interrupted'}", file=sys.stderr)
        return 130
    except RuntimeError as error:
        # Only the engine raises JobFailedError, and then its module is
        # loaded; importing it up front would load the simulator into
        # every command, the service and the worker included.
        executor = sys.modules.get("repro.runtime.executor")
        if executor is None or not isinstance(error,
                                              executor.JobFailedError):
            raise
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
