"""One-command benchmark of the simulator, its engine and its service.

    python perf/bench.py [--seed N] [--workload W ...] [--out FILE]
    python perf/bench.py --workload W --seed N --seconds S --trace 0|1

With ``--trace`` one workload runs in this process, and the last line of
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The metrics are the ``end_to_end`` list of
``BENCHMARK.json`` with ``--trace 0``, and its ``per_layer`` list with
``--trace 1``; a layer the traced run does not observe in this process
reads 0.  Without ``--trace`` each named workload (default: all) runs
untraced and then traced, each in a fresh subprocess, one after another.

Every run prints its metrics, and its workload's own figures (see
``compare.FIGURES``), by name with their units, checks its results
(golden digests for seed 1, reference re-simulation otherwise) and exits
non-zero if any operation failed.  ``--out`` appends the full run
records to a JSON file that ``perf/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import harness
import sim
import svc
import sweep


def run_workload(name: str, seed: int, seconds: float, trace: int):
    """Run one workload at its full budget in this process."""
    if name in sim.WORKLOADS:
        return sim.run_workload(name, seed, seconds, trace)
    if name == sweep.NAME:
        return sweep.run_workload(seed, seconds, trace)
    if name == svc.NAME:
        return svc.run_workload(seed, seconds, trace)
    raise ValueError(f"unknown workload {name!r}")


def contract_metrics(run, benchmark: dict) -> dict:
    """The run's metrics, checked against the list ``BENCHMARK.json``
    declares for its trace mode; per-layer metrics of layers the run did
    not observe are filled in as 0."""
    declared = benchmark["per_layer" if run.trace else "end_to_end"]
    names = {spec["name"] for spec in declared}
    unknown = set(run.metrics) - names
    if unknown:
        raise ValueError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for spec in declared:
        name = spec["name"]
        if name in run.metrics:
            metrics[name] = run.metrics[name]
        elif run.trace:
            metrics[name] = {"value": 0.0, "unit": spec["unit"]}
        else:
            raise ValueError(f"{run.workload} did not report {name}")
    return metrics


def append_records(path: str, records: list) -> None:
    document = {"runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    document["runs"].extend(records)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def run_single(args, benchmark: dict) -> int:
    try:
        harness.bootstrap()
    except harness.ProgramMissing as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    [name] = args.workload
    run = run_workload(name, args.seed, args.seconds, args.trace)
    record = run.record()
    record["metrics"] = contract_metrics(run, benchmark)
    prefix = f"{name} seed={args.seed} trace={args.trace}"
    for group in ("metrics", "figures"):
        for metric, value in sorted(record[group].items()):
            print(f"{prefix} {metric} = {value['value']:.6g} {value['unit']}")
    print(f"{prefix} golden={record['golden']} digest={record['digest']}")
    for failure in record["failures"]:
        print(f"{prefix} FAILED: {failure}")
    if args.out:
        append_records(args.out, [record])
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def run_all(args) -> int:
    """Each workload untraced then traced, each in a fresh subprocess."""
    summary = []
    for name in args.workload:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.out:
                command += ["--out", os.path.abspath(args.out)]
            start = time.monotonic()
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            wall = time.monotonic() - start
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {"correct": False, "attempted": 0, "failed": 1}
            ok = proc.returncode == 0 and result["correct"]
            summary.append(ok)
            print(f"== {name} trace={trace}: "
                  f"{'ok' if ok else 'FAILED'} {result['failed']}/"
                  f"{result['attempted']} failed, {wall:.1f}s wall",
                  flush=True)
    return 0 if all(summary) else 1


def main(argv=None) -> int:
    benchmark = harness.load_benchmark()
    workloads = [spec["name"] for spec in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"],
                        help="measured time per run (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run one workload in-process, untraced (0) "
                             "or traced (1)")
    parser.add_argument("--out", default=None,
                        help="append run records to this JSON file")
    args = parser.parse_args(argv)
    # REPRO_* knobs from the caller's shell would change what is measured.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    if args.trace is None:
        args.workload = args.workload or workloads
        return run_all(args)
    if not args.workload or len(args.workload) != 1:
        parser.error("--trace needs exactly one --workload")
    return run_single(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
