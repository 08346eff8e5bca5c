"""Shared plumbing for the ``perf/`` benchmark.

Locating the program in this checkout, timing loops, the host-speed
reference that set-up time is scaled by, order statistics, result
digests, scratch space and the run record every workload fills in.
Nothing here imports :mod:`repro`; :func:`bootstrap` makes it importable
from ``src/`` of the checkout this file lives in.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
SRC = ROOT / "src"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
GOLDEN_FILE = PERF_DIR / "golden.json"
#: Every scratch file of a run lives under here, inside the checkout.
SCRATCH_ROOT = ROOT / ".perf_tmp"

#: Wall clock, for latencies and for the length of a run.
clock = time.perf_counter
#: This process's CPU time.  It leaves out the time the process waited
#: for a CPU behind other processes, which wall time includes, so
#: CPU-bound work is timed with it.
cpu_clock = time.process_time

#: CPU time of one :func:`reference_loop` on the 2-vCPU Xeon VM the
#: bounds were set on, a typical value between its slow spells.
NOMINAL_REF_S = 0.003
#: Reference loops timed per :meth:`HostSpeed.sample`.
REF_LOOPS = 3


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, next_node) -> None:
        self.key = key
        self.value = value
        self.next = next_node


def reference_loop() -> list:
    """Fixed interpreter work: objects, attribute reads, dict updates, a
    sort.  It must never change: it is the yardstick ``setup_s`` is
    scaled by."""
    table: Dict[int, int] = {}
    head = None
    for i in range(3000):
        head = _Node(i * 7919 % 1009, i, head)
    for _ in range(8):
        node = head
        while node is not None:
            table[node.key] = table.get(node.key, 0) + node.value
            node = node.next
    return sorted(table.items(), key=lambda item: item[1])[:3]


class HostSpeed:
    """How fast the host ran while a run set itself up, from
    :func:`reference_loop`.

    The shared host's cores change speed by up to ±30% in spells of
    seconds to minutes, CPU time included, and a spell moves every
    set-up operation alike.  A workload calls :meth:`sample` between
    its set-up operations, while none of its other processes is busy (a
    busy sibling vCPU slows the loop too).  :meth:`scale` is the median
    reference time over :data:`NOMINAL_REF_S`, so a time divided by it
    reads as at the nominal host speed.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection would time the program's heap
        try:
            for _ in range(REF_LOOPS):
                start = cpu_clock()
                reference_loop()
                self.samples.append(cpu_clock() - start)
        finally:
            if collecting:
                gc.enable()

    def scale(self) -> float:
        """Reference time over nominal: above 1 on a slow host."""
        return median(self.samples) / NOMINAL_REF_S


class ProgramMissing(RuntimeError):
    """The checkout has no ``src/repro`` to benchmark."""


def bootstrap() -> None:
    """Make ``repro`` importable from this checkout's ``src/`` only.

    Raises :class:`ProgramMissing` when the sources are absent, so a
    directory holding only the benchmark fails instead of measuring
    some other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_benchmark() -> dict:
    with open(BENCHMARK_FILE, encoding="utf-8") as handle:
        return json.load(handle)


@contextlib.contextmanager
def scratch(prefix: str) -> Iterator[Path]:
    """A fresh directory under :data:`SCRATCH_ROOT`, removed afterwards."""
    SCRATCH_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=SCRATCH_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH_ROOT.rmdir()


def repeat_within(seconds: float, action: Callable[[], object],
                  min_reps: int = 1) -> List[object]:
    """Call ``action`` until another call would overrun ``seconds``.

    The next call is skipped when the time spent so far plus the last
    call's duration exceeds the budget, so runs end close to it.
    """
    start = clock()
    results = []
    while True:
        began = clock()
        results.append(action())
        last = clock() - began
        if len(results) >= min_reps and clock() - start + last > seconds:
            return results


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (``p`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def digest(document) -> str:
    """SHA-256 of the canonical JSON form of ``document``."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def cells_digest(results: Dict[str, dict]) -> str:
    """One digest over ``key -> SimResult.to_dict()``, sorted by key."""
    return digest(sorted(results.items()))


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest resident set of any child this process has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def check_sample(run: "Run", jobs: Dict[str, object],
                 results: Dict[str, dict], what: str) -> None:
    """Re-simulate every tenth of ``results`` (by key) in this process
    with ``SimJob.run()`` and check it against the reported result."""
    for key in sorted(results)[::10]:
        run.check(digest(jobs[key].run().to_dict()) == digest(results[key]),
                  f"{what} {key[:12]} differs from an in-process "
                  "SimJob.run()")


def golden_status(workload: str, seed: int, budget: str,
                  value: str) -> str:
    """``match``/``mismatch`` against ``golden.json``, or ``unchecked``
    when no digest is recorded for this seed and budget."""
    with open(GOLDEN_FILE, encoding="utf-8") as handle:
        golden = json.load(handle).get(workload)
    if golden is None or golden["seed"] != seed or golden["budget"] != budget:
        return "unchecked"
    return "match" if golden["digest"] == value else "mismatch"


class Run:
    """What one workload run reports.

    ``metrics`` holds the names ``BENCHMARK.json`` declares for the
    run's trace mode.  ``figures`` holds the workload's own end-to-end
    figures (latencies, tails, limits, failure fraction), which the
    contract line does not carry; they are printed and saved, and
    ``compare.py`` holds them to the bounds in its ``FIGURES`` table.
    """

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: int) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, dict] = {}
        self.figures: Dict[str, dict] = {}
        self.digest: Optional[str] = None
        self.golden = "unchecked"

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        """Count one checked operation; record ``message`` if it failed."""
        self.attempted += 1
        if not ok:
            self.fail(message)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def figure(self, name: str, value: float, unit: str) -> None:
        self.figures[name] = {"value": float(value), "unit": unit}

    def setup_metric(self, seconds: float, host: HostSpeed) -> None:
        """``setup_s`` at the nominal host speed of ``host``, sampled
        during the set-up.  The time as measured and the reference time
        are kept as figures ``setup_s.raw`` and ``setup_s.ref_ms``."""
        self.metric("setup_s", seconds / host.scale(), "s")
        self.figure("setup_s.raw", seconds, "s")
        self.figure("setup_s.ref_ms", median(host.samples) * 1e3, "ms")

    def set_digest(self, value: str, budget: str) -> None:
        self.digest = value
        self.golden = golden_status(self.workload, self.seed, budget, value)
        if self.golden == "mismatch":
            self.fail(f"SimResult digest {value[:12]} differs from golden.json")

    def record(self) -> dict:
        failed = len(self.failures)
        attempted = max(self.attempted, failed, 1)
        self.figure("failed_frac", failed / attempted, "frac")
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "failures": self.failures,
            "digest": self.digest,
            "golden": self.golden,
            "metrics": self.metrics,
            "figures": self.figures,
        }
