"""Shared experiment infrastructure: run matrices, means, table rendering.

Budgets can be overridden globally through the environment variables
``REPRO_BENCH_INSTRUCTIONS`` and ``REPRO_BENCH_WARMUP`` (used by the
pytest-benchmark harness so CI can run quick passes).

Every (benchmark, strategy) cell goes through
:class:`repro.runtime.ExperimentEngine`, so all experiments inherit
process-pool parallelism (``REPRO_JOBS`` / ``--jobs``) and the on-disk
result cache (``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE``) — see
``docs/RUNTIME.md``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.assign.base import StrategySpec
from repro.cluster.config import MachineConfig
from repro.core.simulator import SimResult
from repro.runtime.settings import setting

#: Default measurement budget per run (instructions).
DEFAULT_INSTRUCTIONS = setting("bench_instructions")
#: Default warmup budget per run (instructions); warming the predictor,
#: caches and trace cache matters more than long measurement here.
DEFAULT_WARMUP = setting("bench_warmup")


def harmonic_mean(values: Sequence[float]) -> float:
    """Harmonic mean, the paper's average for speedups (footnote 3)."""
    values = list(values)
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("harmonic mean requires positive values")
    return len(values) / sum(1.0 / v for v in values)


def run_matrix(
    benchmarks: Iterable[str],
    specs: Iterable[StrategySpec],
    config: Optional[MachineConfig] = None,
    instructions: Optional[int] = None,
    warmup: Optional[int] = None,
    *,
    jobs: Union[int, str, None] = None,
    cache: Union[bool, None, object] = None,
    seed: Optional[int] = None,
    progress=None,
    telemetry=None,
    faults=None,
    keep_going: bool = False,
    resume=None,
    engine=None,
) -> Dict[Tuple[str, str], Optional[SimResult]]:
    """Simulate every (benchmark, strategy) combination.

    Returns results keyed by ``(benchmark, spec.label)``, in
    benchmark-major order, identical to a sequential loop regardless of
    the worker count.

    ``jobs``, ``cache``, ``seed``, ``progress``, ``telemetry``,
    ``faults``, ``keep_going``, and ``resume`` forward to
    :class:`repro.runtime.ExperimentEngine` (defaults resolve from
    ``repro.runtime.configure`` and the ``REPRO_*`` environment;
    ``telemetry`` is a directory or :class:`repro.obs.TelemetryWriter`
    for run manifests; ``faults``/``keep_going``/``resume`` are the
    resilience knobs — see ``docs/RESILIENCE.md``; with ``keep_going``
    a quarantined cell maps to ``None``); ``engine`` substitutes a
    pre-built engine, e.g. to read its
    :attr:`~repro.runtime.EngineReport` afterwards.
    """
    from repro.runtime import ExperimentEngine, matrix_jobs

    instructions = instructions or DEFAULT_INSTRUCTIONS
    warmup = warmup if warmup is not None else DEFAULT_WARMUP
    specs = list(specs)
    config = config if config is not None else MachineConfig()
    grid = matrix_jobs(
        list(benchmarks), specs, config, instructions, warmup, seed=seed,
    )
    if engine is None:
        engine = ExperimentEngine(
            jobs=jobs, cache=cache, progress=progress, telemetry=telemetry,
            faults=faults, keep_going=keep_going, resume=resume,
        )
    results = engine.run(list(grid.values()))
    return dict(zip(grid.keys(), results))


class ExperimentTable:
    """A small text-table builder for paper-style output."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append([str(c) for c in cells])

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title]
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            )
        return "\n".join(lines)


def pct(value: float) -> str:
    """Format a fraction as the paper's percentage style."""
    return f"{100.0 * value:.2f}%"
