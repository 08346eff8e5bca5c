"""The :class:`SimResult` snapshot of one simulation.

A leaf module (``dataclasses`` and ``typing`` only) so the result cache,
the job description and the service can build and validate results
without importing the simulator.  :mod:`repro.core.simulator`
re-exports it.
"""

from __future__ import annotations

import dataclasses
from typing import Dict


@dataclasses.dataclass(frozen=True)
class SimResult:
    """Immutable snapshot of one simulation's statistics."""

    benchmark: str
    strategy: str
    cycles: int
    retired: int
    ipc: float
    # Table 1.
    pct_tc_instructions: float
    avg_trace_size: float
    # Table 2 / Figure 4.
    pct_deps_critical: float
    pct_critical_inter_trace: float
    critical_source: Dict[str, float]
    # Table 3.
    producer_repetition: Dict[str, float]
    # Table 8.
    pct_intra_cluster_forwarding: float
    avg_forward_distance: float
    # Figure 7 (FDRT only; zeros otherwise).
    option_counts: Dict[str, int]
    # Table 9.
    fill_migration_rate: float
    chain_migration_rate: float
    # Table 10.
    pct_migrating_intra_cluster: float
    # Misc.
    mispredict_rate: float
    tc_hit_rate: float
    l1d_hit_rate: float
    # Top-down cycle accounting (see repro.core.accounting): machine
    # width (the ideal IPC) and lost retire slots per cluster per
    # category.  Categories sum to ``width * cycles - retired`` exactly,
    # so the attribution decomposes the IPC gap by construction.
    width: int = 0
    cycle_accounting: Dict[str, Dict[str, int]] = dataclasses.field(
        default_factory=dict)

    @property
    def ipc_gap(self) -> float:
        """IPC lost versus the ideal-width machine."""
        return self.width - self.ipc

    def ipc_loss_by_category(self) -> Dict[str, float]:
        """IPC lost per accounting category (summed across clusters)."""
        cycles = self.cycles or 1
        totals: Dict[str, float] = {}
        for per_cluster in self.cycle_accounting.values():
            for category, slots in per_cluster.items():
                totals[category] = totals.get(category, 0.0) + slots / cycles
        return totals

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-serialisable) of this result.

        The round trip through :meth:`from_dict` is lossless (including
        via JSON), which the runtime's result cache relies on.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimResult":
        """Rebuild a result from :meth:`to_dict` output.

        Validates the field set strictly: missing or unknown keys raise
        :class:`ValueError`, so stale or foreign payloads (e.g. cache
        entries written by an older schema) are rejected loudly instead
        of building a half-initialised result.
        """
        fields = {f.name for f in dataclasses.fields(cls)}
        missing = fields - set(data)
        unknown = set(data) - fields
        if missing or unknown:
            raise ValueError(
                f"SimResult payload mismatch: missing {sorted(missing)}, "
                f"unknown {sorted(unknown)}"
            )
        return cls(**data)

    def speedup_over(self, base: "SimResult") -> float:
        """Execution-time speedup of this run relative to ``base``.

        Computed as the IPC ratio, which equals the cycle ratio for equal
        work.  Retired counts may differ by the retire width (simulation
        stops on the first cycle that reaches the budget), so they are
        only required to be within one percent of each other.
        """
        if base.retired == 0 or self.retired == 0:
            raise ValueError("cannot compare empty runs")
        tolerance = max(32.0, 0.01 * base.retired)
        if abs(self.retired - base.retired) > tolerance:
            raise ValueError(
                f"speedup needs comparable work: {self.retired} vs {base.retired}"
            )
        if base.ipc == 0:
            raise ValueError("base run has zero IPC")
        return self.ipc / base.ipc
