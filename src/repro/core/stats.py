"""Simulation statistics.

Collects exactly the quantities the paper's tables and figures report:

* trace cache residency and trace sizes (Table 1);
* forwarding criticality and the inter-trace share (Table 2, Figure 4);
* producer repetition rates (Table 3);
* intra-cluster forwarding share and forwarding distance of critical
  inputs (Table 8);
* FDRT option mix (Figure 7, collected by the strategy itself);
* cluster migration (Table 9, collected by the fill unit) and
  intra-cluster forwarding of migrating instances (Table 10);
* cycles/IPC and branch prediction accuracy for the speedup figures.
"""

from __future__ import annotations

from typing import Dict, Tuple


class SimStats:
    """Mutable counter bag updated by the pipeline's hot paths."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero all counters (machine state is untouched)."""
        self.cycles = 0
        self.retired = 0
        self.retired_from_tc = 0
        # Trace line statistics (over trace cache fetch packets).
        self.tc_fetches = 0
        self.tc_fetch_instructions = 0
        # Branches.
        self.cond_branches = 0
        self.mispredicts = 0
        # Forwarded critical inputs (their count, ``critical_forwarded``,
        # is derived from the critical-input sources below).
        self.critical_forwarded_intra_cluster = 0
        self.critical_forward_distance_sum = 0
        # Critical-input source (instructions with at least one input).
        self.critical_from_rf = 0
        self.critical_from_rs1 = 0
        self.critical_from_rs2 = 0
        # Producer repetition (Table 3), per source index: a check is an
        # event whose (consumer pc, source) was seen before, a hit one
        # whose producer pc is also the last one seen.  The last-seen
        # maps are keyed by consumer pc, one per source index; an event
        # is either a check or the first sighting of its key, so the
        # event counts are derived (see ``forwarded_inputs``).
        self.repeat_checks = [0, 0]
        self.repeat_hits = [0, 0]
        self._last_producer_pc: Tuple[Dict[int, int], ...] = ({}, {})
        # The same over critical inter-trace forwarding only.
        self.repeat_checks_inter = [0, 0]
        self.repeat_hits_inter = [0, 0]
        self._last_producer_pc_inter: Tuple[Dict[int, int], ...] = ({}, {})
        # Interconnect activity (energy accounting): hops travelled by
        # every forwarded operand, not just critical ones.
        self.forwarded_hops = 0
        self.forwarded_operands = 0
        # Execution-time cluster migration (Table 10).
        self.exec_migrations = 0
        self.migrating_critical_forwarded = 0
        self.migrating_critical_intra_cluster = 0
        self._last_exec_cluster: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Hot-path recording helpers.
    # ------------------------------------------------------------------
    def record_forwarded_input(self, consumer_pc: int, src_index: int,
                               producer_pc: int) -> None:
        """One source operand satisfied by data forwarding."""
        last_seen = self._last_producer_pc[src_index]
        last = last_seen.get(consumer_pc)
        last_seen[consumer_pc] = producer_pc
        if last is not None:
            self.repeat_checks[src_index] += 1
            if last == producer_pc:
                self.repeat_hits[src_index] += 1

    def record_critical(self, inst, interconnect) -> None:
        """Record critical-input statistics at dispatch time."""
        src = inst.critical_src
        if src < 0:
            return
        # Track execution-cluster changes of the static instruction.
        pc = inst.static.pc
        cluster = inst.cluster
        last_cluster = self._last_exec_cluster
        last = last_cluster.get(pc)
        last_cluster[pc] = cluster
        migrated = last is not None and last != cluster
        if migrated:
            self.exec_migrations += 1
        if not inst.critical_forwarded:
            self.critical_from_rf += 1
            return
        if src == 0:
            self.critical_from_rs1 += 1
        else:
            self.critical_from_rs2 += 1
        distance = inst.critical_distance
        self.critical_forward_distance_sum += distance
        if distance == 0:
            self.critical_forwarded_intra_cluster += 1
        if inst.critical_inter_trace:
            producer_pc = inst.critical_producer.static.pc
            last_seen = self._last_producer_pc_inter[src]
            last = last_seen.get(pc)
            last_seen[pc] = producer_pc
            if last is not None:
                self.repeat_checks_inter[src] += 1
                if last == producer_pc:
                    self.repeat_hits_inter[src] += 1
        if migrated:
            self.migrating_critical_forwarded += 1
            if distance == 0:
                self.migrating_critical_intra_cluster += 1

    # ------------------------------------------------------------------
    # Derived metrics.
    # ------------------------------------------------------------------
    @property
    def forwarded_inputs(self) -> int:
        """Source operands satisfied by forwarding (every Table 3 event)."""
        return (sum(self.repeat_checks)
                + sum(map(len, self._last_producer_pc)))

    @property
    def critical_forwarded_inter_trace(self) -> int:
        """Critical forwarded inputs whose producer is in another trace."""
        return (sum(self.repeat_checks_inter)
                + sum(map(len, self._last_producer_pc_inter)))

    @property
    def critical_forwarded(self) -> int:
        """Instructions whose critical input was forwarded."""
        return self.critical_from_rs1 + self.critical_from_rs2

    @property
    def exec_instances(self) -> int:
        """Dispatched instructions with at least one input (Table 10)."""
        return self.critical_from_rf + self.critical_forwarded

    @property
    def ipc(self) -> float:
        """Retired instructions per cycle."""
        return self.retired / self.cycles if self.cycles else 0.0

    @property
    def pct_tc_instructions(self) -> float:
        """Share of retired instructions fetched from the trace cache."""
        return self.retired_from_tc / self.retired if self.retired else 0.0

    @property
    def avg_trace_size(self) -> float:
        """Mean instructions per trace cache fetch."""
        if not self.tc_fetches:
            return 0.0
        return self.tc_fetch_instructions / self.tc_fetches

    @property
    def pct_deps_critical(self) -> float:
        """Share of forwarded dependencies that are critical (Table 2)."""
        if not self.forwarded_inputs:
            return 0.0
        return self.critical_forwarded / self.forwarded_inputs

    @property
    def pct_critical_inter_trace(self) -> float:
        """Share of critical forwarded deps crossing traces (Table 2)."""
        if not self.critical_forwarded:
            return 0.0
        return self.critical_forwarded_inter_trace / self.critical_forwarded

    @property
    def pct_intra_cluster_forwarding(self) -> float:
        """Share of critical forwarding that stays in-cluster (Table 8a)."""
        if not self.critical_forwarded:
            return 0.0
        return self.critical_forwarded_intra_cluster / self.critical_forwarded

    @property
    def avg_forward_distance(self) -> float:
        """Mean clusters traversed by critical forwarded data (Table 8b)."""
        if not self.critical_forwarded:
            return 0.0
        return self.critical_forward_distance_sum / self.critical_forwarded

    def critical_source_breakdown(self) -> Dict[str, float]:
        """Figure 4 distribution: critical input from RF / RS1 / RS2."""
        total = self.critical_from_rf + self.critical_from_rs1 + self.critical_from_rs2
        if not total:
            return {"RF": 0.0, "RS1": 0.0, "RS2": 0.0}
        return {
            "RF": self.critical_from_rf / total,
            "RS1": self.critical_from_rs1 / total,
            "RS2": self.critical_from_rs2 / total,
        }

    def producer_repetition(self) -> Dict[str, float]:
        """Table 3 rates: producer repeats for RS1/RS2, all and inter-trace."""
        def rate(hits: int, checks: int) -> float:
            return hits / checks if checks else 0.0
        return {
            "all_rs1": rate(self.repeat_hits[0], self.repeat_checks[0]),
            "all_rs2": rate(self.repeat_hits[1], self.repeat_checks[1]),
            "inter_rs1": rate(self.repeat_hits_inter[0], self.repeat_checks_inter[0]),
            "inter_rs2": rate(self.repeat_hits_inter[1], self.repeat_checks_inter[1]),
        }

    @property
    def pct_migrating_intra_cluster(self) -> float:
        """Table 10: intra-cluster share of critical forwarding during
        cluster migration (instances executing on a new cluster)."""
        if not self.migrating_critical_forwarded:
            return 0.0
        return (self.migrating_critical_intra_cluster
                / self.migrating_critical_forwarded)

    @property
    def mispredict_rate(self) -> float:
        """Conditional-branch misprediction rate."""
        if not self.cond_branches:
            return 0.0
        return self.mispredicts / self.cond_branches

    # ------------------------------------------------------------------
    # Metrics export.
    # ------------------------------------------------------------------
    def publish(self, registry, prefix: str = "sim") -> None:
        """Publish every raw counter and derived metric into a
        :class:`repro.obs.MetricsRegistry` (the existing attribute and
        property shapes above are the source of truth; this is a view).
        """
        counter = registry.counter
        for name in (
            "cycles", "retired", "retired_from_tc",
            "tc_fetches", "tc_fetch_instructions",
            "cond_branches", "mispredicts",
            "forwarded_inputs", "critical_forwarded",
            "critical_forwarded_inter_trace",
            "critical_forwarded_intra_cluster",
            "critical_forward_distance_sum",
            "forwarded_hops", "forwarded_operands",
            "exec_migrations", "exec_instances",
            "migrating_critical_forwarded",
            "migrating_critical_intra_cluster",
        ):
            counter(f"{prefix}.{name}").inc(getattr(self, name))
        gauge = registry.gauge
        for name in (
            "ipc", "pct_tc_instructions", "avg_trace_size",
            "pct_deps_critical", "pct_critical_inter_trace",
            "pct_intra_cluster_forwarding", "avg_forward_distance",
            "pct_migrating_intra_cluster", "mispredict_rate",
        ):
            gauge(f"{prefix}.{name}").set(getattr(self, name))
        for source, share in self.critical_source_breakdown().items():
            gauge(f"{prefix}.critical_source", source=source).set(share)
        for key, rate in self.producer_repetition().items():
            gauge(f"{prefix}.producer_repetition", pair=key).set(rate)
