"""Top-down cycle-loss accounting for the clustered pipeline.

Every cycle the machine has ``width`` retire slots; the IPC gap versus
the ideal-width machine is exactly the stream of slots that did not
retire.  :class:`CycleAccounting` attributes each lost slot, cycle by
cycle, to the *blocker*: the ROB head when the window is occupied, the
front end when it is not.  The result is a per-cluster, per-category
cycle-loss model whose categories sum to ``width x cycles - retired``
**by construction**, so per-benchmark attribution always decomposes the
measured IPC gap exactly (the property ``repro analyze`` reports and CI
asserts).

Categories (:data:`CYCLE_LOSS_CATEGORIES`):

``fetch_starve``
    ROB empty and the front end supplied nothing issueable (stream
    drain, I-cache miss, pipeline refill after a redirect).
``mispredict_flush``
    ROB empty while fetch is stalled on an unresolved mispredicted
    branch plus its redirect penalty.
``rs_full``
    ROB empty with an issueable instruction blocked by back-pressure:
    the target cluster's reservation stations (or the LSQ) cannot
    accept it.  Attributed to the blocked *cluster*.
``operand_wait_local``
    ROB head waiting on an operand whose producer lives in the same
    cluster (producer execution latency, register-file read).
``operand_wait_inter``
    ROB head waiting on an operand crossing clusters — the
    inter-cluster communication latency the paper's placement policies
    exist to avoid.  Attributed to the consumer's cluster.
``fu_contention``
    ROB head ready for more than a cycle but no functional unit /
    dispatch slot of its class was free.
``exec_latency`` / ``mem_latency``
    ROB head dispatched and executing (non-memory / memory).

Attribution is head-blocker based: all ``width - retired`` lost slots
of a cycle go to the one category blocking the head.  The accountant
never mutates machine state (it uses only pure inspection helpers), so
an accounted run is cycle-identical to an unaccounted one.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Tuple

#: Cycle-loss categories, in report order.
CYCLE_LOSS_CATEGORIES = (
    "fetch_starve",
    "mispredict_flush",
    "rs_full",
    "operand_wait_local",
    "operand_wait_inter",
    "fu_contention",
    "exec_latency",
    "mem_latency",
)

#: Pseudo-cluster key for losses with no owning cluster (front end).
FRONTEND = "frontend"


class CycleAccounting:
    """Accumulates lost retire slots per ``(cluster, category)``."""

    __slots__ = ("width", "cycles", "retired_slots", "counts")

    def __init__(self, width: int) -> None:
        self.width = width
        self.reset()

    def reset(self) -> None:
        """Zero the accounting window (used at the warmup boundary)."""
        self.cycles = 0
        self.retired_slots = 0
        self.counts: Counter = Counter()

    # ------------------------------------------------------------------
    # Per-cycle recording (called by the pipeline after retire).
    # ------------------------------------------------------------------
    def observe(self, pipeline, retired: int) -> None:
        """Attribute this cycle's ``width - retired`` lost slots."""
        self.cycles += 1
        self.retired_slots += retired
        lost = self.width - retired
        if lost <= 0:
            return
        self.counts[self._classify(pipeline)] += lost

    def observe_idle(self, pipeline, cycles: int) -> None:
        """Charge ``cycles`` consecutive cycles in which nothing retires.

        The pipeline skips a span only while no stage can change state,
        so the blocker :meth:`_classify` finds at its first cycle blocks
        every cycle of it: this equals ``cycles`` calls of
        ``observe(pipeline, 0)``.
        """
        self.cycles += cycles
        self.counts[self._classify(pipeline)] += self.width * cycles

    def _classify(self, pipeline) -> Tuple[str, str]:
        """(cluster key, category) blocking the ROB head this cycle.

        Runs right after retire: the head (if any) is exactly the
        instruction that stopped the remaining slots.
        """
        rob = pipeline.rob
        now = pipeline.now
        if rob:
            head = rob[0]
            cluster = str(head.cluster)
            if head.dispatch_cycle >= 0:
                if head.static.is_mem:
                    return cluster, "mem_latency"
                return cluster, "exec_latency"
            ready = head.ready_time
            if ready is not None:
                if ready < now:
                    # Ready for at least a full cycle without a unit.
                    return cluster, "fu_contention"
                return cluster, self._operand_category(head)
            producer = head.wait_producer
            if producer is not None and producer.cluster >= 0 \
                    and producer.cluster != head.cluster:
                return cluster, "operand_wait_inter"
            return cluster, "operand_wait_local"
        # ROB empty: the front end owns every lost slot.
        if pipeline.fetch_engine.stall_kind(now) == "mispredict":
            return FRONTEND, "mispredict_flush"
        frontend = pipeline.frontend
        if frontend:
            ready, inst = frontend[0]
            if ready <= now:
                cluster_id = inst.slot_cluster
                if (not pipeline.clusters[cluster_id].has_space(inst, now)
                        or not pipeline._mem_slot_available(inst)):
                    return str(cluster_id), "rs_full"
        return FRONTEND, "fetch_starve"

    @staticmethod
    def _operand_category(head) -> str:
        """Local vs inter-cluster wait once arrival times are known."""
        if head.critical_forwarded and head.critical_distance > 0:
            return "operand_wait_inter"
        return "operand_wait_local"

    # ------------------------------------------------------------------
    # Views.
    # ------------------------------------------------------------------
    def lost_slots(self) -> int:
        """Total retire slots lost over the window."""
        return sum(self.counts.values())

    def by_category(self) -> Dict[str, int]:
        """Lost slots per category, summed across clusters."""
        totals = {category: 0 for category in CYCLE_LOSS_CATEGORIES}
        for (_cluster, category), slots in self.counts.items():
            totals[category] += slots
        return totals

    def to_dict(self) -> Dict[str, Dict[str, int]]:
        """``{cluster: {category: lost slots}}`` (JSON-serialisable).

        Clusters appear as decimal strings plus the ``frontend`` pseudo
        cluster; only non-zero cells are present.
        """
        nested: Dict[str, Dict[str, int]] = {}
        for (cluster, category), slots in sorted(self.counts.items()):
            nested.setdefault(cluster, {})[category] = slots
        return nested

    def ipc_loss(self) -> Dict[str, float]:
        """IPC lost per category (lost slots per cycle); sums to the gap
        between the ideal-width IPC and the achieved IPC exactly."""
        cycles = self.cycles or 1
        return {category: slots / cycles
                for category, slots in self.by_category().items()}

    def publish(self, registry, prefix: str = "accounting") -> None:
        """Publish into a :class:`repro.obs.MetricsRegistry`."""
        for (cluster, category), slots in self.counts.items():
            registry.counter(
                f"{prefix}.lost_slots", cluster=cluster, category=category,
            ).inc(slots)
        for category, loss in self.ipc_loss().items():
            registry.gauge(
                f"{prefix}.ipc_loss", category=category).set(loss)

    def render(self) -> str:
        """Human-readable per-category IPC-loss table."""
        cycles = self.cycles or 1
        ipc = self.retired_slots / cycles
        gap = self.width - ipc
        lines = [
            f"top-down cycle accounting over {self.cycles} cycles "
            f"(IPC {ipc:.3f} of ideal {self.width}, gap {gap:.3f}):"
        ]
        losses = self.ipc_loss()
        for category in CYCLE_LOSS_CATEGORIES:
            loss = losses[category]
            share = loss / gap if gap else 0.0
            lines.append(
                f"  {category:<20} {loss:>7.3f} IPC  ({share:>6.1%} of gap)"
            )
        return "\n".join(lines)
