"""One execution cluster (paper Figure 3).

A cluster bundles five reservation stations and eight special-purpose
functional units behind an intra-cluster crossbar.  Results forward within
the cluster in the dispatch cycle (zero latency) and to other clusters via
the interconnect.  The cluster itself is policy-free: readiness and
completion are delegated to the pipeline, which knows about producers,
forwarding latencies and the memory system.

Select is event-driven.  A buffered instruction sits in exactly one of
four places until it dispatches:

``woken``
    accepted, or a producer it waited on has dispatched; the pipeline's
    ``wake`` callback evaluates it at the start of this cluster's next
    select, giving the cycle its operands arrive or ``None`` while a
    producer is still unscheduled (the pipeline then re-queues it when
    that producer dispatches);
``waiting``
    a heap of ``(ready_time, seq, inst)`` whose operands arrive later;
``candidates``
    operands arrived; asked ``is_ready`` (memory-port and store-order
    checks) every select until it dispatches;
``parked``
    a load held behind an older store with no address; :meth:`unpark`
    makes it a candidate again when a store dispatches.

So the cluster does work only for instructions whose state can change,
and an idle cluster costs nothing per cycle.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional

from repro.isa import DynInst, OpClass
from repro.cluster.functional_units import FunctionalUnit, make_cluster_units
from repro.cluster.reservation_station import ReservationStation

#: The stations in select-scan order.
_STATIONS = ("mem", "br", "cpx", "simple0", "simple1")

#: Which reservation station buffers each op class.
_RS_FOR_CLASS = {
    OpClass.INT_MEM: "mem",
    OpClass.FP_MEM: "mem",
    OpClass.BRANCH: "br",
    OpClass.COMPLEX_INT: "cpx",
    OpClass.COMPLEX_FP: "cpx",
    # SIMPLE_INT / SIMPLE_FP go to one of the two simple stations.
}


class Cluster:
    """Reservation stations + functional units of one cluster."""

    def __init__(self, cluster_id: int, rs_entries: int = 8,
                 rs_write_ports: int = 2) -> None:
        self.cluster_id = cluster_id
        self.stations: Dict[str, ReservationStation] = {
            name: ReservationStation(f"c{cluster_id}.{name}", rs_entries,
                                     rs_write_ports, rank)
            for rank, name in enumerate(_STATIONS)
        }
        self._station_for_class = {
            kind: self.stations[name] for kind, name in _RS_FOR_CLASS.items()
        }
        self._simple = (self.stations["simple0"], self.stations["simple1"])
        self.units: List[FunctionalUnit] = make_cluster_units()
        self._units_by_class: Dict[OpClass, List[FunctionalUnit]] = {}
        for unit in self.units:
            self._units_by_class.setdefault(unit.kind, []).append(unit)
        self._simple_toggle = 0
        self.woken: List[DynInst] = []
        self.waiting: list = []
        self.candidates: List[DynInst] = []
        self.parked: List[DynInst] = []

    # ------------------------------------------------------------------
    # Issue side.
    # ------------------------------------------------------------------
    def accept(self, inst: DynInst, now: int) -> bool:
        """Insert ``inst`` into its reservation station; False if full.

        An accepted instruction is woken: the next select evaluates it.
        Simple int/FP ops pick between the two simple stations, preferring
        the emptier one (ties broken by a toggle for balance).
        """
        station = self._station_for_class.get(inst.static.op_class)
        if station is not None:
            if not station.try_insert(inst, now):
                return False
        else:
            s0, s1 = self._simple
            toggle = self._simple_toggle
            if (len(s0.entries), toggle) > (len(s1.entries), 1 - toggle):
                s0, s1 = s1, s0
            if not (s0.try_insert(inst, now) or s1.try_insert(inst, now)):
                return False
            self._simple_toggle = toggle ^ 1
        self.woken.append(inst)
        return True

    def has_space(self, inst: DynInst, now: int) -> bool:
        """True if :meth:`accept` would take ``inst`` in cycle ``now``
        (pure: accounting and other read-only callers use it)."""
        station = self._station_for_class.get(inst.static.op_class)
        if station is not None:
            return station.can_insert(now)
        s0, s1 = self._simple
        return s0.can_insert(now) or s1.can_insert(now)

    # ------------------------------------------------------------------
    # Execute side.
    # ------------------------------------------------------------------
    def dispatch_cycle(
        self,
        now: int,
        wake: Callable[[DynInst], Optional[int]],
        is_ready: Callable[[DynInst, int], Optional[bool]],
        on_dispatch: Callable[[DynInst, FunctionalUnit, int], None],
    ) -> int:
        """Select and dispatch ready instructions onto free units.

        Woken entries are evaluated first (``wake``), then every entry
        whose operands have arrived by ``now`` is asked ``is_ready``:
        True dispatches it, False retries it next cycle and None parks it
        until :meth:`unpark`.  Ready instructions compete oldest-first for
        the free units of their class; classes take turns in the order
        their oldest ready entry appears in the station scan.  Returns
        the number of dispatches.
        """
        woken = self.woken
        waiting = self.waiting
        if woken:
            self.woken = []
            for inst in woken:
                ready = wake(inst)
                if ready is not None:
                    heappush(waiting, (ready, inst.seq, inst))
        candidates = self.candidates
        while waiting and waiting[0][0] <= now:
            candidates.append(heappop(waiting)[2])
        if not candidates:
            return 0
        held: List[DynInst] = []
        ready = []
        for inst in candidates:
            verdict = is_ready(inst, now)
            if verdict:
                ready.append((inst.station.rank, inst.seq, inst))
            elif verdict is None:
                self.parked.append(inst)
            else:
                held.append(inst)
        self.candidates = held
        if not ready:
            return 0
        # Group by class in scan order; each group oldest first.
        ready.sort()
        by_class: Dict[OpClass, list] = {}
        for _rank, seq, inst in ready:
            by_class.setdefault(inst.static.op_class, []).append((seq, inst))
        dispatched = 0
        for kind, group in by_class.items():
            group.sort()
            picked = 0
            for unit in self._units_by_class[kind]:
                if now >= unit.busy_until:
                    inst = group[picked][1]
                    inst.station.remove(inst)
                    on_dispatch(inst, unit, now)
                    picked += 1
                    if picked == len(group):
                        break
            dispatched += picked
            for _seq, inst in group[picked:]:
                held.append(inst)
        return dispatched

    def unpark(self) -> None:
        """Make every parked load a select candidate again."""
        self.candidates.extend(self.parked)
        self.parked.clear()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Total buffered instructions across all stations."""
        return sum([len(s.entries) for s in self.stations.values()])

    def clear(self) -> None:
        """Drop all buffered instructions (pipeline reset)."""
        for station in self.stations.values():
            station.clear()
        for unit in self.units:
            unit.busy_until = -1
        self.woken.clear()
        self.waiting.clear()
        self.candidates.clear()
        self.parked.clear()
