"""Slow reference model of the pipeline's scheduler (test-only oracle).

:class:`ReferencePipeline` is the clustered pipeline as it was before the
execute core became event-driven.  Every cycle it asks every buffered
reservation-station entry whether it is ready, and :meth:`run` simulates
one cycle per loop iteration.  It shares only the constructed machine
components with :class:`~repro.core.pipeline.Pipeline` (trace cache, fill
unit, fetch engine, memory, the clusters' stations and units, register
file, statistics and cycle accounting); every stage of the cycle — retire,
execute, issue, fetch and the wake-up arithmetic — is a frozen copy kept
here, so a change to the real scheduler cannot also change its oracle.

The differential tests in ``tests/test_pipeline_fuzz.py`` require the
real pipeline to reproduce this model's per-instruction issue, ready,
dispatch, complete and retire cycles, its ``SimResult`` and its cycle
accounting exactly.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.core.pipeline import Pipeline
from repro.isa import DynInst, OpClass

#: Cycles without a retirement before the reference declares deadlock.
_WATCHDOG_CYCLES = 50_000

_NEVER = 1 << 62

#: Station scan order and the station that buffers each op class.
_STATIONS = ("mem", "br", "cpx", "simple0", "simple1")
_RS_FOR_CLASS = {
    OpClass.INT_MEM: "mem",
    OpClass.FP_MEM: "mem",
    OpClass.BRANCH: "br",
    OpClass.COMPLEX_INT: "cpx",
    OpClass.COMPLEX_FP: "cpx",
}


class ReferencePipeline(Pipeline):
    """Scan-every-entry scheduler, one :meth:`step` per simulated cycle."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._ref_pending_stores: List[Tuple[int, DynInst]] = []
        self._ref_inflight_stores = 0
        self._ref_toggle = [0] * len(self.clusters)

    # ------------------------------------------------------------------
    # Driving loop.
    # ------------------------------------------------------------------
    def run(self, max_instructions: int):
        target = self.stats.retired + max_instructions
        next_due = min((entry[0] for entry in self.periodic), default=_NEVER)
        while self.stats.retired < target:
            if self._drained():
                break
            self.step()
            if self.now >= next_due:
                next_due = self._fire_periodic()
            if self.now - self._last_retire_cycle > _WATCHDOG_CYCLES:
                raise RuntimeError(
                    f"pipeline deadlock at cycle {self.now}: "
                    f"rob={len(self.rob)} frontend={len(self.frontend)}"
                )
        return self.stats

    def step(self) -> None:
        now = self.now
        retired_before = self.stats.retired
        self._retire(now)
        self.accounting.observe(self, self.stats.retired - retired_before)
        self._execute(now)
        self.fill_unit.tick(now)
        self._issue(now)
        self._fetch(now)
        self.stats.cycles += 1
        self.now = now + 1

    # ------------------------------------------------------------------
    # Retire.
    # ------------------------------------------------------------------
    def _retire(self, now: int) -> None:
        rob = self.rob
        retired = 0
        last_seq = -1
        width = self.config.width
        observers = self.observers
        while rob and retired < width:
            head = rob[0]
            if head.complete_cycle < 0 or head.complete_cycle > now:
                break
            rob.popleft()
            head.retire_cycle = now
            dest = head.static.dest
            if dest is not None:
                self.regfile.clear_producer(dest, head)
            if head.static.is_store:
                self._ref_inflight_stores -= 1
            self.fill_unit.retire(head, now)
            if observers:
                for observer in observers:
                    observer.on_retire(head, now)
            self.stats.retired += 1
            if head.from_trace_cache:
                self.stats.retired_from_tc += 1
            last_seq = head.seq
            retired += 1
        if retired:
            self.memory.retire_up_to(last_seq)
            self._last_retire_cycle = now

    # ------------------------------------------------------------------
    # Execute: every entry of every station is asked every cycle.
    # ------------------------------------------------------------------
    def _execute(self, now: int) -> None:
        for cluster in self.clusters:
            self._dispatch_cycle(cluster, now)

    def _dispatch_cycle(self, cluster, now: int) -> int:
        ready_by_class: dict = {}
        for name in _STATIONS:
            station = cluster.stations[name]
            for inst in list(station.entries):
                if self._ref_is_ready(inst, now):
                    bucket = ready_by_class.setdefault(inst.static.op_class, [])
                    bucket.append((inst.seq, inst, station))
        dispatched = 0
        for kind, candidates in ready_by_class.items():
            free_units = [unit for unit in cluster.units
                          if unit.kind == kind and now >= unit.busy_until]
            if not free_units:
                continue
            candidates.sort(key=lambda entry: entry[0])
            for unit, (_seq, inst, station) in zip(free_units, candidates):
                station.entries.remove(inst)
                self._ref_on_dispatch(inst, unit, now)
                dispatched += 1
        return dispatched

    def _ref_is_ready(self, inst: DynInst, now: int) -> bool:
        ready = inst.ready_time
        if ready is None:
            blocker = inst.wait_producer
            if blocker is not None and blocker.complete_cycle < 0:
                return False
            ready = self._ref_compute_ready(inst)
            if ready is None:
                return False
            inst.ready_time = ready
        if ready > now:
            return False
        static = inst.static
        if static.is_mem:
            if not self.memory.port_available(now):
                return False
            if static.is_load and self._ref_oldest_pending_store() < inst.seq:
                return False
        return True

    def _ref_oldest_pending_store(self) -> int:
        heap = self._ref_pending_stores
        while heap and heap[0][1].dispatch_cycle >= 0:
            heapq.heappop(heap)
        return heap[0][0] if heap else _NEVER

    def _ref_forward_latency(self, producer: DynInst, consumer: DynInst) -> int:
        mode = self.config.forward_latency_mode
        if mode == "zero_all":
            return 0
        same_trace = producer.trace_instance == consumer.trace_instance
        if mode == "zero_intra_trace" and same_trace:
            return 0
        if mode == "zero_inter_trace" and not same_trace:
            return 0
        return self.interconnect.forward_latency(
            producer.cluster, consumer.cluster)

    def _ref_compute_ready(self, inst: DynInst) -> Optional[int]:
        issue_cycle = inst.issue_cycle
        base = issue_cycle + 1
        producers = inst.src_producers
        if not producers:
            inst.critical_src = -1
            return base
        forwarded = inst.src_forwarded
        rf_ready = issue_cycle + self.config.rf_latency
        arrivals: List[int] = []
        for i, producer in enumerate(producers):
            if forwarded[i]:
                complete = producer.complete_cycle
                if complete < 0:
                    inst.wait_producer = producer
                    return None
                arrivals.append(
                    complete + self._ref_forward_latency(producer, inst))
            else:
                arrivals.append(rf_ready)
        critical = max(range(len(arrivals)), key=arrivals.__getitem__)
        if self.config.forward_latency_mode == "zero_critical":
            fwd_indices = [i for i in range(len(arrivals)) if forwarded[i]]
            if fwd_indices:
                last_fwd = max(fwd_indices, key=arrivals.__getitem__)
                arrivals[last_fwd] = producers[last_fwd].complete_cycle
                critical = max(range(len(arrivals)), key=arrivals.__getitem__)
        stats = self.stats
        for i, producer in enumerate(producers):
            if forwarded[i]:
                stats.forwarded_operands += 1
                stats.forwarded_hops += self.interconnect.distance(
                    producer.cluster, inst.cluster)
        inst.critical_src = critical
        if forwarded[critical]:
            producer = producers[critical]
            inst.critical_forwarded = True
            inst.critical_producer = producer
            inst.critical_distance = self.interconnect.distance(
                producer.cluster, inst.cluster)
            inst.critical_inter_trace = (
                producer.trace_instance != inst.trace_instance)
        return max(base, max(arrivals))

    def _ref_on_dispatch(self, inst: DynInst, fu, now: int) -> None:
        inst.dispatch_cycle = now
        exec_latency = fu.dispatch(inst, now)
        static = inst.static
        if static.is_mem:
            mem_latency = self.memory.data_access(
                inst.seq, inst.mem_addr, static.is_store, now + exec_latency)
            inst.complete_cycle = now + exec_latency + mem_latency
        else:
            inst.complete_cycle = now + exec_latency
        self.stats.record_critical(inst, self.interconnect)
        observers = self.observers
        if observers:
            for observer in observers:
                observer.on_dispatch(inst, now)
        if self.strategy.uses_chains:
            self._chain_feedback(inst)

    # ------------------------------------------------------------------
    # Issue.
    # ------------------------------------------------------------------
    def _issue(self, now: int) -> None:
        frontend = self.frontend
        if not frontend:
            return
        rob_space = self.config.rob_entries - len(self.rob)
        if rob_space <= 0:
            return
        width = min(self.config.width, rob_space)
        if self.steerer is not None:
            self._ref_issue_steered(now, width)
            return
        cap = self.config.max_issue_per_cluster
        issued_per_cluster = [0] * self.config.num_clusters
        issued = 0
        while frontend and issued < width:
            ready, inst = frontend[0]
            if ready > now:
                break
            cluster_id = inst.slot_cluster
            if issued_per_cluster[cluster_id] >= cap:
                break
            if not self._ref_mem_slot_available(inst):
                break
            if not self._ref_accept(cluster_id, inst, now):
                break
            frontend.popleft()
            self._ref_note_issue(inst, cluster_id, now)
            issued_per_cluster[cluster_id] += 1
            issued += 1

    def _ref_issue_steered(self, now: int, width: int) -> None:
        frontend = self.frontend
        window: List[DynInst] = []
        for ready, inst in frontend:
            if ready > now or len(window) >= width:
                break
            window.append(inst)
        if not window:
            return
        loads = [cluster.occupancy for cluster in self.clusters]
        choices = self.steerer.steer(window, loads)
        for inst, cluster_id in zip(window, choices):
            if cluster_id is None:
                break
            if not self._ref_mem_slot_available(inst):
                break
            if not self._ref_accept(cluster_id, inst, now):
                break
            frontend.popleft()
            self._ref_note_issue(inst, cluster_id, now)

    def _ref_mem_slot_available(self, inst: DynInst) -> bool:
        static = inst.static
        if static.is_load:
            return not self.memory.load_queue.full
        if static.is_store:
            return self._ref_inflight_stores < self.memory.store_buffer.capacity
        return True

    # The accounting classifier asks the pipeline; answer from this
    # model's own store count.
    _mem_slot_available = _ref_mem_slot_available

    def _ref_accept(self, cluster_id: int, inst: DynInst, now: int) -> bool:
        cluster = self.clusters[cluster_id]
        name = _RS_FOR_CLASS.get(inst.static.op_class)
        station = None
        if name is not None:
            candidate = cluster.stations[name]
            if candidate.can_insert(now):
                station = candidate
        else:
            toggle = self._ref_toggle[cluster_id]
            s0 = cluster.stations["simple0"]
            s1 = cluster.stations["simple1"]
            first, second = (
                (s0, s1) if (len(s0), toggle) <= (len(s1), 1 - toggle)
                else (s1, s0))
            for candidate in (first, second):
                if candidate.can_insert(now):
                    self._ref_toggle[cluster_id] = toggle ^ 1
                    station = candidate
                    break
        if station is None:
            return False
        station.insert(inst, now)
        return True

    def _ref_note_issue(self, inst: DynInst, cluster_id: int, now: int) -> None:
        inst.issue_cycle = now
        inst.cluster = cluster_id
        producers = inst.src_producers
        if producers:
            flags = []
            for i, producer in enumerate(producers):
                forwarded = (
                    producer is not None
                    and (producer.retire_cycle < 0
                         or producer.retire_cycle > now))
                flags.append(forwarded)
                if forwarded:
                    self.stats.record_forwarded_input(
                        inst.static.pc, i, producer.static.pc)
            inst.src_forwarded = tuple(flags)
        if inst.static.is_store:
            heapq.heappush(self._ref_pending_stores, (inst.seq, inst))
            self._ref_inflight_stores += 1
        elif inst.static.is_load:
            self.memory.load_queue.insert(inst.seq)
        self.rob.append(inst)

    # ------------------------------------------------------------------
    # Fetch / decode / rename.
    # ------------------------------------------------------------------
    def _fetch(self, now: int) -> None:
        if len(self.frontend) >= 2 * self.config.width:
            return
        packet, extra_delay = self.fetch_engine.fetch(now)
        if not packet:
            return
        observers = self.observers
        if observers:
            for observer in observers:
                observer.on_fetch(packet, now)
        ready = now + self._frontend_depth + extra_delay
        regfile = self.regfile
        for inst in packet:
            srcs = inst.static.srcs
            if srcs:
                inst.src_producers = tuple(
                    regfile.producer(reg) for reg in srcs)
            dest = inst.static.dest
            if dest is not None:
                regfile.set_producer(dest, inst)
            self.frontend.append((ready, inst))
