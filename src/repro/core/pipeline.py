"""Cycle-level timing model of the clustered trace cache processor.

One :class:`Pipeline` instance simulates the paper's Figure 2 pipeline:

    fetch(3) -> decode -> rename -> issue/steer -> RS dispatch -> execute
    -> writeback/forward -> retire -> fill unit

Modelling decisions (each mirrors the paper or is a standard trace-driven
approximation, see DESIGN.md):

* Trace-driven correct-path execution: mispredicted branches stall fetch
  until they resolve plus a redirect penalty instead of executing
  wrong-path instructions.
* Renaming links each source operand to its in-flight producer.  At issue
  the operand is classified *forwarded* (producer not yet retired) or
  *register file* (value already architectural, ready ``rf_latency``
  cycles after issue).
* An instruction wakes up in its cluster when every operand has arrived:
  forwarded values arrive ``hop_latency x distance`` cycles after the
  producer completes (zero within the cluster).  The operand arriving
  last is the **critical input** on which all of the paper's forwarding
  statistics are computed.
* Loads do not pass older stores with unresolved addresses (no
  speculative disambiguation), stores complete into the store buffer, and
  loads may forward from it.

The execute core is event-driven (DESIGN.md §5b).  A consumer is
evaluated when it issues and again only when the producer it waits for
dispatches and so fixes its completion cycle; a load held behind an older
store is re-checked only when a store dispatches; and :meth:`run` jumps
over cycles in which no stage can change state, charging them to cycle
accounting in one step.  The timing is the one a scan of every
reservation-station entry every cycle produces, cycle for cycle.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import repeat
from typing import Deque, Dict, List, Optional, Tuple

from repro.assign.base import AssignmentContext, StrategySpec, make_strategy
from repro.assign.issue_time import IssueTimeSteering
from repro.cluster.cluster import Cluster
from repro.cluster.config import MachineConfig
from repro.cluster.interconnect import Interconnect
from repro.core.accounting import CycleAccounting
from repro.core.fetch import FetchEngine, StreamCursor
from repro.core.stats import SimStats
from repro.isa import DynInst
from repro.isa.instruction import LeaderFollower
from repro.isa.registers import RegisterFile
from repro.memory.hierarchy import MemoryHierarchy
from repro.tracecache.fill_unit import FillUnit
from repro.tracecache.trace_cache import TraceCache
from repro.workloads.execution import FunctionalSimulator
from repro.workloads.program import Program

#: Cycles without a retirement before the simulator declares deadlock.
_WATCHDOG_CYCLES = 50_000

#: A cycle no simulation reaches: "no event scheduled".
_NEVER = 1 << 62


class Pipeline:
    """The assembled CTCP timing simulator."""

    def __init__(
        self,
        program: Program,
        config: MachineConfig,
        spec: StrategySpec,
        seed: Optional[int] = None,
    ) -> None:
        self.program = program
        self.config = config
        self.spec = spec
        self.stats = SimStats()
        self.interconnect = Interconnect(config)
        self.context = AssignmentContext(config, self.interconnect)
        self.memory = MemoryHierarchy(
            perfect=config.perfect_dcache,
            l1_size=config.l1d_size,
            l1_assoc=config.l1d_assoc,
            l1_latency=config.l1d_latency,
            l2_size=config.l2_size,
            l2_assoc=config.l2_assoc,
            l2_latency=config.l2_latency,
            memory_latency=config.memory_latency,
            mshrs=config.mshrs,
            dcache_ports=config.dcache_ports,
            tlb_entries=config.tlb_entries,
            tlb_assoc=config.tlb_assoc,
            tlb_miss_latency=config.tlb_miss_latency,
            store_buffer_entries=config.store_buffer_entries,
            load_queue_entries=config.load_queue_entries,
        )
        self.trace_cache = TraceCache(
            config.tc_entries, config.tc_assoc, config.tc_latency
        )
        self.strategy = make_strategy(spec, self.context)
        self.fill_unit = FillUnit(config, self.trace_cache, self.strategy)
        functional = FunctionalSimulator(program, seed=seed)
        self.cursor = StreamCursor(functional)
        self.fetch_engine = FetchEngine(
            config, self.cursor, self.trace_cache, self.memory.l2, self.stats
        )
        self.steerer = (
            IssueTimeSteering(self.context) if spec.kind == "issue" else None
        )
        self.clusters = [
            Cluster(i, config.rs_entries, config.rs_write_ports)
            for i in range(config.num_clusters)
        ]
        self.regfile = RegisterFile()
        #: Per-event taps: a tuple of
        #: :class:`repro.obs.tracer.PipelineObserver`, mirrored on
        #: ``fill_unit.observers``.  Empty (the default) costs one truth
        #: test per event; attach via ``observer.attach(pipeline)``.
        self.observers: Tuple = ()
        #: Periodic taps: ``[due, interval, callback]`` entries that
        #: :meth:`run` fires in list order once ``now >= due`` (see
        #: :meth:`schedule`).
        self.periodic: List[list] = []
        #: Always-on top-down cycle-loss attribution (read-only over the
        #: machine state, so it cannot perturb timing).
        self.accounting = CycleAccounting(config.width)
        self.rob: Deque[DynInst] = deque()
        self.frontend: Deque[Tuple[int, DynInst]] = deque()
        self._pending_stores: List[Tuple[int, DynInst]] = []
        self._inflight_stores = 0
        #: Chain-formation confidence: observations per candidate leader pc.
        self._chain_observations: Dict[int, int] = {}
        self.now = 0
        self._last_retire_cycle = 0
        #: Fetch cannot act before this cycle: set when a fetch returns
        #: nothing, from the fetch engine's own resume cycle (``_NEVER``
        #: while a mispredicted branch has not dispatched), and dropped
        #: when that branch dispatches.
        self._fetch_resume = 0
        self._frontend_depth = (
            config.fetch_stages
            + config.decode_stages
            + config.rename_stages
            + config.issue_stages
            + (spec.steer_latency if spec.kind == "issue" else 0)
        )
        mode = config.forward_latency_mode
        self._zero_all = mode == "zero_all"
        self._zero_critical = mode == "zero_critical"
        self._zero_intra = mode == "zero_intra_trace"
        self._zero_inter = mode == "zero_inter_trace"
        #: Forwarding costs ``hop_latency`` per hop (the other modes are
        #: Figure 5's latency-removal studies; see :meth:`_forward_latency`).
        self._per_hop = mode in ("normal", "zero_critical")

    # ------------------------------------------------------------------
    # Public driving interface.
    # ------------------------------------------------------------------
    def run(self, max_instructions: int) -> SimStats:
        """Simulate until ``max_instructions`` retire (or stream ends).

        Cycles in which no stage can change state are not stepped:
        ``now`` moves straight to the next event (see
        :meth:`_next_event`), clamped so periodic taps fire and the
        deadlock watchdog trips in exactly the cycles they would if
        every cycle were stepped.  A cycle after which a tap is due is
        stepped, so a tap due every cycle makes ``run`` step every
        cycle.
        """
        stats = self.stats
        target = stats.retired + max_instructions
        next_due = min((entry[0] for entry in self.periodic), default=_NEVER)
        while stats.retired < target:
            if not self.rob and self._drained():
                break
            now = self.now
            until = self._next_event(now)
            if until > now:
                # Never past a tap's due cycle or the watchdog's limit.
                until = min(until, next_due,
                            self._last_retire_cycle + _WATCHDOG_CYCLES + 1)
            if until > now + 1 or (until > now and next_due > until):
                self._idle(until)
            else:
                self.step()
            if self.now >= next_due:
                next_due = self._fire_periodic()
            if self.now - self._last_retire_cycle > _WATCHDOG_CYCLES:
                raise RuntimeError(
                    f"pipeline deadlock at cycle {self.now}: "
                    f"rob={len(self.rob)} frontend={len(self.frontend)}"
                )
        return stats

    def reset_stats(self) -> None:
        """Zero all statistics after warmup; machine state is preserved."""
        self.stats.reset()
        self.accounting.reset()
        self.fill_unit.reset_stats()
        self.strategy.reset_stats()
        self.fetch_engine.reset_stats()
        self.trace_cache.reset_stats()
        self.memory.reset_stats()

    def _drained(self) -> bool:
        return (
            not self.rob
            and not self.frontend
            and self.cursor.exhausted
        )

    def schedule(self, callback, interval: int, due: int,
                 first: bool = False) -> None:
        """Call ``callback(pipeline)`` from :meth:`run` after the first
        cycle with ``now >= due``, then every ``interval`` cycles.

        ``first`` fires it ahead of the taps already registered (an
        :class:`repro.obs.timeseries.IntervalRecorder` ahead of progress
        hooks).  Callbacks only *read* pipeline state: results stay
        byte-identical with any tap registered.
        """
        entry = [due, interval, callback]
        if first:
            self.periodic.insert(0, entry)
        else:
            self.periodic.append(entry)

    def unschedule(self, callback) -> None:
        """Remove the periodic taps that call ``callback``."""
        self.periodic[:] = [
            entry for entry in self.periodic if entry[2] is not callback]

    def _fire_periodic(self) -> int:
        """Fire every periodic tap that is due; return the next due."""
        now = self.now
        for entry in tuple(self.periodic):
            if now >= entry[0]:
                entry[0] = now + entry[1]
                entry[2](self)
        return min((entry[0] for entry in self.periodic), default=_NEVER)

    # ------------------------------------------------------------------
    # One cycle, and runs of cycles in which nothing happens.
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Simulate exactly one cycle."""
        now = self.now
        # Classified post-retire: the (new) ROB head is exactly the
        # instruction that blocked this cycle's unfilled retire slots.
        self.accounting.observe(self, self._retire(now))
        self._execute(now)
        self.fill_unit.tick(now)
        self._issue(now)
        self._fetch(now)
        self.stats.cycles += 1
        self.now = now + 1

    def _next_event(self, now: int) -> int:
        """The first cycle ``>= now`` in which some stage can act.

        ``now`` if retire, select, fill, issue or fetch has work this
        cycle.  Otherwise the machine is quiescent and the answer is the
        earliest of: the ROB head's completion, the next operand arrival
        in any cluster, the next fill-unit install, the front-end head's
        ready cycle (when the ROB has room) and the end of a fetch stall
        — ``_NEVER`` if none is scheduled.  Every other change is a
        consequence of one of these.
        """
        horizon = _NEVER
        rob = self.rob
        if rob:
            complete = rob[0].complete_cycle
            if complete >= 0:
                if complete <= now:
                    return now
                horizon = complete
        for cluster in self.clusters:
            if cluster.woken or cluster.candidates:
                return now
            waiting = cluster.waiting
            if waiting:
                ready = waiting[0][0]
                if ready <= now:
                    return now
                if ready < horizon:
                    horizon = ready
        frontend = self.frontend
        config = self.config
        if len(frontend) < 2 * config.width and not self.cursor.exhausted:
            resume = self._fetch_resume
            if resume <= now:
                resume = self.fetch_engine.resume_cycle(now)
                if resume is None:
                    resume = _NEVER
                elif resume <= now:
                    return now
            if resume < horizon:
                horizon = resume
        if frontend and len(rob) < config.rob_entries:
            ready, inst = frontend[0]
            if ready > now:
                if ready < horizon:
                    horizon = ready
            elif self._can_issue(inst, now):
                return now
        install = self.fill_unit.next_install()
        if install is not None:
            if install <= now:
                return now
            if install < horizon:
                horizon = install
        return horizon

    def _can_issue(self, inst: DynInst, now: int) -> bool:
        """True if the ready front-end head would issue in cycle ``now``
        (pure: steering is only evaluated, not applied)."""
        if not self._mem_slot_available(inst):
            return False
        if self.steerer is None:
            cluster_id = inst.slot_cluster
        else:
            loads = [cluster.occupancy for cluster in self.clusters]
            cluster_id = self.steerer.steer([inst], loads)[0]
            if cluster_id is None:
                return False
        return self.clusters[cluster_id].has_space(inst, now)

    def _idle(self, until: int) -> None:
        """Advance ``now`` to ``until`` over cycles in which no stage can
        change state: only the cycle count and cycle accounting move."""
        cycles = until - self.now
        self.accounting.observe_idle(self, cycles)
        self.stats.cycles += cycles
        self.now = until

    # ------------------------------------------------------------------
    # Retire.
    # ------------------------------------------------------------------
    def _retire(self, now: int) -> int:
        """Retire up to ``width`` completed instructions from the ROB
        head, in order; returns how many retired."""
        rob = self.rob
        if not rob:
            return 0
        head = rob[0]
        complete = head.complete_cycle
        if complete < 0 or complete > now:
            return 0
        width = self.config.width
        producers = self.regfile.producers
        fill_retire = self.fill_unit.retire
        observers = self.observers
        retired = from_tc = 0
        while True:
            rob.popleft()
            head.retire_cycle = now
            static = head.static
            dest = static.dest
            if dest is not None and producers[dest] is head:
                # Consumers renamed from now on read the register file.
                producers[dest] = None
            if static.is_store:
                self._inflight_stores -= 1
            fill_retire(head, now)
            if observers:
                for observer in observers:
                    observer.on_retire(head, now)
            from_tc += head.from_trace_cache
            retired += 1
            if retired == width or not rob:
                break
            following = rob[0]
            complete = following.complete_cycle
            if complete < 0 or complete > now:
                break
            head = following
        stats = self.stats
        stats.retired += retired
        stats.retired_from_tc += from_tc
        self.memory.retire_up_to(head.seq)
        self._last_retire_cycle = now
        return retired

    # ------------------------------------------------------------------
    # Execute.
    # ------------------------------------------------------------------
    def _execute(self, now: int) -> None:
        wake = self._wake
        is_ready = self._is_ready
        on_dispatch = self._on_dispatch
        for cluster in self.clusters:
            waiting = cluster.waiting
            if cluster.woken or cluster.candidates or (
                    waiting and waiting[0][0] <= now):
                cluster.dispatch_cycle(now, wake, is_ready, on_dispatch)

    def _wake(self, inst: DynInst) -> Optional[int]:
        """Evaluate a woken instruction: the cycle all of its operands
        have arrived in its cluster (also stored as ``ready_time``), or
        None when a forwarded producer has not dispatched yet — the
        instruction then waits on the first such producer and is woken
        again when it dispatches.

        A register-file operand arrives ``rf_latency`` cycles after
        issue, so an instruction without forwarded operands is settled
        without looking at a producer.
        """
        issue_cycle = inst.issue_cycle
        base = issue_cycle + 1
        forwarded = inst.src_forwarded
        if True not in forwarded:
            if forwarded:
                inst.critical_src = 0
                latest = issue_cycle + self.config.rf_latency
            else:
                inst.critical_src = -1
                latest = base
            inst.ready_time = ready = latest if latest > base else base
            return ready
        producers = inst.src_producers
        cluster = inst.cluster
        hops = self.interconnect.hops
        per_hop = self._per_hop
        hop_latency = self.interconnect.hop_latency
        # The last operand to arrive (the first of equals) is the
        # critical input.
        critical = latest = -1
        operands = travelled = 0
        for index, is_forwarded in enumerate(forwarded):
            if is_forwarded:
                producer = producers[index]
                complete = producer.complete_cycle
                if complete < 0:
                    inst.wait_producer = producer
                    waiters = producer.waiters
                    if waiters is None:
                        producer.waiters = [inst]
                    else:
                        waiters.append(inst)
                    return None
                distance = hops[producer.cluster][cluster]
                operands += 1
                travelled += distance
                if per_hop:
                    arrival = complete + distance * hop_latency
                else:
                    arrival = complete + self._forward_latency(producer, inst)
            else:
                arrival = issue_cycle + self.config.rf_latency
            if arrival > latest:
                critical, latest = index, arrival
        if self._zero_critical:
            critical, latest = self._zero_critical_arrival(inst)
        # Interconnect activity: every forwarded operand travels the
        # producer-to-consumer distance once (energy accounting).
        stats = self.stats
        stats.forwarded_operands += operands
        stats.forwarded_hops += travelled
        inst.critical_src = critical
        if forwarded[critical]:
            producer = producers[critical]
            inst.critical_forwarded = True
            inst.critical_producer = producer
            inst.critical_distance = hops[producer.cluster][cluster]
            inst.critical_inter_trace = (
                producer.trace_instance != inst.trace_instance
            )
        inst.ready_time = ready = latest if latest > base else base
        return ready

    def _zero_critical_arrival(self, inst: DynInst) -> Tuple[int, int]:
        """Figure 5 "No Crit Fwd Lat": ``(critical input, its arrival)``
        when the last-arriving *forwarded* value loses its forwarding
        latency (every forwarded producer has dispatched)."""
        producers = inst.src_producers
        forwarded = inst.src_forwarded
        hops = self.interconnect.hops
        rf_ready = inst.issue_cycle + self.config.rf_latency
        arrivals = []
        last_fwd = -1
        for index, producer in enumerate(producers):
            if forwarded[index]:
                arrival = producer.complete_cycle + (
                    hops[producer.cluster][inst.cluster]
                    * self.interconnect.hop_latency)
                if last_fwd < 0 or arrival > arrivals[last_fwd]:
                    last_fwd = index
            else:
                arrival = rf_ready
            arrivals.append(arrival)
        arrivals[last_fwd] = producers[last_fwd].complete_cycle
        critical = latest = -1
        for index, arrival in enumerate(arrivals):
            if arrival > latest:
                critical, latest = index, arrival
        return critical, latest

    def _is_ready(self, inst: DynInst, now: int) -> Optional[bool]:
        """Select-time check of an instruction whose operands have
        arrived: True if it may dispatch, False while no D-cache port is
        free this cycle, None for a load behind an older store with no
        address yet (no speculative disambiguation) — the cluster parks
        it until a store dispatches."""
        static = inst.static
        if not static.is_mem:
            return True
        if not self.memory.port_available(now):
            return False
        if static.is_load:
            heap = self._pending_stores
            while heap and heap[0][1].dispatch_cycle >= 0:
                heapq.heappop(heap)
            if heap and heap[0][0] < inst.seq:
                return None
        return True

    def _forward_latency(self, producer: DynInst, consumer: DynInst) -> int:
        if self._zero_all:
            return 0
        same_trace = producer.trace_instance == consumer.trace_instance
        if self._zero_intra and same_trace:
            return 0
        if self._zero_inter and not same_trace:
            return 0
        return self.interconnect.forward_latency(producer.cluster, consumer.cluster)

    def _on_dispatch(self, inst: DynInst, fu, now: int) -> None:
        inst.dispatch_cycle = now
        exec_latency = fu.dispatch(inst, now)
        static = inst.static
        if static.is_mem:
            mem_latency = self.memory.data_access(
                inst.seq, inst.mem_addr, static.is_store, now + exec_latency
            )
            inst.complete_cycle = now + exec_latency + mem_latency
            if static.is_store:
                # Loads parked behind this store's address re-check.
                for cluster in self.clusters:
                    if cluster.parked:
                        cluster.unpark()
        else:
            inst.complete_cycle = now + exec_latency
            if inst.mispredicted:
                # Fetch resumes once this branch resolves: ask again.
                self._fetch_resume = 0
        waiters = inst.waiters
        if waiters is not None:
            inst.waiters = None
            clusters = self.clusters
            for consumer in waiters:
                clusters[consumer.cluster].woken.append(consumer)
        self.stats.record_critical(inst, self.interconnect)
        observers = self.observers
        if observers:
            for observer in observers:
                observer.on_dispatch(inst, now)
        if self.strategy.uses_chains:
            self._chain_feedback(inst)

    # ------------------------------------------------------------------
    # FDRT chain feedback (Table 4).
    # ------------------------------------------------------------------
    def _chain_feedback(self, inst: DynInst) -> None:
        """Apply leader/follower marking when the critical input crossed
        a trace boundary (the Section 4.1 chaining mechanism)."""
        if not inst.critical_forwarded or not inst.critical_inter_trace:
            return
        producer = inst.critical_producer
        pinning = self.strategy.pinning
        producer_lf = producer.leader_follower
        if producer_lf == LeaderFollower.NONE:
            # Table 4 leader criteria: not already in a chain, forwards
            # data to an inter-trace consumer.  Pin to where it executed.
            # The profile fields live in trace cache storage, so marking
            # is only possible for instructions fetched from it —
            # I-cache-fetched instances have nowhere to keep the state.
            if not producer.from_trace_cache:
                return
            confidence = self.spec.chain_confidence
            if confidence > 1:
                pc = producer.static.pc
                seen = self._chain_observations.get(pc, 0) + 1
                self._chain_observations[pc] = seen
                if seen < confidence:
                    return
            producer.leader_follower = LeaderFollower.LEADER
            # Pin toward the middle: the paper funnels producers of
            # downstream consumers to the middle clusters to bound
            # worst-case forwarding distances, so a fresh chain anchors
            # on the middle cluster nearest to where the leader ran.
            middles = self.config.middle_clusters
            producer.chain_cluster = min(
                middles,
                key=lambda m: self.interconnect.distance(producer.cluster, m),
            )
            self._persist_profile(producer)
        elif not pinning and producer_lf == LeaderFollower.LEADER:
            # Without pinning the chain target drifts with execution.
            if producer.chain_cluster != producer.cluster:
                producer.chain_cluster = producer.cluster
                self._persist_profile(producer)
        if producer.chain_cluster < 0 or not inst.from_trace_cache:
            return
        consumer_lf = inst.leader_follower
        if consumer_lf == LeaderFollower.NONE:
            # Table 4 follower criteria: not already in a chain; producer
            # is a chain member from a different trace supplying the last
            # input (all established above).
            inst.leader_follower = LeaderFollower.FOLLOWER
            inst.chain_cluster = producer.chain_cluster
            self._persist_profile(inst)
        elif not pinning and inst.chain_cluster != producer.chain_cluster:
            # Unpinned chains may be re-joined to any chain, including
            # demoting a leader to a follower — the instability Table 9
            # measures.
            inst.leader_follower = LeaderFollower.FOLLOWER
            inst.chain_cluster = producer.chain_cluster
            self._persist_profile(inst)

    def _persist_profile(self, inst: DynInst) -> None:
        if inst.from_trace_cache and inst.trace_key is not None:
            self.trace_cache.update_profile(
                inst.trace_key,
                inst.slot_in_packet,
                chain_cluster=inst.chain_cluster,
                leader_follower=inst.leader_follower,
            )

    # ------------------------------------------------------------------
    # Issue.
    # ------------------------------------------------------------------
    def _issue(self, now: int) -> None:
        frontend = self.frontend
        if not frontend or frontend[0][0] > now:
            return
        config = self.config
        rob_space = config.rob_entries - len(self.rob)
        if rob_space <= 0:
            return
        width = min(config.width, rob_space)
        if self.steerer is not None:
            self._issue_steered(now, width)
            return
        cap = config.max_issue_per_cluster
        issued_per_cluster = [0] * config.num_clusters
        mem_slot_available = self._mem_slot_available
        issue_one = self._issue_one
        issued = 0
        inst = frontend[0][1]
        while True:
            cluster_id = inst.slot_cluster
            count = issued_per_cluster[cluster_id]
            if count >= cap:
                break
            if inst.static.is_mem and not mem_slot_available(inst):
                break
            if not issue_one(inst, cluster_id, now):
                break
            frontend.popleft()
            issued_per_cluster[cluster_id] = count + 1
            issued += 1
            if issued == width or not frontend:
                break
            ready, inst = frontend[0]
            if ready > now:
                break

    def _issue_steered(self, now: int, width: int) -> None:
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
            if inst.static.is_mem and not self._mem_slot_available(inst):
                break
            if not self._issue_one(inst, cluster_id, now):
                break
            frontend.popleft()

    def _mem_slot_available(self, inst: DynInst) -> bool:
        """Issue-time LSQ allocation (program order, freed at retire)."""
        static = inst.static
        if static.is_load:
            return not self.memory.load_queue.full
        if static.is_store:
            return self._inflight_stores < self.memory.store_buffer.capacity
        return True

    def _issue_one(self, inst: DynInst, cluster_id: int, now: int) -> bool:
        """Issue ``inst`` into cluster ``cluster_id``; False (and nothing
        changes) when its reservation station cannot take it this cycle.

        While a producer has not dispatched, the instruction cannot know
        when its operands arrive: it waits on the first such producer
        from issue on, and :meth:`_on_dispatch` wakes it, instead of
        being woken for a select that could only find that out.
        """
        producers = inst.src_producers
        blocker = None
        for producer in producers:
            if producer is not None and producer.complete_cycle < 0:
                blocker = producer
                break
        if not self.clusters[cluster_id].accept(inst, now, blocker is None):
            return False
        inst.issue_cycle = now
        inst.cluster = cluster_id
        if blocker is not None:
            inst.wait_producer = blocker
            waiters = blocker.waiters
            if waiters is None:
                blocker.waiters = [inst]
            else:
                waiters.append(inst)
        if producers:
            # An operand is forwarded while its producer has not retired
            # (retire runs before issue, so "retired" means by now).  An
            # instruction has at most two sources.
            record = self.stats.record_forwarded_input
            pc = inst.static.pc
            producer = producers[0]
            first = producer is not None and producer.retire_cycle < 0
            if first:
                record(pc, 0, producer.static.pc)
            if len(producers) == 1:
                inst.src_forwarded = (first,)
            else:
                producer = producers[1]
                second = producer is not None and producer.retire_cycle < 0
                if second:
                    record(pc, 1, producer.static.pc)
                inst.src_forwarded = (first, second)
        static = inst.static
        if static.is_mem:
            if static.is_store:
                heapq.heappush(self._pending_stores, (inst.seq, inst))
                self._inflight_stores += 1
            else:
                self.memory.load_queue.insert(inst.seq)
        self.rob.append(inst)
        return True

    # ------------------------------------------------------------------
    # Fetch / decode / rename.
    # ------------------------------------------------------------------
    def _fetch(self, now: int) -> None:
        frontend = self.frontend
        if now < self._fetch_resume or len(frontend) >= 2 * self.config.width:
            return
        packet, extra_delay = self.fetch_engine.fetch(now)
        if not packet:
            resume = self.fetch_engine.resume_cycle(now)
            self._fetch_resume = _NEVER if resume is None else resume
            return
        observers = self.observers
        if observers:
            for observer in observers:
                observer.on_fetch(packet, now)
        producers = self.regfile.producers
        for inst in packet:
            static = inst.static
            srcs = static.srcs
            if srcs:
                if len(srcs) == 1:
                    inst.src_producers = (producers[srcs[0]],)
                else:
                    inst.src_producers = (
                        producers[srcs[0]], producers[srcs[1]])
            dest = static.dest
            if dest is not None:
                producers[dest] = inst
        frontend.extend(
            zip(repeat(now + self._frontend_depth + extra_delay), packet))
