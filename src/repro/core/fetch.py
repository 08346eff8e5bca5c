"""Instruction fetch: trace cache path with L1 I-cache fallback.

Trace-driven timing model: the committed dynamic stream (from the
functional simulator) is consumed through a :class:`StreamCursor`, and the
fetch engine decides, per packet, whether the trace cache or the I-cache
supplies the instructions, which branch predictions are made, and where
mispredictions interrupt fetch.  Wrong-path instructions are not executed;
a misprediction blocks fetch until the branch resolves plus a redirect
penalty, which is the standard trace-driven approximation.

Multiple-branch prediction for trace selection follows the trace cache
literature: the predictor supplies directions for the (up to two) internal
conditional branches, and the candidate line whose embedded path matches
is fetched.  If the fetched path later diverges from the committed stream,
the divergent branch is a misprediction and the packet is truncated there.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.isa import BranchKind, DynInst
from repro.cluster.config import MachineConfig
from repro.core.stats import SimStats
from repro.frontend import BranchTargetBuffer, HybridPredictor, ReturnAddressStack
from repro.memory.cache import Cache
from repro.tracecache.trace import TraceLine
from repro.tracecache.trace_cache import TraceCache
from repro.workloads.execution import FunctionalSimulator


class StreamCursor:
    """Buffered lookahead over the committed instruction stream."""

    def __init__(self, source: FunctionalSimulator) -> None:
        self._source = source
        self._buffer: List[DynInst] = []
        self._exhausted = False

    def peek(self, index: int) -> Optional[DynInst]:
        """The ``index``-th not-yet-fetched instruction, or ``None``."""
        while len(self._buffer) <= index and not self._exhausted:
            inst = self._source.step()
            if inst is None:
                self._exhausted = True
                break
            self._buffer.append(inst)
        if index < len(self._buffer):
            return self._buffer[index]
        return None

    def window(self, count: int) -> List[DynInst]:
        """The next ``count`` not-yet-fetched instructions (fewer at the
        end of the stream), in one slice."""
        buffer = self._buffer
        missing = count - len(buffer)
        if missing > 0 and not self._exhausted:
            step = self._source.step
            append = buffer.append
            for _ in range(missing):
                inst = step()
                if inst is None:
                    self._exhausted = True
                    break
                append(inst)
        return buffer[:count]

    def advance(self, count: int) -> None:
        """Consume ``count`` instructions."""
        del self._buffer[:count]

    @property
    def exhausted(self) -> bool:
        """True once the source produced its last instruction."""
        return self._exhausted and not self._buffer


class FetchEngine:
    """Trace cache + I-cache fetch with branch prediction."""

    def __init__(
        self,
        config: MachineConfig,
        cursor: StreamCursor,
        trace_cache: TraceCache,
        icache_next_level,
        stats: SimStats,
    ) -> None:
        self.config = config
        self.cursor = cursor
        self.trace_cache = trace_cache
        self.stats = stats
        self.predictor = HybridPredictor(config.predictor_entries)
        self.btb = BranchTargetBuffer(config.btb_entries, config.btb_assoc)
        self.ras = ReturnAddressStack(config.ras_depth)
        self.icache = Cache(
            "L1I", config.icache_size, config.icache_assoc,
            config.icache_line, config.icache_latency, icache_next_level,
            mshrs=4,
        )
        self._packet_counter = 0
        self._blocked_branch: Optional[DynInst] = None
        self._blocked_until = 0
        #: Partial-match fetches (only with ``tc_partial_matching``).
        self.partial_hits = 0

    # ------------------------------------------------------------------
    def blocked(self, now: int) -> bool:
        """True while fetch is stalled on a misprediction or cache miss."""
        branch = self._blocked_branch
        if branch is not None:
            resolve = branch.complete_cycle
            if resolve >= 0 and now >= resolve + self.config.redirect_penalty:
                self._blocked_branch = None
            else:
                return True
        return now < self._blocked_until

    def stall_kind(self, now: int) -> Optional[str]:
        """Why fetch is stalled right now, without touching state.

        ``'mispredict'`` while an unresolved mispredicted branch (plus
        its redirect penalty) blocks fetch, ``'icache_miss'`` while the
        front end waits on an instruction line, else ``None``.  Pure —
        unlike :meth:`blocked`, which clears resolved redirects — so
        cycle accounting can classify front-end stalls mid-cycle.
        """
        branch = self._blocked_branch
        if branch is not None:
            resolve = branch.complete_cycle
            if resolve < 0 or now < resolve + self.config.redirect_penalty:
                return "mispredict"
        if now < self._blocked_until:
            return "icache_miss"
        return None

    def resume_cycle(self, now: int) -> Optional[int]:
        """First cycle ``>= now`` in which fetch is not stalled (pure).

        ``None`` while an unresolved mispredicted branch blocks fetch:
        its resolve cycle is not known until it dispatches.
        """
        until = self._blocked_until
        branch = self._blocked_branch
        if branch is not None:
            resolve = branch.complete_cycle
            if resolve < 0:
                return None
            until = max(until, resolve + self.config.redirect_penalty)
        return until if until > now else now

    def fetch(self, now: int) -> Tuple[List[DynInst], int]:
        """Fetch one packet; returns (instructions, extra_ready_delay).

        The empty packet means fetch produced nothing this cycle (blocked
        or stream exhausted).  ``extra_ready_delay`` is additional
        front-end latency beyond the standard stages (I-cache misses).
        """
        if self.blocked(now):
            return [], 0
        head = self.cursor.peek(0)
        if head is None:
            return [], 0
        line, prefix = self._select_trace_line(head.static.pc)
        self.trace_cache.record_fetch(line)
        if line is not None:
            return self._fetch_from_trace(line, now, prefix), 0
        return self._fetch_from_icache(now)

    # ------------------------------------------------------------------
    # Trace cache path.
    # ------------------------------------------------------------------
    def _select_trace_line(self, pc: int):
        """Pick a candidate line matching predictions.

        Returns ``(line, prefix)`` where ``prefix`` limits how many
        logical instructions may be fetched (``None`` = the whole line).
        Without partial matching only full-path matches hit; with it, the
        longest predicted-path prefix of the MRU candidate is used.
        """
        if self.config.perfect_branch_prediction:
            # Oracle front end: select by the actual upcoming path.
            for line in self.trace_cache.lines_starting_at(pc):
                order = line.order
                upcoming = self.cursor.window(len(order))
                if len(upcoming) == len(order) and all(
                    dyn.static.pc == slot.instr.pc
                    for dyn, slot in zip(upcoming, order)
                ):
                    return line, None
            return None, None
        best_partial = None
        best_prefix = 0
        for line in self.trace_cache.lines_starting_at(pc):
            matched = self._prediction_match_length(line)
            if matched is None:
                return line, None
            if self.config.tc_partial_matching and matched > best_prefix:
                best_partial = line
                best_prefix = matched
        if best_partial is not None:
            self.partial_hits += 1
            return best_partial, best_prefix
        return None, None

    def _prediction_match_length(self, line: TraceLine) -> Optional[int]:
        """``None`` if the whole path matches predictions; otherwise the
        number of logical instructions up to and including the first
        mispredicted internal branch (the usable prefix)."""
        dirs = line.key[1]
        if not dirs:
            return None
        order = line.order
        predict = self.predictor.predict
        branch_index = 0
        for position in range(len(order) - 1):
            instr = order[position].instr
            if instr.branch_kind == BranchKind.CONDITIONAL:
                if predict(instr.pc) != dirs[branch_index]:
                    return position + 1
                branch_index += 1
        return None

    def _fetch_from_trace(self, line: TraceLine, now: int,
                          prefix: Optional[int] = None) -> List[DynInst]:
        order = line.order
        clusters = line.clusters
        upcoming = self.cursor.window(
            len(order) if prefix is None else prefix)
        key = line.key
        trace_instance = self._packet_counter
        self._packet_counter += 1
        not_branch = BranchKind.NOT_BRANCH
        count = 0
        for dyn in upcoming:
            slot = order[count]
            static = dyn.static
            if static.pc != slot.instr.pc:
                # Wrong-path region after an earlier divergence; the
                # divergent branch below already truncated the packet, so
                # reaching here means the line went stale (the static
                # program cannot change, so this only guards corruption).
                break
            dyn.from_trace_cache = True
            dyn.trace_key = key
            dyn.trace_instance = trace_instance
            dyn.slot_in_packet = count
            dyn.slot_cluster = clusters[count]
            dyn.chain_cluster = slot.chain_cluster
            dyn.leader_follower = slot.leader_follower
            dyn.fetch_cycle = now
            count += 1
            if (static.branch_kind != not_branch
                    and not self._check_control_flow(dyn, in_trace=True)):
                break
        packet = upcoming[:count] if count < len(upcoming) else upcoming
        self.cursor.advance(count)
        stats = self.stats
        stats.tc_fetches += 1
        stats.tc_fetch_instructions += count
        return packet

    # ------------------------------------------------------------------
    # I-cache path.
    # ------------------------------------------------------------------
    def _fetch_from_icache(self, now: int) -> Tuple[List[DynInst], int]:
        head = self.cursor.peek(0)
        latency = self.icache.access(head.static.pc, now)
        extra = max(0, latency - self.config.icache_latency)
        if extra:
            # The front end waits for the line; no further fetch until then.
            self._blocked_until = max(self._blocked_until, now + extra)
        trace_instance = self._packet_counter
        self._packet_counter += 1
        upcoming = self.cursor.window(self.config.icache_fetch_width)
        block_id = head.static.block_id
        per = self.config.slots_per_cluster
        num_clusters = self.config.num_clusters
        not_branch = BranchKind.NOT_BRANCH
        count = 0
        for dyn in upcoming:
            static = dyn.static
            if static.block_id != block_id:
                break
            dyn.from_trace_cache = False
            dyn.trace_instance = trace_instance
            dyn.slot_in_packet = count
            dyn.slot_cluster = (count // per) % num_clusters
            dyn.fetch_cycle = now
            count += 1
            if (static.branch_kind != not_branch
                    and not self._check_control_flow(dyn, in_trace=False)):
                break
        packet = upcoming[:count] if count < len(upcoming) else upcoming
        self.cursor.advance(count)
        return packet, extra

    # ------------------------------------------------------------------
    # Branch prediction bookkeeping.
    # ------------------------------------------------------------------
    def _check_control_flow(self, dyn: DynInst, in_trace: bool) -> bool:
        """Predict/train on the branch ``dyn``; False ends the packet
        (mispredict).

        Within a trace, targets are embedded in the line, so only
        direction (and return-target) mispredictions redirect; on the
        I-cache path a BTB miss for a taken branch also redirects.
        """
        kind = dyn.static.branch_kind
        if self.config.perfect_branch_prediction:
            # Oracle front end: train nothing, never redirect.
            if kind == BranchKind.CONDITIONAL:
                self.stats.cond_branches += 1
            return True
        if kind == BranchKind.CONDITIONAL:
            self.stats.cond_branches += 1
            predicted = self.predictor.predict_and_update(dyn.static.pc, dyn.taken)
            if predicted != dyn.taken:
                self._mispredict(dyn)
                return False
            if dyn.taken and not in_trace:
                return self._btb_check(dyn)
            return True
        if kind == BranchKind.CALL:
            if dyn.fall_target is not None:
                self.ras.push(dyn.fall_target)
            if not in_trace:
                return self._btb_check(dyn)
            return True
        if kind == BranchKind.RETURN:
            predicted_target = self.ras.pop()
            if predicted_target != dyn.target:
                self._mispredict(dyn)
                return False
            return True
        # Unconditional jump.
        if not in_trace:
            return self._btb_check(dyn)
        return True

    def _btb_check(self, dyn: DynInst) -> bool:
        """BTB lookup for a taken branch on the I-cache path."""
        target = self.btb.lookup(dyn.static.pc)
        self.btb.update(dyn.static.pc, dyn.target)
        if target != dyn.target:
            self._mispredict(dyn)
            return False
        return True

    def _mispredict(self, dyn: DynInst) -> None:
        dyn.mispredicted = True
        self.stats.mispredicts += 1
        self._blocked_branch = dyn

    def reset_stats(self) -> None:
        """Zero predictor/cache statistics (state kept)."""
        self.predictor.lookups = 0
        self.predictor.mispredictions = 0
        self.btb.lookups = 0
        self.btb.misses = 0
        self.icache.reset_stats()
