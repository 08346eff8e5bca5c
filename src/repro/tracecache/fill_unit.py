"""The fill unit: trace construction and retire-time cluster assignment.

The fill unit watches the retiring instruction stream, segments it into
traces (at most ``config.width`` instructions and ``config.tc_max_blocks``
basic blocks, ending after returns), asks the retire-time strategy for the
physical slot layout, and installs the finished line in the trace cache
after ``fill_unit_latency`` cycles.  Because retire-time latency is
tolerable (the paper shows up to 1000 cycles has no significant effect),
the latency only delays line visibility.

The fill unit also owns the **fill-time cluster migration** statistics of
Table 9: for every instruction instance it records whether the assigned
cluster differs from the instruction's previous assignment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.isa import BranchKind, DynInst
from repro.isa.instruction import LeaderFollower
from repro.assign.base import RetireTimeStrategy
from repro.cluster.config import MachineConfig
from repro.tracecache.trace import TraceKey, TraceLine, TraceSlot
from repro.tracecache.trace_cache import TraceCache


class PendingTrace:
    """Instructions accumulated toward the next trace."""

    __slots__ = ("insts", "num_blocks", "last_block")

    def __init__(self) -> None:
        self.insts: List[DynInst] = []
        self.num_blocks = 0
        self.last_block = -1

    def add(self, inst: DynInst) -> None:
        block = inst.static.block_id
        if block != self.last_block:
            self.num_blocks += 1
            self.last_block = block
        self.insts.append(inst)

    def would_open_block(self, inst: DynInst) -> bool:
        """True if appending ``inst`` would start a new basic block."""
        return inst.static.block_id != self.last_block

    def __len__(self) -> int:
        return len(self.insts)


class FillUnit:
    """Builds trace lines from the retire stream and assigns clusters."""

    def __init__(
        self,
        config: MachineConfig,
        trace_cache: TraceCache,
        strategy: RetireTimeStrategy,
    ) -> None:
        self.config = config
        self.trace_cache = trace_cache
        self.strategy = strategy
        self._pending = PendingTrace()
        self._install_queue: List[Tuple[int, TraceLine]] = []
        self._now = 0
        #: The owning pipeline's ``observers`` tuple, mirrored here by
        #: ``observer.attach(pipeline)``.
        self.observers = ()
        # Table 9 bookkeeping.
        self._last_assigned_cluster: Dict[int, int] = {}
        self.fill_instances = 0
        self.fill_migrations = 0
        self.chain_instances = 0
        self.chain_migrations = 0
        self.traces_built = 0
        self.trace_instruction_sum = 0

    # ------------------------------------------------------------------
    def retire(self, inst: DynInst, now: int) -> None:
        """Feed one retiring instruction (in program order)."""
        self._now = now
        pending = self._pending
        width = self.config.width
        if len(pending.insts) >= width or (
            pending.num_blocks >= self.config.tc_max_blocks
            and pending.would_open_block(inst)
        ):
            self._finalize(now)
            pending = self._pending
        pending.add(inst)
        if (
            inst.static.branch_kind == BranchKind.RETURN
            or len(pending.insts) >= width
            or (inst.taken and self._is_backward_taken(inst))
        ):
            self._finalize(now)

    @staticmethod
    def _is_backward_taken(inst: DynInst) -> bool:
        """True for taken branches targeting a lower pc (loop back-edges).

        Ending traces at loop boundaries anchors trace segmentation: each
        iteration re-starts trace construction at the loop header, so the
        same static instructions land in the same traces across
        invocations instead of drifting with the tiling phase.
        """
        return (
            inst.static.is_branch
            and inst.taken
            and inst.target is not None
            and inst.target <= inst.static.pc
        )

    def flush(self, now: int) -> None:
        """Finalise any partial trace (end of simulation)."""
        self._finalize(now)

    def next_install(self) -> Optional[int]:
        """Cycle of the earliest pending line install, or ``None``.

        Lines queue in retire order with a fixed latency, so the queue
        is sorted by install cycle.
        """
        queue = self._install_queue
        return queue[0][0] if queue else None

    def tick(self, now: int) -> None:
        """Install lines whose fill latency has elapsed."""
        if not self._install_queue:
            return
        remaining = []
        observers = self.observers
        for ready, line in self._install_queue:
            if ready <= now:
                self.trace_cache.insert(line)
                if observers:
                    for observer in observers:
                        observer.on_fill_install(line, ready, now)
            else:
                remaining.append((ready, line))
        self._install_queue = remaining

    # ------------------------------------------------------------------
    def _finalize(self, now: int) -> None:
        pending = self._pending
        if not pending.insts:
            return
        insts = pending.insts
        key = self._trace_key(insts)
        slots = self.strategy.reorder(insts)
        line = self._build_line(key, insts, slots, pending.num_blocks)
        self._record_migration(insts, slots)
        self.traces_built += 1
        self.trace_instruction_sum += len(insts)
        self._install_queue.append((now + self.config.fill_unit_latency, line))
        self._pending = PendingTrace()

    def _trace_key(self, insts: List[DynInst]) -> TraceKey:
        """(start pc, internal conditional-branch directions)."""
        dirs = tuple(
            inst.taken
            for inst in insts[:-1]
            if inst.static.branch_kind == BranchKind.CONDITIONAL
        )
        return (insts[0].static.pc, dirs)

    def _build_line(
        self,
        key: TraceKey,
        insts: List[DynInst],
        slots: List[Optional[int]],
        num_blocks: int,
    ) -> TraceLine:
        trace_slots: List[Optional[TraceSlot]] = [None] * len(slots)
        placed = set()
        for p, logical in enumerate(slots):
            if logical is None:
                continue
            inst = insts[logical]
            trace_slots[p] = TraceSlot(
                inst.static,
                logical,
                chain_cluster=inst.chain_cluster,
                leader_follower=inst.leader_follower,
            )
            placed.add(logical)
        missing = [i for i in range(len(insts)) if i not in placed]
        if missing:
            raise RuntimeError(
                f"strategy {self.strategy.name!r} dropped logical indices "
                f"{missing} from a {len(insts)}-instruction trace"
            )
        return TraceLine(key, trace_slots, num_blocks)

    def _record_migration(
        self, insts: List[DynInst], slots: List[Optional[int]]
    ) -> None:
        per = self.config.slots_per_cluster
        cluster_of_logical: Dict[int, int] = {}
        for p, logical in enumerate(slots):
            if logical is not None:
                cluster_of_logical[logical] = p // per
        for logical, inst in enumerate(insts):
            cluster = cluster_of_logical.get(logical)
            if cluster is None:
                continue
            pc = inst.static.pc
            previous = self._last_assigned_cluster.get(pc)
            self._last_assigned_cluster[pc] = cluster
            is_chain = inst.leader_follower != LeaderFollower.NONE
            self.fill_instances += 1
            if is_chain:
                self.chain_instances += 1
            if previous is not None and previous != cluster:
                self.fill_migrations += 1
                if is_chain:
                    self.chain_migrations += 1

    # ------------------------------------------------------------------
    @property
    def migration_rate(self) -> float:
        """Table 9: share of fill-time instances whose cluster changed."""
        if not self.fill_instances:
            return 0.0
        return self.fill_migrations / self.fill_instances

    @property
    def chain_migration_rate(self) -> float:
        """Table 9: migration rate restricted to chain instructions."""
        if not self.chain_instances:
            return 0.0
        return self.chain_migrations / self.chain_instances

    @property
    def avg_built_trace_size(self) -> float:
        """Mean instructions per built trace."""
        if not self.traces_built:
            return 0.0
        return self.trace_instruction_sum / self.traces_built

    def reset_stats(self) -> None:
        """Zero migration/construction statistics (state kept)."""
        self.fill_instances = 0
        self.fill_migrations = 0
        self.chain_instances = 0
        self.chain_migrations = 0
        self.traces_built = 0
        self.trace_instruction_sum = 0
