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

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

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
        #: ``(install cycle, line)`` in retire order, so sorted by cycle.
        self._install_queue: Deque[Tuple[int, TraceLine]] = deque()
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
        pending = self._pending
        block = inst.static.block_id
        # A full trace was finalised when its last instruction came in.
        if (block != pending.last_block
                and pending.num_blocks >= self.config.tc_max_blocks):
            self._finalize(now)
            pending = self._pending
        if block != pending.last_block:
            pending.num_blocks += 1
            pending.last_block = block
        insts = pending.insts
        insts.append(inst)
        if (
            inst.static.branch_kind == BranchKind.RETURN
            or len(insts) >= self.config.width
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
        """Cycle of the earliest pending line install, or ``None``."""
        queue = self._install_queue
        return queue[0][0] if queue else None

    def tick(self, now: int) -> None:
        """Install lines whose fill latency has elapsed."""
        queue = self._install_queue
        if not queue or queue[0][0] > now:
            return
        observers = self.observers
        while queue and queue[0][0] <= now:
            ready, line = queue.popleft()
            self.trace_cache.insert(line)
            if observers:
                for observer in observers:
                    observer.on_fill_install(line, ready, now)

    # ------------------------------------------------------------------
    def _finalize(self, now: int) -> None:
        pending = self._pending
        if not pending.insts:
            return
        insts = pending.insts
        key = self._trace_key(insts)
        slots = self.strategy.reorder(insts)
        line = self._build_line(key, insts, slots, pending.num_blocks)
        self._record_migration(insts, line.clusters)
        self.traces_built += 1
        self.trace_instruction_sum += len(insts)
        self._install_queue.append((now + self.config.fill_unit_latency, line))
        self._pending = PendingTrace()

    def _trace_key(self, insts: List[DynInst]) -> TraceKey:
        """(start pc, internal conditional-branch directions)."""
        conditional = BranchKind.CONDITIONAL
        dirs = []
        for inst in insts[:-1]:
            if inst.static.branch_kind == conditional:
                dirs.append(inst.taken)
        return (insts[0].static.pc, tuple(dirs))

    def _build_line(
        self,
        key: TraceKey,
        insts: List[DynInst],
        slots: List[Optional[int]],
        num_blocks: int,
    ) -> TraceLine:
        trace_slots: List[Optional[TraceSlot]] = [None] * len(slots)
        for p, logical in enumerate(slots):
            if logical is not None:
                inst = insts[logical]
                trace_slots[p] = TraceSlot(
                    inst.static, logical, inst.chain_cluster,
                    inst.leader_follower)
        if len(slots) - slots.count(None) == len(insts):
            line = TraceLine(key, trace_slots, num_blocks,
                             self.config.slots_per_cluster)
            if None not in line.order:
                return line
        missing = sorted(set(range(len(insts))) - set(slots))
        raise RuntimeError(
            f"strategy {self.strategy.name!r} dropped logical indices "
            f"{missing} from a {len(insts)}-instruction trace"
        )

    def _record_migration(
        self, insts: List[DynInst], clusters: List[int]
    ) -> None:
        """Table 9: ``clusters[k]`` is where logical instruction ``k``
        of the new line issues."""
        last_assigned = self._last_assigned_cluster
        none = LeaderFollower.NONE
        migrations = chain_instances = chain_migrations = 0
        for inst, cluster in zip(insts, clusters):
            pc = inst.static.pc
            previous = last_assigned.get(pc)
            last_assigned[pc] = cluster
            is_chain = inst.leader_follower != none
            if is_chain:
                chain_instances += 1
            if previous is not None and previous != cluster:
                migrations += 1
                if is_chain:
                    chain_migrations += 1
        self.fill_instances += len(insts)
        self.fill_migrations += migrations
        self.chain_instances += chain_instances
        self.chain_migrations += chain_migrations

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
