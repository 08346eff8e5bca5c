"""Profile-guided static cluster assignment (extension).

The paper's introduction contrasts dynamic assignment with *static*
assignment done by a compiler, citing studies [4, 16] that found dynamic
assignment wins.  This module provides the static comparator so the
contrast can be reproduced: a training run collects, per static
instruction, how often each other static instruction supplied its
critical input; a greedy partitioner then fixes every static pc to one
cluster (favouring critical producers' clusters, balancing by dynamic
execution weight); and :class:`StaticAssignment` lays traces out
according to that fixed map.

Because the mapping is per-pc and immutable, the scheme has zero
issue-time cost and zero fill-unit analysis cost — but, exactly as the
dynamic-assignment literature observes, it cannot adapt to which of an
instruction's producers is critical *this* time, nor to workload phases.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence

from repro.assign.base import (
    AssignmentContext,
    ClusterCapacity,
    RetireTimeStrategy,
)


class StaticAssignment(RetireTimeStrategy):
    """Fixed per-pc cluster placement with capacity-aware overflow."""

    name = "static"

    def __init__(self, context: AssignmentContext,
                 mapping: Dict[int, int]) -> None:
        super().__init__(context)
        self.mapping = dict(mapping)
        for pc, cluster in self.mapping.items():
            if not 0 <= cluster < context.num_clusters:
                raise ValueError(f"pc {pc:#x}: cluster {cluster} out of range")

    def reorder(self, insts: Sequence) -> List[Optional[int]]:
        context = self.context
        width = context.width
        per = context.slots_per_cluster
        n = min(len(insts), width)
        capacity = ClusterCapacity(context.num_clusters, per)
        cluster_of: Dict[int, int] = {}
        pending: List[int] = []
        order = self.context.interconnect.ordered_by_distance
        for i in range(n):
            inst = insts[i]
            want = self.mapping.get(inst.static.pc)
            placed = False
            if want is not None:
                for cluster in order(want):
                    if capacity.can_place(cluster, inst.static.op_class):
                        capacity.place(cluster, inst.static.op_class)
                        cluster_of[i] = cluster
                        placed = True
                        break
            if not placed:
                pending.append(i)
        slots: List[Optional[int]] = [None] * width
        taken = [0] * context.num_clusters
        for logical in sorted(cluster_of):
            cluster = cluster_of[logical]
            slots[cluster * per + taken[cluster]] = logical
            taken[cluster] += 1
        if pending:
            free = [p for p in range(width) if slots[p] is None]
            for slot, logical in zip(free, pending):
                slots[slot] = logical
        return slots


def train_static_assignment(
    benchmark,
    config=None,
    train_instructions: int = 20_000,
    warmup: int = 10_000,
    seed: Optional[int] = None,
) -> Dict[int, int]:
    """Run a profiling pass and derive a per-pc cluster map.

    The trainer simulates the base machine, recording for every static
    instruction (a) its dynamic execution count and (b) a histogram over
    the static pcs that supplied its critical forwarded input.  Static
    instructions are then assigned greedily in descending execution
    weight: join the cluster of your most frequent critical producer if
    it has been assigned and is not overloaded, otherwise take the least
    loaded cluster (weights balance the partition).
    """
    from repro.assign.base import StrategySpec
    from repro.core.simulator import Simulator
    from repro.obs.tracer import PipelineObserver

    simulator = Simulator(benchmark, StrategySpec(kind="base"),
                          config=config, seed=seed)
    pipeline = simulator.pipeline
    exec_weight: Counter = Counter()
    producer_votes: Dict[int, Counter] = defaultdict(Counter)

    class Votes(PipelineObserver):
        def on_retire(self, inst, now):
            pc = inst.static.pc
            exec_weight[pc] += 1
            if inst.critical_forwarded and inst.critical_producer is not None:
                producer_votes[pc][inst.critical_producer.static.pc] += 1

    with Votes().attach(pipeline):
        pipeline.run(warmup + train_instructions)

    num_clusters = pipeline.config.num_clusters
    total = sum(exec_weight.values())
    budget = total / num_clusters if num_clusters else 0
    load = [0.0] * num_clusters
    mapping: Dict[int, int] = {}
    for pc, weight in exec_weight.most_common():
        choice = None
        votes = producer_votes.get(pc)
        if votes:
            best_producer, _ = votes.most_common(1)[0]
            producer_cluster = mapping.get(best_producer)
            if producer_cluster is not None and load[producer_cluster] < 1.5 * budget:
                choice = producer_cluster
        if choice is None:
            choice = min(range(num_clusters), key=lambda c: load[c])
        mapping[pc] = choice
        load[choice] += weight
    return mapping
