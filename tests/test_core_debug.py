"""Tests for pipeline debug tooling: lifetimes and stall attribution."""

import pytest

from repro.assign.base import StrategySpec
from repro.cluster.config import MachineConfig
from repro.core.accounting import CYCLE_LOSS_CATEGORIES, FRONTEND
from repro.core.debug import LifetimeRecorder
from repro.core.pipeline import Pipeline
from repro.isa import Instruction, Opcode
from repro.obs import CycleTracer, MetricsRegistry
from repro.workloads.program import BasicBlock, Program


@pytest.fixture
def pipeline(tiny_program):
    return Pipeline(tiny_program, MachineConfig(), StrategySpec(kind="base"))


def div_chain_pipeline():
    """A looping DIV chain: long-latency non-memory work at the head."""
    body = [
        Instruction(0, Opcode.DIV, 8, (8,)),
        Instruction(4, Opcode.DIV, 9, (9,)),
        Instruction(8, Opcode.JMP, None, ()),
    ]
    blocks = [BasicBlock(0, body, taken_succ=0)]
    for block in blocks:
        for instr in block.instructions:
            instr.block_id = block.block_id
    program = Program("divchain", blocks, 0, {}, [])
    return Pipeline(program, MachineConfig(), StrategySpec(kind="base"))


def run_window(pipeline, cycles):
    """Reset the always-on accounting, step ``cycles`` and return it."""
    pipeline.accounting.reset()
    for _ in range(cycles):
        pipeline.step()
    return pipeline.accounting


def slot_breakdown(acc):
    """Share of all retire slots: retired plus each loss category."""
    total = acc.width * acc.cycles
    breakdown = {"retiring": acc.retired_slots / total}
    for category, slots in acc.by_category().items():
        breakdown[category] = slots / total
    return breakdown


class TestStallAttributor:
    """The stall breakdown, read from the pipeline's cycle accounting."""

    def test_breakdown_sums_to_one(self, pipeline):
        breakdown = slot_breakdown(run_window(pipeline, 500))
        assert sum(breakdown.values()) == pytest.approx(1.0)
        assert set(breakdown) == {"retiring", *CYCLE_LOSS_CATEGORIES}

    def test_running_pipeline_mostly_not_empty(self, pipeline):
        pipeline.run(2000)  # warm
        breakdown = slot_breakdown(run_window(pipeline, 1000))
        # A 16-wide machine retires in bursts, so retired slots are a
        # minority; the useful check is that the window isn't starved.
        assert breakdown["retiring"] > 0.02
        empty = breakdown["fetch_starve"] + breakdown["mispredict_flush"]
        assert empty < 0.9

    def test_render(self, pipeline):
        text = run_window(pipeline, 100).render()
        for category in CYCLE_LOSS_CATEGORIES:
            assert category in text


class TestStallCategories:
    """Memory and compute stalls split apart, slot counts conserved."""

    def test_mem_wait_split_from_exec_wait(self, pipeline):
        memory = run_window(pipeline, 2000).by_category()
        assert memory["mem_latency"] > 0
        compute = run_window(div_chain_pipeline(), 800).by_category()
        assert compute["exec_latency"] > 0
        assert compute["mem_latency"] == 0  # no memory ops at all

    def test_counts_sum_to_observed_cycles(self, pipeline):
        acc = run_window(pipeline, 700)
        assert acc.cycles == 700
        assert acc.retired_slots + acc.lost_slots() == acc.width * 700

    def test_cluster_counts_consistent(self, pipeline):
        acc = run_window(pipeline, 900)
        by_category = acc.by_category()
        for category in CYCLE_LOSS_CATEGORIES:
            per_cluster = sum(
                slots
                for (_cluster, cat), slots in acc.counts.items()
                if cat == category)
            assert per_cluster == by_category[category]
        # The front-end pseudo cluster is reserved for empty-window losses.
        for (cluster, category), slots in acc.counts.items():
            if cluster == FRONTEND:
                assert category in ("fetch_starve", "mispredict_flush")

    def test_publish_includes_cluster_cycles(self, pipeline):
        registry = MetricsRegistry()
        run_window(pipeline, 400).publish(registry)
        names = {record["name"] for record in registry.snapshot()}
        assert any(n.startswith("accounting.lost_slots{") and "cluster=" in n
                   for n in names)
        assert any(n.startswith("accounting.ipc_loss") for n in names)


class TestLifetimeRecorder:
    def test_records_lifetimes(self, pipeline):
        recorder = LifetimeRecorder(pipeline, capacity=100)
        pipeline.run(500)
        assert len(recorder.records) == 100
        for record in recorder.records:
            assert record.fetch <= record.issue <= record.dispatch
            assert record.dispatch <= record.complete <= record.retire
            assert record.latency > 0

    def test_capacity_respected(self, pipeline):
        recorder = LifetimeRecorder(pipeline, capacity=10)
        pipeline.run(500)
        assert len(recorder.records) == 10

    def test_detach_restores_hook(self, pipeline):
        recorder = LifetimeRecorder(pipeline, capacity=5)
        pipeline.run(200)
        recorder.detach()
        count = len(recorder.records)
        pipeline.run(200)
        assert len(recorder.records) == count  # no further recording

    def test_diagram_renders(self, pipeline):
        recorder = LifetimeRecorder(pipeline, capacity=30)
        pipeline.run(300)
        diagram = recorder.diagram(max_rows=8)
        lines = diagram.splitlines()
        assert len(lines) == 9  # header + 8 rows
        assert "R" in diagram and "F" in diagram

    def test_diagram_empty(self, pipeline):
        recorder = LifetimeRecorder(pipeline)
        assert recorder.diagram() == "(no records)"

    def test_mean_latency(self, pipeline):
        recorder = LifetimeRecorder(pipeline, capacity=50)
        pipeline.run(300)
        assert recorder.mean_latency() > 5.0

    def test_context_manager_detaches(self, pipeline):
        with LifetimeRecorder(pipeline, capacity=5) as recorder:
            assert pipeline.observers == (recorder,)
            pipeline.run(200)
        assert pipeline.observers == ()
        assert pipeline.fill_unit.observers == ()
        assert len(recorder.records) == 5

    def test_context_manager_detaches_on_error(self, pipeline):
        with pytest.raises(RuntimeError, match="boom"):
            with LifetimeRecorder(pipeline, capacity=5) as recorder:
                assert pipeline.observers == (recorder,)
                raise RuntimeError("boom")
        # The observer is removed even though the window raised.
        assert pipeline.observers == ()

    def test_records_alongside_a_tracer(self, tiny_program):
        def fresh():
            return Pipeline(tiny_program, MachineConfig(),
                            StrategySpec(kind="base"))

        bare = fresh()
        with LifetimeRecorder(bare, capacity=200) as alone:
            bare.run(600)
        shared = fresh()
        tracer = CycleTracer()
        with tracer.attach(shared), \
                LifetimeRecorder(shared, capacity=200) as recorder:
            assert shared.observers == (tracer, recorder)
            shared.run(600)
        assert tracer.recorded > 0
        assert len(recorder.records) == 200
        assert recorder.records == alone.records
