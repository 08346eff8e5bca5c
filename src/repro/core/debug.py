"""Pipeline debugging tooling.

:class:`LifetimeRecorder` captures per-instruction lifetime records
(fetch/issue/dispatch/complete/retire cycles plus provenance and
placement) over a window, and renders classic text pipeline diagrams::

    seq  pc       op     cl  F.....I..D.E....R
    512  0x12a4   LOAD    2  |F    I D  E    R|

For why retire slots go unfilled — the CPI-stack breakdown used when
diagnosing whether a placement policy's forwarding gains become IPC —
read the always-on :class:`~repro.core.accounting.CycleAccounting` at
``pipeline.accounting``.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.core.pipeline import Pipeline
from repro.isa import DynInst
from repro.obs.tracer import PipelineObserver


@dataclasses.dataclass(frozen=True)
class Lifetime:
    """Immutable per-instruction lifetime snapshot."""

    seq: int
    pc: int
    opcode: str
    cluster: int
    from_trace_cache: bool
    fetch: int
    issue: int
    dispatch: int
    complete: int
    retire: int

    @property
    def latency(self) -> int:
        """Fetch-to-retire latency in cycles."""
        return self.retire - self.fetch


class LifetimeRecorder(PipelineObserver):
    """Records lifetimes of retiring instructions (attached on creation;
    :meth:`detach` or a ``with`` block ends the window)."""

    def __init__(self, pipeline: Pipeline, capacity: int = 1024) -> None:
        self.capacity = capacity
        self.records: List[Lifetime] = []
        self.attach(pipeline)

    def on_retire(self, inst: DynInst, now: int) -> None:
        if len(self.records) < self.capacity:
            self.records.append(Lifetime(
                seq=inst.seq,
                pc=inst.static.pc,
                opcode=inst.static.opcode.name,
                cluster=inst.cluster,
                from_trace_cache=inst.from_trace_cache,
                fetch=inst.fetch_cycle,
                issue=inst.issue_cycle,
                dispatch=inst.dispatch_cycle,
                complete=inst.complete_cycle,
                retire=inst.retire_cycle,
            ))

    def diagram(self, max_rows: int = 20, width: int = 64) -> str:
        """Text pipeline diagram of the recorded window."""
        rows = self.records[:max_rows]
        if not rows:
            return "(no records)"
        start = min(r.fetch for r in rows)
        end = max(r.retire for r in rows)
        span = max(1, end - start)
        scale = min(1.0, (width - 1) / span)
        lines = [f"{'seq':>6} {'pc':>8} {'op':<7} {'cl':>2}  timeline "
                 f"(F=fetch I=issue D=dispatch E=complete R=retire)"]
        for r in rows:
            lane = [" "] * width
            for cycle, mark in ((r.fetch, "F"), (r.issue, "I"),
                                (r.dispatch, "D"), (r.complete, "E"),
                                (r.retire, "R")):
                if cycle >= 0:
                    pos = min(width - 1, int((cycle - start) * scale))
                    lane[pos] = mark
            lines.append(
                f"{r.seq:>6} {r.pc:>#8x} {r.opcode:<7} {r.cluster:>2}  "
                + "".join(lane)
            )
        return "\n".join(lines)

    def mean_latency(self) -> float:
        """Mean fetch-to-retire latency over the window."""
        if not self.records:
            return 0.0
        return sum(r.latency for r in self.records) / len(self.records)
