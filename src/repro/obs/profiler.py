"""Deterministic per-phase wall-clock profiling of the pipeline.

Where :mod:`repro.obs.tracer` answers "what did the *simulated machine*
spend its cycles on", the :class:`PhaseProfiler` answers "what does the
*simulator* spend its wall-clock on": every :meth:`Pipeline.step` is
split into the four pipeline phases —

``fetch``
    trace-cache / I-cache fetch, decode, rename enqueue;
``assign``
    issue and cluster steering (the paper's assignment mechanisms);
``execute``
    retire + cycle accounting + reservation-station dispatch/execute;
``fill``
    fill-unit trace construction and installs

— and the profiler accumulates seconds per phase, optionally bucketed
into fixed-cycle-width samples for flame-chart export.  Attaching puts
timing wrappers on the pipeline *instance* around the stage calls of
:meth:`Pipeline.step` (five clock reads per stepped cycle); detaching
deletes them, so unprofiled runs pay nothing, and the wrappers only
*time* the existing stage calls — simulated results are byte-identical
with the profiler on or off.  :meth:`Pipeline.run` does not step the
cycles in which no stage can act; :attr:`PhaseProfiler.steps` still
counts every simulated cycle the profiler covered, charging those with
zero time.

Outputs:

* :meth:`publish` — ``profile.seconds{phase=...}`` /
  ``profile.share{phase=...}`` / ``profile.cycles_per_second`` metrics
  into a :class:`~repro.obs.metrics.MetricsRegistry` (scraped by the
  live telemetry exporter);
* :meth:`to_speedscope` / :meth:`write` — a `speedscope
  <https://www.speedscope.app>`_ JSON flame chart, one frame per phase,
  one open/close span per (sample, phase);
* :meth:`render` — a terminal table (used by ``repro profile``).
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

#: The pipeline phases, in within-step order of the speedscope lanes.
PHASES = ("fetch", "assign", "execute", "fill")

#: Default cycles per flame-chart sample (0 = totals only).
DEFAULT_SAMPLE_CYCLES = 1_000


class PhaseProfiler:
    """Accumulates wall-clock seconds per pipeline phase.

    Attach to a pipeline (directly or via its simulator)::

        profiler = PhaseProfiler(sample_cycles=1_000)
        with profiler.attach(simulator.pipeline):
            simulator.run(30_000)
        print(profiler.render())
        profiler.write("profile.speedscope.json")

    ``sample_cycles`` batches per-phase time into fixed-cycle-width
    samples so :meth:`to_speedscope` can show *when* the simulator was
    slow, not just where; ``0`` keeps totals only (cheapest).
    """

    def __init__(
        self,
        sample_cycles: int = DEFAULT_SAMPLE_CYCLES,
        _clock=time.perf_counter,
    ) -> None:
        if sample_cycles < 0:
            raise ValueError(
                f"sample_cycles must be >= 0, got {sample_cycles}")
        self.sample_cycles = sample_cycles
        self.seconds: Dict[str, float] = {phase: 0.0 for phase in PHASES}
        #: Simulated cycles covered, stepped or skipped.
        self.steps = 0
        #: The cycle after the last one accounted (None before any).
        self._next_cycle: Optional[int] = None
        #: ``(first_cycle, {phase: seconds})`` per completed sample.
        self.samples: List[tuple] = []
        self._clock = _clock
        self._open: Dict[str, float] = {phase: 0.0 for phase in PHASES}
        self._open_start: Optional[int] = None
        self._pipeline = None

    # ------------------------------------------------------------------
    # Attachment lifecycle (mirrors PipelineObserver's).
    # ------------------------------------------------------------------
    def attach(self, pipeline) -> "PhaseProfiler":
        """Wrap the pipeline's stage calls in clock stamps.

        The clock reads before ``_retire`` and after ``_execute``,
        ``fill_unit.tick``, ``_issue`` and ``_fetch``, so ``execute``
        covers retire + cycle accounting + dispatch, as in :data:`PHASES`.
        """
        if self._pipeline is not None or "_fetch" in vars(pipeline):
            raise RuntimeError("pipeline already has a profiler attached")
        clock, account = self._clock, self.account
        retire, execute = pipeline._retire, pipeline._execute
        tick, issue, fetch = (
            pipeline.fill_unit.tick, pipeline._issue, pipeline._fetch)
        stamps = [0.0, 0.0, 0.0, 0.0]

        def timed_retire(now):
            stamps[0] = clock()
            retire(now)

        def timed_execute(now):
            execute(now)
            stamps[1] = clock()

        def timed_tick(now):
            tick(now)
            stamps[2] = clock()

        def timed_issue(now):
            issue(now)
            stamps[3] = clock()

        def timed_fetch(now):
            fetch(now)
            t0, t1, t2, t3 = stamps
            account(t1 - t0, t2 - t1, t3 - t2, clock() - t3, now)

        pipeline._retire, pipeline._execute = timed_retire, timed_execute
        pipeline._issue, pipeline._fetch = timed_issue, timed_fetch
        pipeline.fill_unit.tick = timed_tick
        self._pipeline = pipeline
        self._next_cycle = pipeline.now
        return self

    def detach(self) -> None:
        pipeline = self._pipeline
        if pipeline is None:
            return
        for name in ("_retire", "_execute", "_issue", "_fetch"):
            del pipeline.__dict__[name]
        del pipeline.fill_unit.__dict__["tick"]
        self._pipeline = None
        self._flush_sample()

    def __enter__(self) -> "PhaseProfiler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.detach()

    # ------------------------------------------------------------------
    # Accounting (called once per profiled step by the fetch wrapper).
    # ------------------------------------------------------------------
    def account(self, execute: float, fill: float, assign: float,
                fetch: float, cycle: int) -> None:
        """Charge one step's phase durations (seconds) at ``cycle``,
        plus zero time for the cycles skipped since the previous step."""
        seconds = self.seconds
        seconds["execute"] += execute
        seconds["fill"] += fill
        seconds["assign"] += assign
        seconds["fetch"] += fetch
        following = self._next_cycle
        self.steps += 1 if following is None else cycle + 1 - following
        self._next_cycle = cycle + 1
        if not self.sample_cycles:
            return
        if self._open_start is None:
            self._open_start = cycle
        window = self._open
        window["execute"] += execute
        window["fill"] += fill
        window["assign"] += assign
        window["fetch"] += fetch
        if cycle - self._open_start + 1 >= self.sample_cycles:
            self._flush_sample()

    def _flush_sample(self) -> None:
        if self._open_start is None:
            return
        self.samples.append((self._open_start, dict(self._open)))
        self._open = {phase: 0.0 for phase in PHASES}
        self._open_start = None

    def finish(self) -> None:
        """Flush the final partial sample (idempotent).

        A run shorter than ``sample_cycles`` never completes a window
        inside :meth:`account`, so without this its samples would be
        silently empty; :meth:`detach` and the exporters call it, and
        callers driving the pipeline manually may too.
        """
        self._flush_sample()

    # ------------------------------------------------------------------
    # Derived views.
    # ------------------------------------------------------------------
    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def shares(self) -> Dict[str, float]:
        """Fraction of profiled wall-clock per phase (sums to 1)."""
        total = self.total_seconds
        if not total:
            return {phase: 0.0 for phase in PHASES}
        return {phase: self.seconds[phase] / total for phase in PHASES}

    @property
    def cycles_per_second(self) -> float:
        """Simulated cycles per wall-clock second inside the step loop."""
        total = self.total_seconds
        return self.steps / total if total else 0.0

    def publish(self, registry) -> None:
        """Publish ``profile.*`` metrics into ``registry``."""
        shares = self.shares()
        for phase in PHASES:
            registry.gauge("profile.seconds", phase=phase).set(
                self.seconds[phase])
            registry.gauge("profile.share", phase=phase).set(shares[phase])
        registry.gauge("profile.total_seconds").set(self.total_seconds)
        registry.gauge("profile.cycles_per_second").set(
            self.cycles_per_second)
        registry.counter("profile.steps").inc(self.steps)

    # ------------------------------------------------------------------
    # Export.
    # ------------------------------------------------------------------
    def to_speedscope(self, name: str = "repro pipeline") -> dict:
        """The profile as a speedscope *evented* document.

        One frame per phase; each sample window contributes one
        open/close span per phase (phases laid head-to-tail, so the
        chart is a wall-clock flame of the step loop).  With
        ``sample_cycles=0`` the whole run is a single window.
        """
        self._flush_sample()
        windows = self.samples or (
            [(0, dict(self.seconds))] if self.steps else [])
        frame_index = {phase: i for i, phase in enumerate(PHASES)}
        events = []
        at = 0.0
        for first_cycle, window in windows:
            for phase in PHASES:
                duration = window.get(phase, 0.0)
                if duration <= 0.0:
                    continue
                events.append({"type": "O", "frame": frame_index[phase],
                               "at": at})
                at += duration
                events.append({"type": "C", "frame": frame_index[phase],
                               "at": at})
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "name": name,
            "shared": {"frames": [{"name": phase} for phase in PHASES]},
            "profiles": [{
                "type": "evented",
                "name": name,
                "unit": "seconds",
                "startValue": 0.0,
                "endValue": at,
                "events": events,
            }],
            "exporter": "repro profile",
        }

    def write(self, path: str, name: str = "repro pipeline") -> None:
        """Write :meth:`to_speedscope` JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_speedscope(name), handle)

    def render(self) -> str:
        """Terminal table of per-phase seconds and shares."""
        total = self.total_seconds
        lines = [f"{'phase':<10} {'seconds':>10} {'share':>8}"]
        for phase in PHASES:
            seconds = self.seconds[phase]
            share = seconds / total if total else 0.0
            lines.append(f"{phase:<10} {seconds:>10.4f} {share:>7.1%}")
        lines.append(f"{'total':<10} {total:>10.4f} {'':>8}")
        if self.steps:
            lines.append(
                f"{self.steps} cycles profiled, "
                f"{self.cycles_per_second:,.0f} cycles/s"
            )
        return "\n".join(lines)
