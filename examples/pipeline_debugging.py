#!/usr/bin/env python3
"""Pipeline introspection: lifetimes, cycle accounting, energy.

Demonstrates the diagnostic tooling: where instructions spend their
cycles, why retire slots go unfilled, which clusters and units carry the
load, and where the (relative) energy goes.

    python examples/pipeline_debugging.py [benchmark]
"""

import sys

from repro import Simulator, StrategySpec
from repro.analysis import collect_utilization, estimate_energy
from repro.core.debug import LifetimeRecorder


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "twolf"
    simulator = Simulator(benchmark, StrategySpec(kind="fdrt"))
    pipeline = simulator.pipeline

    print(f"warming up {benchmark!r} ...")
    pipeline.run(20_000)

    print("\n--- pipeline diagram (16 instructions) ---")
    recorder = LifetimeRecorder(pipeline, capacity=16)
    pipeline.run(100)
    recorder.detach()
    print(recorder.diagram(max_rows=16))
    print(f"mean fetch-to-retire latency: {recorder.mean_latency():.1f} cycles")

    print("\n--- cycle accounting (2000 cycles) ---")
    pipeline.accounting.reset()
    for _ in range(2000):
        pipeline.step()
    print(pipeline.accounting.render())

    print("\n--- utilization ---")
    print(collect_utilization(pipeline).render())

    print("\n--- energy estimate ---")
    print(estimate_energy(pipeline).render())


if __name__ == "__main__":
    main()
