"""Budget of Python-level calls per simulated instruction.

The per-instruction path of the core (fetch, issue, wakeup/select,
dispatch, retire into the fill unit) is the simulator's cost.  This test
counts Python function calls (``sys.setprofile`` ``call`` events) for one
cell, gzip under the base strategy at 1k warmup + 4k measured
instructions, and fails when a change adds calls to that path.

The count is deterministic: the same cell makes the same calls on every
run.  A first run is discarded so that lazy imports and first-use
initialisation are not counted.  The budget is the count measured when it
was set plus 5%; a change that moves it records the new count and why.
"""

import sys

from repro.assign.base import StrategySpec
from repro.cluster.config import MachineConfig
from repro.runtime.job import SimJob

#: Python calls per instruction of the cell's 5,000 (warmup included)
#: when the budget was set.
CALLS_PER_INSTRUCTION = 30.26
BUDGET = CALLS_PER_INSTRUCTION * 1.05


def _cell() -> SimJob:
    return SimJob("gzip", StrategySpec(kind="base"), MachineConfig(),
                  instructions=4_000, warmup=1_000, seed=1)


def test_python_calls_per_instruction_within_budget():
    _cell().run()
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    cell = _cell()
    sys.setprofile(profile)
    try:
        cell.run()
    finally:
        sys.setprofile(None)
    per_instruction = calls / (cell.warmup + cell.instructions)
    assert per_instruction <= BUDGET, (
        f"{per_instruction:.2f} Python calls per retired instruction, "
        f"budget {BUDGET:.2f} ({CALLS_PER_INSTRUCTION} + 5%)")
