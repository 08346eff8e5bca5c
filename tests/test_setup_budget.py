"""Budget of Python-level calls to set a simulation up.

Every simulation starts with ``generate_program(profile)`` and
``Simulator(...)``.  This test counts Python function calls
(``sys.setprofile`` ``call`` events) for that pair on adpcm_enc under
issue-time steering, and for generation alone per static instruction on
three catalog programs.  The counts are deterministic; a first run is
discarded so that lazy imports are not counted.  The budget is the count
measured when it was set plus 5%; a change that moves it records the new
count and why.
"""

import sys

import pytest

from repro.assign.base import StrategySpec
from repro.core.simulator import Simulator
from repro.workloads.generator import generate_program
from repro.workloads.profiles import profile_for

#: Calls of ``generate_program`` + ``Simulator`` on adpcm_enc when the
#: budget was set (generation 2,770, construction 365).
SETUP_CALLS = 3_135
SETUP_BUDGET = SETUP_CALLS * 1.05

#: Generation stays below this many calls per static instruction.
GENERATION_CALLS_PER_INSTRUCTION = 6


def _calls(fn):
    """``(fn(), number of Python calls it made)``."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        value = fn()
    finally:
        sys.setprofile(None)
    return value, calls


def _set_up(profile):
    program = generate_program(profile)
    return program, Simulator(program, StrategySpec(kind="issue"), seed=1)


def test_set_up_calls_within_budget():
    profile = profile_for("adpcm_enc")
    _set_up(profile)
    _, calls = _calls(lambda: _set_up(profile))
    assert calls <= SETUP_BUDGET, (
        f"{calls} Python calls to generate and construct adpcm_enc, "
        f"budget {SETUP_BUDGET:.0f} ({SETUP_CALLS} + 5%)")


@pytest.mark.parametrize("name", ["gzip", "adpcm_enc", "mcf"])
def test_generation_calls_per_static_instruction(name):
    profile = profile_for(name)
    generate_program(profile)
    program, calls = _calls(lambda: generate_program(profile))
    per_instruction = calls / program.static_size
    assert per_instruction < GENERATION_CALLS_PER_INSTRUCTION, (
        f"{name}: {per_instruction:.2f} Python calls per static "
        f"instruction to generate, budget {GENERATION_CALLS_PER_INSTRUCTION}")
