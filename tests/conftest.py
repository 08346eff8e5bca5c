"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import tempfile

import pytest

from repro.assign.base import AssignmentContext
from repro.cluster.config import MachineConfig
from repro.cluster.interconnect import Interconnect
from repro.isa import DynInst, Instruction, Opcode, int_reg
from repro.runtime import settings
from repro.workloads.generator import generate_program
from repro.workloads.profiles import WorkloadProfile


def pytest_configure(config):
    # Experiment helpers route simulations through repro.runtime, whose
    # result cache defaults to ~/.cache/repro.  A unit run must neither
    # read results persisted by an older checkout nor pollute the user's
    # real cache with tiny-budget runs, so each session gets a throwaway
    # cache directory unless the caller explicitly pinned one.
    os.environ.setdefault(
        "REPRO_CACHE_DIR", tempfile.mkdtemp(prefix="repro-test-cache-")
    )


@pytest.fixture
def isolated_runtime(tmp_path, monkeypatch):
    """A clean runtime for one test: no ``REPRO_*`` knob from the
    caller's shell, a private cache root and no ``configure`` override.
    Files opt in with ``pytestmark``; the rest share the session cache."""
    for knob in settings.KNOBS.values():
        monkeypatch.delenv(knob.env, raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    cleared = dict.fromkeys(settings.CONFIGURABLE)
    settings.configure(**cleared)
    yield
    settings.configure(**cleared)


@pytest.fixture
def config():
    """The paper's baseline machine configuration."""
    return MachineConfig()


@pytest.fixture
def context(config):
    """Assignment context for the baseline machine."""
    return AssignmentContext(config, Interconnect(config))


@pytest.fixture
def tiny_profile():
    """A very small workload, cheap enough for per-test simulation."""
    return WorkloadProfile(
        name="tiny",
        num_funcs=2,
        loops_per_func=2,
        diamonds_per_loop=1,
        mean_block_size=4.0,
        loop_trip_mean=8,
        loop_trip_jitter=2,
        working_set_kb=32,
        seed=7,
    )


@pytest.fixture
def tiny_program(tiny_profile):
    """Generated program for the tiny profile."""
    return generate_program(tiny_profile)


def make_dyn(seq: int, opcode=Opcode.ADD, dest=8, srcs=(1, 2), pc=None) -> DynInst:
    """Build a standalone dynamic instruction for unit tests."""
    from repro.isa.opcodes import MEMORY_OPCODES

    static = Instruction(
        pc if pc is not None else 0x1000 + 4 * seq,
        opcode,
        dest,
        tuple(srcs),
        mem_stream_id=0 if opcode in MEMORY_OPCODES else None,
    )
    dyn = DynInst(static, seq)
    if static.is_mem:
        dyn.mem_addr = 0x8000 + 8 * seq
    return dyn


def link(consumer: DynInst, *producers: DynInst) -> DynInst:
    """Wire producer DynInsts into a consumer's renamed sources."""
    consumer.src_producers = tuple(producers)
    consumer.src_forwarded = tuple(p is not None for p in producers)
    return consumer
