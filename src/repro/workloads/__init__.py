"""Synthetic workloads standing in for the paper's Alpha SPEC/MediaBench runs.

The paper drives its timing simulator with precompiled Alpha binaries
executed by SimpleScalar's ``sim-fast``.  Neither the binaries nor an Alpha
functional simulator is available here, so this package provides the closest
synthetic equivalent: a **program generator** that emits executable
control-flow graphs whose statistical structure (instruction mix, basic
block sizes, branch behaviour, register dependency distances, memory
locality, static code footprint) is tuned per benchmark, and a **functional
simulator** that walks those graphs to produce the committed dynamic
instruction stream the timing model consumes.

Cluster-assignment quality depends only on that dynamic structure — which
instructions depend on which, how far apart producers and consumers are,
how predictable the branches are — so the substitution preserves the
behaviour the paper's experiments measure.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.workloads.program": (
        "AddressStream", "BasicBlock", "BiasedBranch", "BranchBehavior",
        "LoopBranch", "PatternBranch", "Program", "RandomStream",
        "StrideStream",
    ),
    "repro.workloads.profiles": ("WorkloadProfile", "profile_for"),
    "repro.workloads.generator": (
        "PHASE_SEGMENT_KINDS", "generate_phased_program", "generate_program",
        "phased_program",
    ),
    "repro.workloads.execution": ("FunctionalSimulator",),
    "repro.workloads.suites": (
        "MEDIABENCH", "SPECINT2000", "SPECINT2000_SELECTED",
    ),
    "repro.workloads.trace_io": (
        "TraceReader", "open_trace", "record_trace", "write_trace",
    ),
    "repro.workloads.validation": ("StreamStatistics", "measure_stream"),
})
