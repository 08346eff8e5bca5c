"""Compact RISC-style instruction set used by the CTCP simulator.

The paper simulates precompiled Alpha binaries.  This reproduction replaces
the Alpha ISA with a small register-register ISA whose *instruction classes*
map one-to-one onto the special-purpose functional units of the paper's
cluster design (two simple integer ALUs, one integer memory unit, one branch
unit, one complex integer unit, one basic FP unit, one complex FP unit and
one FP memory unit per cluster).  Opcode semantics beyond class membership
are irrelevant to cluster assignment, so none are modelled.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.isa.opcodes": (
        "BRANCH_OPCODES", "EXEC_LATENCY", "ISSUE_LATENCY", "MEMORY_OPCODES",
        "Opcode", "OpClass", "op_class",
    ),
    "repro.isa.registers": (
        "NUM_FP_REGS", "NUM_INT_REGS", "Register", "RegisterFile", "fp_reg",
        "int_reg",
    ),
    "repro.isa.instruction": ("BranchKind", "DynInst", "Instruction"),
})
