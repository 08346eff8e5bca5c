"""Architectural register model.

The synthetic ISA has 32 integer and 32 floating-point registers, mirroring
the Alpha architectural state the paper's binaries used.  Registers are
represented as small integers: ``0..31`` are integer registers, ``32..63``
are floating-point registers.  This flat encoding keeps the renaming and
dependence-tracking hot paths allocation-free.
"""

from __future__ import annotations

from typing import List, Optional

NUM_INT_REGS = 32
NUM_FP_REGS = 32
NUM_REGS = NUM_INT_REGS + NUM_FP_REGS

#: Type alias for a register id (plain int for speed).
Register = int


def int_reg(index: int) -> Register:
    """Return the register id of integer register ``index``."""
    if not 0 <= index < NUM_INT_REGS:
        raise ValueError(f"integer register index out of range: {index}")
    return index


def fp_reg(index: int) -> Register:
    """Return the register id of floating-point register ``index``."""
    if not 0 <= index < NUM_FP_REGS:
        raise ValueError(f"fp register index out of range: {index}")
    return NUM_INT_REGS + index


def is_fp_reg(reg: Register) -> bool:
    """True if ``reg`` names a floating-point register."""
    return reg >= NUM_INT_REGS


def reg_name(reg: Register) -> str:
    """Human-readable name (``r0..r31``, ``f0..f31``)."""
    if reg < NUM_INT_REGS:
        return f"r{reg}"
    return f"f{reg - NUM_INT_REGS}"


class RegisterFile:
    """Tracks, per architectural register, the last producer.

    The timing simulator uses this during rename to discover, for each
    source operand, which in-flight instruction (if any) produces it.  The
    stored values are opaque tokens (dynamic-instruction objects or
    sequence numbers); ``None`` means the architectural value is already in
    the register file.  ``producers`` is the table itself, indexed by
    register id; the pipeline's rename and retire paths index it directly.
    """

    __slots__ = ("producers",)

    def __init__(self) -> None:
        self.producers: List[Optional[object]] = [None] * NUM_REGS

    def producer(self, reg: Register) -> Optional[object]:
        """Return the token of the in-flight producer of ``reg``."""
        return self.producers[reg]

    def set_producer(self, reg: Register, token: object) -> None:
        """Record ``token`` as the newest producer of ``reg``."""
        self.producers[reg] = token

    def clear_producer(self, reg: Register, token: object) -> None:
        """Forget ``token`` if it is still the newest producer of ``reg``.

        Called at retirement: once the producing instruction has written
        the architectural register file, consumers read the value from the
        register file rather than via forwarding.
        """
        if self.producers[reg] is token:
            self.producers[reg] = None

    def reset(self) -> None:
        """Forget all producers (pipeline flush of the rename state)."""
        for i in range(NUM_REGS):
            self.producers[i] = None
