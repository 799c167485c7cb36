"""Structural gate counting: the primitives of the area model.

Area estimates are composed from two primitives — flip-flops and
NAND2-equivalent gates of random logic — plus the FIFO macros.  The
:class:`GateCounts` accumulator keeps the two populations separate so the
same structural description prices out on any
:class:`~repro.synthesis.technology.Technology`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.exceptions import ConfigurationError
from repro.synthesis.technology import Technology

__all__ = ["GateCounts", "mux_tree_gates", "one_hot_encoder_gates",
           "counter_gates", "comparator_gates", "fifo_area_um2"]

#: NAND2 equivalents of one 2:1 mux bit.
MUX2_NAND_EQUIV = 1.75


@dataclass
class GateCounts:
    """An accumulating structural bill of materials."""

    flipflops: float = field(default=0.0, init=False)
    nand2: float = field(default=0.0, init=False)

    def add_registers(self, bits: float) -> "GateCounts":
        """Add a register bank of ``bits`` flip-flops."""
        if bits < 0:
            raise ConfigurationError("register bits must be >= 0")
        self.flipflops += bits
        return self

    def add_logic(self, nand2_equiv: float) -> "GateCounts":
        """Add random logic measured in NAND2 equivalents."""
        if nand2_equiv < 0:
            raise ConfigurationError("gate count must be >= 0")
        self.nand2 += nand2_equiv
        return self

    def area_um2(self, tech: Technology) -> float:
        """Price the bill on a technology."""
        return (self.flipflops * tech.flipflop_area_um2 +
                self.nand2 * tech.nand2_area_um2)


def mux_tree_gates(n_inputs: int, width_bits: int) -> float:
    """NAND2 equivalents of an ``n``-input mux of ``width_bits`` bits.

    A tree of ``n - 1`` two-input muxes per bit.
    """
    if n_inputs < 1 or width_bits < 0:
        raise ConfigurationError("mux needs >= 1 input and width >= 0")
    return (n_inputs - 1) * width_bits * MUX2_NAND_EQUIV


def one_hot_encoder_gates(n_outputs: int) -> float:
    """NAND2 equivalents of a binary-to-one-hot port encoder."""
    if n_outputs < 1:
        raise ConfigurationError("encoder needs >= 1 output")
    return n_outputs * 2.0


def counter_gates(bits: int) -> float:
    """NAND2 equivalents of an up/down counter's increment logic.

    The counter's state bits are registers and must be added separately.
    """
    if bits < 0:
        raise ConfigurationError("counter bits must be >= 0")
    return bits * 6.0


def comparator_gates(bits: int) -> float:
    """NAND2 equivalents of an equality comparator."""
    if bits < 0:
        raise ConfigurationError("comparator bits must be >= 0")
    return bits * 3.0


def fifo_area_um2(words: int, width_bits: int, tech: Technology, *,
                  custom: bool = True) -> float:
    """Area of a bi-synchronous FIFO macro.

    ``custom=True`` prices the embedded FIFO of [18] (the paper quotes
    ~1,500 µm² for 4x32); ``custom=False`` prices a standard-cell
    flip-flop FIFO with gray-pointer synchronisers ([14]; ~3,300 µm²).
    """
    if words < 1 or width_bits < 1:
        raise ConfigurationError("FIFO needs >= 1 word and >= 1 bit")
    bits = words * width_bits
    if custom:
        return (bits * tech.custom_fifo_bit_area_um2 +
                tech.custom_fifo_overhead_um2)
    return (bits * tech.flipflop_area_um2 + tech.fifo_sync_overhead_um2)


def clog2(n: int) -> int:
    """Ceiling log2 for port/counter sizing (min 1)."""
    if n < 1:
        raise ConfigurationError("clog2 needs n >= 1")
    return max(1, math.ceil(math.log2(n)))
