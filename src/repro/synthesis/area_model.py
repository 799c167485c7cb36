"""Structural area models of the aelite router, links, NI and baseline.

Every model walks the actual micro-architecture (Sections IV and V of the
paper) and counts registers and gates:

* **aelite router** — three pipeline registers banks (data + valid + EoP
  sideband), an HPU per input (path shifter + port register), a one-hot
  encoded switch (mux tree per output), and a small amount of control.
  No routing tables, no arbiter, no flow control: that absence is exactly
  why the area lands a factor ~5 below the GS+BE baseline.
* **mesochronous link stage** — a 4-word bi-synchronous FIFO plus the
  re-alignment FSM.
* **NI** (not separately evaluated in the paper; provided for roll-ups)
  — per-channel queues, slot table, packetiser and credit counters.
* **Æthereal GS+BE router** — the comparison point: adds per-input BE
  queues, BE routing state, round-robin arbiters per output, link-level
  flow-control counters and a second VC's worth of output muxing.

A single netlist-overhead factor per model (clock tree, DFT, synthesis
slack) is calibrated against the paper's anchors; all scaling behaviour
(linear in arity, linear in width) is structural.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.exceptions import ConfigurationError
from repro.core.words import WordFormat
from repro.synthesis.gates import (GateCounts, clog2, comparator_gates,
                                   counter_gates, fifo_area_um2,
                                   mux_tree_gates, one_hot_encoder_gates)
from repro.synthesis.technology import TECH_90LP, TECH_130, Technology

__all__ = ["RouterAreaModel", "link_stage_area_um2", "ni_area_um2",
           "aethereal_gsbe_router_area_um2", "mesochronous_router_area_um2"]

#: Sideband bits accompanying every data word (valid + end-of-packet).
SIDEBAND_BITS = 2

#: Netlist overhead of the aelite router model (calibrated once against
#: the 14,000 um^2 anchor for arity-5 / 32-bit).
ROUTER_OVERHEAD = 1.05

#: Netlist overhead of the GS+BE baseline model (calibrated once against
#: the 0.13 mm^2 @ 130 nm anchor from [8]).
GSBE_OVERHEAD = 1.43

#: Area of the link-stage FSM (position counter, valid/accept logic),
#: NAND2 equivalents.
LINK_FSM_GATES = 260
LINK_FSM_REGISTERS = 6

#: Depth of the link stage's custom bi-synchronous FIFO (Section V).
LINK_FIFO_WORDS = 4
#: Depth of an NI channel queue and of a GS+BE router's BE input queue.
QUEUE_WORDS = 8
#: Area multiplier of the high-effort router in the mesochronous figure.
MESOCHRONOUS_EFFORT_FACTOR = 1.3


@dataclass(frozen=True)
class RouterAreaModel:
    """Structural model of one aelite router instance."""

    n_inputs: int
    n_outputs: int
    fmt: WordFormat = WordFormat()

    def __post_init__(self) -> None:
        if self.n_inputs < 1 or self.n_outputs < 1:
            raise ConfigurationError(
                "router needs at least one input and one output")

    def gate_counts(self) -> GateCounts:
        """Walk the micro-architecture and count registers and gates."""
        width = self.fmt.data_width + SIDEBAND_BITS
        counts = GateCounts()
        # Stage 1: one word register per input.
        counts.add_registers(self.n_inputs * width)
        # Stage 2: HPU output register (word + one-hot port select).
        counts.add_registers(self.n_inputs * (width + self.n_outputs))
        # Stage 3: registered outputs.
        counts.add_registers(self.n_outputs * width)
        # HPU logic per input: shift mux over the path field, port hold
        # register logic, EoP tracking.
        hpu_gates = self.fmt.path_bits * 2.0 + 40.0
        counts.add_logic(self.n_inputs * hpu_gates)
        counts.add_logic(self.n_inputs *
                         one_hot_encoder_gates(self.n_outputs))
        # Switch: an n_inputs-wide mux tree per output.
        counts.add_logic(self.n_outputs *
                         mux_tree_gates(self.n_inputs, width))
        # Valid/EoP distribution and miscellaneous control.
        counts.add_logic(100.0 + 30.0 * (self.n_inputs + self.n_outputs))
        return counts

    def base_area_um2(self, tech: Technology = TECH_90LP) -> float:
        """Cell area at nominal synthesis effort."""
        return self.gate_counts().area_um2(tech) * ROUTER_OVERHEAD


def link_stage_area_um2(fmt: WordFormat = WordFormat()) -> float:
    """Area of one mesochronous link pipeline stage (custom FIFO + FSM)
    at 90 nm."""
    width = fmt.data_width + SIDEBAND_BITS
    fifo = fifo_area_um2(LINK_FIFO_WORDS, width, TECH_90LP)
    fsm = GateCounts()
    fsm.add_registers(LINK_FSM_REGISTERS)
    fsm.add_logic(LINK_FSM_GATES)
    return fifo + fsm.area_um2(TECH_90LP)


def mesochronous_router_area_um2(n_inputs: int, n_outputs: int,
                                 fmt: WordFormat = WordFormat()) -> float:
    """A router plus one link pipeline stage per input (90 nm).

    This reproduces the paper's "complete arity-5 router with
    mesochronous links ... in the order of 0.032 mm^2": the router at
    high synthesis effort plus ``n_inputs`` link stages.
    """
    router = RouterAreaModel(n_inputs, n_outputs, fmt)
    stages = n_inputs * link_stage_area_um2(fmt)
    return router.base_area_um2() * MESOCHRONOUS_EFFORT_FACTOR + stages


def ni_area_um2(n_tx_channels: int, n_rx_channels: int, table_size: int,
                fmt: WordFormat = WordFormat()) -> float:
    """Structural estimate of a network interface (for network roll-ups).

    The paper does not report NI synthesis; this model exists so that
    system-level cost sweeps can include NIs consistently.  Components:
    per-channel TX/RX queues, the slot table, the packetiser datapath and
    per-channel credit counters, priced at 90 nm.
    """
    if n_tx_channels < 0 or n_rx_channels < 0 or table_size < 1:
        raise ConfigurationError("invalid NI geometry")
    width = fmt.data_width + SIDEBAND_BITS
    counts = GateCounts()
    queues = (n_tx_channels + n_rx_channels) * fifo_area_um2(
        QUEUE_WORDS, width, TECH_90LP)
    # Slot table: one channel id per slot.
    id_bits = clog2(max(n_tx_channels, 2))
    counts.add_registers(table_size * id_bits)
    counts.add_logic(comparator_gates(id_bits) * table_size / 4)
    # Packetiser: header composition register + shift/merge logic.
    counts.add_registers(2 * width)
    counts.add_logic(fmt.data_width * 3.0 + 120.0)
    # Credit counters: one per TX channel.
    counts.add_registers(n_tx_channels * 8)
    counts.add_logic(n_tx_channels * counter_gates(8))
    return queues + counts.area_um2(TECH_90LP)


def aethereal_gsbe_router_area_um2(arity: int = 5,
                                   fmt: WordFormat = WordFormat(), *,
                                   tech: Technology = TECH_130) -> float:
    """Structural model of the combined GS+BE Æthereal router ([8]).

    Everything the GS-only aelite router sheds is priced here: per-input
    best-effort queues, a second virtual channel through the switch,
    per-output round-robin arbiters, BE header parsing with in-band
    decoding, and link-level flow-control counters.  Calibrated to the
    published 0.13 mm^2 at 500 MHz in 130 nm.
    """
    if arity < 1:
        raise ConfigurationError("arity must be >= 1")
    width = fmt.data_width + SIDEBAND_BITS
    counts = RouterAreaModel(arity, arity, fmt).gate_counts()
    # BE input queues (flip-flop based; these dominate).
    counts.add_registers(arity * QUEUE_WORDS * width)
    counts.add_logic(arity * (counter_gates(clog2(QUEUE_WORDS)) + 40))
    # Second VC through the switch: the output mux doubles.
    counts.add_logic(arity * mux_tree_gates(2, width))
    counts.add_logic(arity * mux_tree_gates(arity, width))
    # Per-output round-robin arbiters over `arity` requesters.
    counts.add_logic(arity * (arity * 12.0 + 30.0))
    counts.add_registers(arity * clog2(arity))
    # BE routing: in-band header decode and per-input packet state.
    counts.add_logic(arity * (fmt.data_width * 1.5 + 80.0))
    counts.add_registers(arity * 12)
    # Link-level flow control: credit counters both directions.
    counts.add_registers(2 * arity * 6)
    counts.add_logic(2 * arity * counter_gates(6))
    return counts.area_um2(tech) * GSBE_OVERHEAD
