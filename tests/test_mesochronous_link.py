"""Tests of the bi-synchronous FIFO and the mesochronous link stage.

The central claims from Section V, verified exhaustively over skews:

* a flit entering the stage in slot ``s`` leaves in slot ``s + 1`` of the
  reading clock — never earlier, never later — for every skew within half
  a clock period;
* the three words of a flit are presented in consecutive reading-clock
  cycles;
* the 4-word FIFO never overflows.
"""

from __future__ import annotations

import pytest

from repro.clocking.clock import ClockDomain
from repro.core.exceptions import ConfigurationError, SimulationError
from repro.core.words import WordFormat, encode_header
from repro.link.bisync_fifo import BisyncFifo
from repro.link.mesochronous import MesochronousLinkStage, make_stage
from repro.simulation.engine import Engine
from repro.simulation.signals import IDLE, Phit

PERIOD = 2000  # 500 MHz in ps


class TestBisyncFifo:
    def test_forward_delay_gates_visibility(self):
        fifo = BisyncFifo("f", 4, forward_delay_ps=1000)
        phit = Phit(word=1, valid=True, eop=False)
        fifo.write(phit, time_ps=0)
        assert fifo.readable(999) == 0
        assert fifo.readable(1000) == 1
        assert fifo.peek(500) is None
        assert fifo.peek(1500).word == 1

    def test_fifo_order(self):
        fifo = BisyncFifo("f", 4, forward_delay_ps=0)
        for i in range(3):
            fifo.write(Phit(word=i, valid=True, eop=False), time_ps=i)
        assert [fifo.pop(10).word for _ in range(3)] == [0, 1, 2]

    def test_overflow_raises(self):
        fifo = BisyncFifo("f", 2, forward_delay_ps=0)
        fifo.write(IDLE, 0)
        fifo.write(IDLE, 0)
        with pytest.raises(SimulationError):
            fifo.write(IDLE, 0)

    def test_underflow_raises(self):
        fifo = BisyncFifo("f", 2, forward_delay_ps=0)
        with pytest.raises(SimulationError):
            fifo.pop(100)

    def test_max_occupancy_tracked(self):
        fifo = BisyncFifo("f", 4, forward_delay_ps=0)
        fifo.write(IDLE, 0)
        fifo.write(IDLE, 0)
        fifo.pop(1)
        assert fifo.max_occupancy == 2

    def test_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            BisyncFifo("f", 0, 0)


class _SlotAlignedSource:
    """Drives one flit per scripted slot, slot-aligned like an NI/router."""

    def __init__(self, wire, fmt, slots):
        self.wire = wire
        self.fmt = fmt
        self.slots = set(slots)

    def compute(self, cycle, time_ps):
        pass

    def commit(self, cycle, time_ps):
        slot, pos = divmod(cycle, self.fmt.flit_size)
        if slot in self.slots:
            self.wire.drive(Phit(word=(slot << 4) | pos, valid=True,
                                 eop=pos == self.fmt.flit_size - 1,
                                 word_index=pos))


class _SlotProbe:
    """Records (reader_slot, pos, word) for every valid sample.

    A wire sample at cycle ``c`` observes the value committed at ``c - 1``,
    so the slot/position attribution uses ``c - 1`` — the cycle the reader
    FSM actually drove the word (link occupancy time).
    """

    def __init__(self, wire, fmt):
        self.wire = wire
        self.fmt = fmt
        self.received: list[tuple[int, int, int]] = []

    def compute(self, cycle, time_ps):
        phit = self.wire.sample()
        if phit.valid:
            slot, pos = divmod(cycle - 1, self.fmt.flit_size)
            self.received.append((slot, pos, phit.word))

    def commit(self, cycle, time_ps):
        pass


def _run_stage(fmt, writer_phase, reader_phase, slots, n_slots=12):
    engine = Engine()
    wclk = ClockDomain("w", period_ps=PERIOD, phase_ps=writer_phase)
    rclk = ClockDomain("r", period_ps=PERIOD, phase_ps=reader_phase)
    stage = make_stage(engine, "stage", wclk, rclk, fmt)
    source = _SlotAlignedSource(stage.writer.inputs[0], fmt, slots)
    probe = _SlotProbe(stage.outputs[0], fmt)
    engine.add_component(wclk, source)
    engine.add_wire(wclk, stage.writer.inputs[0])
    engine.add_component(rclk, probe)
    engine.run_until(n_slots * fmt.flit_size * PERIOD + PERIOD)
    return stage, probe


class TestMesochronousStage:
    @pytest.mark.parametrize("writer_phase", [0, 250, 500, 750, 999])
    @pytest.mark.parametrize("reader_phase", [0, 250, 500, 750, 999])
    def test_exactly_one_slot_latency_for_all_skews(
            self, fmt, writer_phase, reader_phase):
        """Flit sent in slot s arrives in reader slot s+1, any skew."""
        sent_slots = [2, 3, 6]
        stage, probe = _run_stage(fmt, writer_phase, reader_phase,
                                  sent_slots)
        arrival_slots = sorted({slot for slot, _, _ in probe.received})
        assert arrival_slots == [s + 1 for s in sent_slots]

    @pytest.mark.parametrize("reader_phase", [0, 333, 666, 999])
    def test_words_consecutive_and_in_order(self, fmt, reader_phase):
        stage, probe = _run_stage(fmt, 0, reader_phase, [4])
        assert [(pos, word & 0xF) for _, pos, word in probe.received] == \
            [(0, 0), (1, 1), (2, 2)]

    @pytest.mark.parametrize("writer_phase", [0, 400, 800, 999])
    @pytest.mark.parametrize("reader_phase", [0, 400, 800, 999])
    def test_fifo_never_exceeds_four_words(self, fmt, writer_phase,
                                           reader_phase):
        """Back-to-back flits keep the 4-word FIFO within capacity."""
        stage, probe = _run_stage(fmt, writer_phase, reader_phase,
                                  list(range(1, 10)))
        assert stage.fifo.max_occupancy <= 4
        assert len(probe.received) == 9 * fmt.flit_size

    def test_back_to_back_flits_preserved(self, fmt):
        stage, probe = _run_stage(fmt, 600, 100, [1, 2, 3])
        slots = [slot for slot, pos, _ in probe.received if pos == 0]
        assert slots == [2, 3, 4]

    def test_plesiochronous_clocks_rejected(self, fmt):
        wclk = ClockDomain("w", period_ps=2000)
        rclk = ClockDomain("r", period_ps=2001)
        with pytest.raises(ConfigurationError):
            MesochronousLinkStage("s", wclk, rclk, fmt)

    def test_fifo_must_hold_a_flit(self):
        """The 4-word FIFO holds a 3-word flit plus slack, not a 4-word
        one."""
        wclk = ClockDomain("w", period_ps=2000)
        rclk = ClockDomain("r", period_ps=2000)
        with pytest.raises(ConfigurationError, match="4-word flit"):
            MesochronousLinkStage("s", wclk, rclk, WordFormat(flit_size=4))

    def test_skew_reporting(self, fmt):
        wclk = ClockDomain("w", period_ps=2000, phase_ps=100)
        rclk = ClockDomain("r", period_ps=2000, phase_ps=700)
        stage = MesochronousLinkStage("s", wclk, rclk, fmt)
        assert stage.writer_clock.skew_to(stage.reader_clock) == 600
