"""Cycle-accurate tests of the HPU, switch and three-stage router."""

from __future__ import annotations

import pytest

from repro.clocking.clock import ClockDomain
from repro.core.exceptions import ConfigurationError, SimulationError
from repro.core.flits import Flit
from repro.core.words import WordFormat, encode_header
from repro.router.hpu import HeaderParsingUnit
from repro.router.switch import Switch
from repro.router.synchronous import SynchronousRouter
from repro.simulation.engine import Engine
from repro.simulation.signals import IDLE, Phit


def _header_phit(fmt, ports, eop=False, queue=0):
    word = encode_header(ports, queue=queue, credits=0, fmt=fmt)
    return Phit(word=word, valid=True, eop=eop, word_index=0)


class TestHPU:
    def test_selects_port_from_header(self, fmt):
        hpu = HeaderParsingUnit(fmt)
        port, routed = hpu.process(_header_phit(fmt, [5, 2]))
        assert port == 5
        # Path shifted: next router would see port 2.
        assert routed.word & fmt.max_port == 2

    def test_holds_port_until_eop(self, fmt):
        hpu = HeaderParsingUnit(fmt)
        hpu.process(_header_phit(fmt, [4]))
        port, _ = hpu.process(Phit(word=123, valid=True, eop=False,
                                   word_index=1))
        assert port == 4
        assert hpu.busy
        port, _ = hpu.process(Phit(word=456, valid=True, eop=True,
                                   word_index=2))
        assert port == 4
        assert not hpu.busy

    def test_single_word_packet_resets_immediately(self, fmt):
        hpu = HeaderParsingUnit(fmt)
        port, _ = hpu.process(_header_phit(fmt, [3], eop=True))
        assert port == 3
        assert not hpu.busy

    def test_idle_words_pass_through(self, fmt):
        hpu = HeaderParsingUnit(fmt)
        port, phit = hpu.process(IDLE)
        assert port is None
        assert not phit.valid


class TestSwitch:
    def test_routes_distinct_outputs(self):
        switch = Switch(3)
        p0 = Phit(word=1, valid=True, eop=False)
        p1 = Phit(word=2, valid=True, eop=False)
        outputs = switch.route([(2, p0), (0, p1), (None, IDLE)])
        assert outputs[2].word == 1
        assert outputs[0].word == 2
        assert not outputs[1].valid

    def test_contention_raises(self):
        switch = Switch(2)
        phit = Phit(word=1, valid=True, eop=False)
        with pytest.raises(SimulationError):
            switch.route([(1, phit), (1, phit)])

    def test_invalid_port_raises(self):
        switch = Switch(2)
        phit = Phit(word=1, valid=True, eop=False)
        with pytest.raises(SimulationError):
            switch.route([(5, phit)])

    def test_invalid_phit_ignored_even_with_port(self):
        switch = Switch(2)
        outputs = switch.route([(1, IDLE)])
        assert not outputs[1].valid


class _WireDriver:
    """Drives a scripted sequence of phits onto a wire."""

    def __init__(self, wire, script):
        self.wire = wire
        self.script = dict(script)

    def compute(self, cycle, time_ps):
        pass

    def commit(self, cycle, time_ps):
        self.wire.drive(self.script.get(cycle, IDLE))


class _WireProbe:
    def __init__(self, wire):
        self.wire = wire
        self.samples: list[Phit] = []

    def compute(self, cycle, time_ps):
        self.samples.append(self.wire.sample())

    def commit(self, cycle, time_ps):
        pass


class TestSynchronousRouter:
    def _run(self, fmt, script, n_cycles=12, n_ports=2):
        engine = Engine()
        clock = ClockDomain("clk", period_ps=2000)
        router = SynchronousRouter("r", n_ports, n_ports, fmt)
        driver = _WireDriver(router.inputs[0], script)
        probes = [_WireProbe(router.outputs[o]) for o in range(n_ports)]
        for probe in probes:
            engine.add_component(clock, probe)
        engine.add_component(clock, driver)
        engine.add_component(clock, router)
        engine.add_wire(clock, router.inputs[0])
        for o in range(n_ports):
            engine.add_wire(clock, router.outputs[o])
        engine.run_until(n_cycles * 2000)
        return probes

    def test_three_cycle_forwarding(self, fmt):
        """A word on the input wire appears on the output 3 cycles later."""
        script = {0: _header_phit(fmt, [1], eop=True)}
        probes = self._run(fmt, script)
        # Driver commits at cycle 0 -> wire carries it at cycle 1's compute;
        # the router needs 3 more cycles; the probe samples it at cycle 4.
        valid_at = [i for i, p in enumerate(probes[1].samples) if p.valid]
        assert valid_at == [4]

    def test_flit_words_stay_consecutive(self, fmt):
        header = _header_phit(fmt, [0])
        w1 = Phit(word=0xAA, valid=True, eop=False, word_index=1)
        w2 = Phit(word=0xBB, valid=True, eop=True, word_index=2)
        probes = self._run(fmt, {0: header, 1: w1, 2: w2})
        valid_at = [i for i, p in enumerate(probes[0].samples) if p.valid]
        assert valid_at == [4, 5, 6]
        words = [probes[0].samples[i].word for i in valid_at[1:]]
        assert words == [0xAA, 0xBB]

    def test_packet_follows_single_header(self, fmt):
        """Only the first word carries routing; the rest follow its port."""
        header = _header_phit(fmt, [1])
        w1 = Phit(word=1, valid=True, eop=False, word_index=1)
        w2 = Phit(word=2, valid=True, eop=True, word_index=2)
        probes = self._run(fmt, {0: header, 1: w1, 2: w2})
        assert sum(p.valid for p in probes[1].samples) == 3
        assert sum(p.valid for p in probes[0].samples) == 0

    def test_path_shift_visible_downstream(self, fmt):
        """The forwarded header selects the *next* hop's port."""
        script = {0: _header_phit(fmt, [1, 3], eop=True)}
        probes = self._run(fmt, script)
        forwarded = next(p for p in probes[1].samples if p.valid)
        assert forwarded.word & fmt.max_port == 3

    def test_contention_detected(self, fmt):
        """Two inputs sending to one output is a schedule violation."""
        engine = Engine()
        clock = ClockDomain("clk", period_ps=2000)
        router = SynchronousRouter("r", 2, 2, fmt)
        d0 = _WireDriver(router.inputs[0],
                         {0: _header_phit(fmt, [0], eop=True)})
        d1 = _WireDriver(router.inputs[1],
                         {0: _header_phit(fmt, [0], eop=True)})
        engine.add_component(clock, d0)
        engine.add_component(clock, d1)
        engine.add_component(clock, router)
        for wire in router.inputs + router.outputs:
            engine.add_wire(clock, wire)
        with pytest.raises(SimulationError):
            engine.run_until(10 * 2000)

    def test_bad_geometry_rejected(self, fmt):
        with pytest.raises(ConfigurationError):
            SynchronousRouter("r", 0, 2, fmt)

