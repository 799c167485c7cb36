"""Tests for clock domains and the two-phase event kernel."""

from __future__ import annotations

import pytest

from repro.clocking.clock import PS_PER_S, ClockDomain, period_ps_from_hz
from repro.clocking.domains import (mesochronous_domains,
                                    plesiochronous_domains,
                                    synchronous_domains)
from repro.core.exceptions import ConfigurationError
from repro.simulation.engine import Engine
from repro.simulation.signals import IDLE, Phit, WordWire


class TestClockDomain:
    def test_frequency(self):
        clock = ClockDomain("c", period_ps=2000)
        assert clock.frequency_hz == pytest.approx(500e6)

    def test_period_from_hz(self):
        assert period_ps_from_hz(500e6) == 2000
        assert period_ps_from_hz(1e9) == 1000

    def test_edges(self):
        clock = ClockDomain("c", period_ps=10, phase_ps=3)
        assert clock.edge_time(0) == 3
        assert clock.edge_time(2) == 23
        assert list(clock.edges_until(25)) == [(0, 3), (1, 13), (2, 23)]

    def test_cycles_in(self):
        clock = ClockDomain("c", period_ps=10, phase_ps=3)
        assert clock.cycles_in(3) == 0
        assert clock.cycles_in(4) == 1
        assert clock.cycles_in(24) == 3

    def test_skew_signed_and_bounded(self):
        a = ClockDomain("a", period_ps=100, phase_ps=0)
        b = ClockDomain("b", period_ps=100, phase_ps=30)
        assert a.skew_to(b) == 30
        assert b.skew_to(a) == -30

    def test_skew_wraps_to_half_period(self):
        a = ClockDomain("a", period_ps=100, phase_ps=0)
        b = ClockDomain("b", period_ps=100, phase_ps=80)
        assert a.skew_to(b) == -20

    def test_skew_between_plesiochronous_undefined(self):
        a = ClockDomain("a", period_ps=100)
        b = ClockDomain("b", period_ps=101)
        with pytest.raises(ConfigurationError):
            a.skew_to(b)

    def test_phase_must_be_within_period(self):
        with pytest.raises(ConfigurationError):
            ClockDomain("c", period_ps=10, phase_ps=10)


class TestDomainFactories:
    def test_synchronous_shares_one_clock(self):
        domains = synchronous_domains(["a", "b"], 500e6)
        assert domains["a"] is domains["b"]

    def test_mesochronous_equal_periods_bounded_phase(self):
        domains = mesochronous_domains(
            [f"n{i}" for i in range(20)], 500e6, seed=5)
        periods = {d.period_ps for d in domains.values()}
        assert len(periods) == 1
        period = periods.pop()
        for a in domains.values():
            for b in domains.values():
                assert abs(a.skew_to(b)) <= period // 2

    def test_mesochronous_deterministic_per_seed(self):
        d1 = mesochronous_domains(["a", "b", "c"], 500e6, seed=9)
        d2 = mesochronous_domains(["a", "b", "c"], 500e6, seed=9)
        assert d1 == d2

    def test_plesiochronous_periods_within_ppm(self):
        nominal = period_ps_from_hz(500e6)
        domains = plesiochronous_domains(
            [f"n{i}" for i in range(10)], 500e6, ppm=1000, seed=2)
        for d in domains.values():
            assert abs(d.period_ps - nominal) <= nominal * 1000 / 1e6 + 1


class _Counter:
    """Test component: counts edges, checks two-phase ordering."""

    def __init__(self):
        self.compute_calls: list[int] = []
        self.commit_calls: list[int] = []

    def compute(self, cycle, time_ps):
        self.compute_calls.append(cycle)

    def commit(self, cycle, time_ps):
        # Compute of this cycle must already have happened.
        assert self.compute_calls[-1] == cycle
        self.commit_calls.append(cycle)


class _Producer:
    def __init__(self, wire):
        self.wire = wire

    def compute(self, cycle, time_ps):
        pass

    def commit(self, cycle, time_ps):
        self.wire.drive(Phit(word=cycle, valid=True, eop=False))


class _Consumer:
    def __init__(self, wire):
        self.wire = wire
        self.seen: list[int | None] = []

    def compute(self, cycle, time_ps):
        phit = self.wire.sample()
        self.seen.append(phit.word if phit.valid else None)

    def commit(self, cycle, time_ps):
        pass


class TestEngine:
    def test_all_edges_run(self):
        engine = Engine()
        clock = ClockDomain("c", period_ps=10)
        counter = _Counter()
        engine.add_component(clock, counter)
        engine.run_until(100)
        assert counter.compute_calls == list(range(10))
        assert counter.commit_calls == list(range(10))

    def test_wire_has_one_cycle_delay(self):
        """A value driven at commit of cycle n is seen at compute n+1."""
        engine = Engine()
        clock = ClockDomain("c", period_ps=10)
        wire = WordWire("w")
        producer = _Producer(wire)
        consumer = _Consumer(wire)
        # Consumer registered FIRST: order must not matter thanks to the
        # two-phase discipline.
        engine.add_component(clock, consumer)
        engine.add_component(clock, producer)
        engine.add_wire(clock, wire)
        engine.run_until(50)
        assert consumer.seen == [None, 0, 1, 2, 3]

    def test_interleaved_domains_fire_in_time_order(self):
        engine = Engine()
        fast = ClockDomain("fast", period_ps=10)
        slow = ClockDomain("slow", period_ps=25, phase_ps=5)
        log: list[tuple[str, int]] = []

        class Logger:
            def __init__(self, name):
                self.name = name

            def compute(self, cycle, time_ps):
                log.append((self.name, time_ps))

            def commit(self, cycle, time_ps):
                pass

        engine.add_component(fast, Logger("fast"))
        engine.add_component(slow, Logger("slow"))
        engine.run_until(60)
        times = [t for _, t in log]
        assert times == sorted(times)
        assert ("slow", 5) in log and ("slow", 30) in log
        assert ("fast", 0) in log and ("fast", 50) in log

    def test_resume_does_not_duplicate_edges(self):
        engine = Engine()
        clock = ClockDomain("c", period_ps=10)
        counter = _Counter()
        engine.add_component(clock, counter)
        engine.run_until(35)
        engine.run_until(70)
        assert counter.compute_calls == list(range(7))

    def test_cannot_run_backwards(self):
        engine = Engine()
        engine.run_until(100)
        with pytest.raises(ConfigurationError):
            engine.run_until(50)

    def test_double_drive_raises(self):
        from repro.core.exceptions import SimulationError
        wire = WordWire("w")
        wire.drive(IDLE)
        with pytest.raises(SimulationError):
            wire.drive(IDLE)

    def test_undriven_wire_latches_idle(self):
        wire = WordWire("w")
        wire.drive(Phit(word=1, valid=True, eop=False))
        wire.latch()
        assert wire.sample().valid
        wire.latch()
        assert not wire.sample().valid
