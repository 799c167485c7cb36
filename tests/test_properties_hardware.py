"""Property-based tests of the hardware models.

Hypothesis drives randomised scripts through the router and the
mesochronous stage, asserting the architectural contracts for *every*
input, not just the hand-picked cases of the unit tests:

* the router is a pure 3-cycle delay plus routing — every injected flit
  emerges exactly 3 cycles later on exactly the port its header names,
  with payload words untouched;
* the mesochronous stage is a pure one-slot delay for every legal skew;
* the flit-level simulator never violates an analytical bound on any
  randomly generated (feasible) workload and traffic pattern.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.clocking.clock import ClockDomain
from repro.core.analysis import analyse
from repro.core.application import Application, UseCase
from repro.core.configuration import configure
from repro.core.connection import MB, ChannelSpec
from repro.core.exceptions import AllocationError
from repro.core.timeline import static_lifetimes
from repro.core.words import WordFormat, encode_header
from repro.router.synchronous import SynchronousRouter
from repro.simulation.backend import (FlitLevelBackend, SimRequest,
                                      check_lifetime_contention)
from repro.simulation.engine import Engine
from repro.simulation.signals import IDLE, Phit
from repro.simulation.traffic import BernoulliMessages, PeriodicBurst
from repro.topology.builders import mesh
from repro.topology.mapping import round_robin


class _ScriptDriver:
    def __init__(self, wire, script):
        self.wire = wire
        self.script = dict(script)

    def compute(self, cycle, time_ps):
        pass

    def commit(self, cycle, time_ps):
        self.wire.drive(self.script.get(cycle, IDLE))


class _Probe:
    def __init__(self, wire):
        self.wire = wire
        self.samples = []

    def compute(self, cycle, time_ps):
        self.samples.append(self.wire.sample())

    def commit(self, cycle, time_ps):
        pass


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_router_is_exact_three_cycle_delay(seed):
    """Random flit schedules: output = input, delayed 3, routed."""
    rng = random.Random(seed)
    fmt = WordFormat()
    n_ports = rng.randint(2, 5)
    router = SynchronousRouter("r", n_ports, n_ports, fmt)
    # Build a random slot-aligned schedule on input 0: each flit picks a
    # random output port.
    script = {}
    expected = {}  # cycle -> (port, word)
    for slot in range(rng.randint(1, 6)):
        if rng.random() < 0.4:
            continue  # idle slot
        port = rng.randrange(n_ports)
        base = slot * fmt.flit_size
        header = encode_header([port], 0, 0, fmt)
        words = [header, rng.randrange(1 << 16), rng.randrange(1 << 16)]
        for pos in range(fmt.flit_size):
            script[base + pos] = Phit(
                word=words[pos], valid=True,
                eop=pos == fmt.flit_size - 1, word_index=pos)
            # Sampled by the probe 4 cycles after the driver's commit
            # (1 wire + 3 router stages).
            expected[base + pos + 4] = (port, words[pos])
    engine = Engine()
    clock = ClockDomain("c", period_ps=1000)
    probes = [_Probe(router.outputs[p]) for p in range(n_ports)]
    for probe in probes:
        engine.add_component(clock, probe)
    engine.add_component(clock, _ScriptDriver(router.inputs[0], script))
    engine.add_component(clock, router)
    for wire in router.inputs + router.outputs:
        engine.add_wire(clock, wire)
    horizon = (max(script) + 6 if script else 6)
    engine.run_until(horizon * 1000)
    for cycle, (port, word) in expected.items():
        if cycle >= horizon:
            continue
        phit = probes[port].samples[cycle]
        assert phit.valid, f"missing word at cycle {cycle}"
        # The header word is path-shifted; payload words are untouched.
        if cycle % fmt.flit_size != (min(expected) % fmt.flit_size):
            pass
    # Payload words (positions 1, 2 of each flit) must be bit-exact.
    for cycle, (port, word) in expected.items():
        if cycle >= horizon:
            continue
        pos = [c for c in expected if c <= cycle and
               expected[c][0] == port]
        phit = probes[port].samples[cycle]
        if phit.word_index > 0:
            assert phit.word == word
    # And nothing emerges on ports that were never addressed.
    addressed = {p for p, _ in expected.values()}
    for port in range(n_ports):
        if port not in addressed:
            assert not any(p.valid for p in probes[port].samples)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 100_000))
def test_flitsim_bounds_hold_for_random_traffic(seed):
    """Any feasible workload + any traffic: service stays within bounds.

    The bound covers *service* latency (head-of-queue to delivery) for
    any arrival process — including oversubscribing ones, where raw
    end-to-end latency legitimately grows without bound.
    """
    rng = random.Random(seed)
    topo = mesh(2, 2, nis_per_router=1)
    ips = [f"ip{i}" for i in range(8)]
    mapping = round_robin(ips, topo)
    channels = []
    for i in range(rng.randint(2, 6)):
        src, dst = rng.sample(ips, 2)
        while mapping.ni_of(src) == mapping.ni_of(dst):
            src, dst = rng.sample(ips, 2)
        channels.append(ChannelSpec(
            f"c{i}", src, dst, rng.uniform(10, 60) * MB,
            application="app"))
    use_case = UseCase("p", (Application("app", tuple(channels)),))
    try:
        config = configure(topo, use_case, table_size=16,
                           frequency_hz=500e6, mapping=mapping)
    except AllocationError:
        return
    bounds = analyse(config.allocation)
    traffic = {}
    for i, spec in enumerate(channels):
        if rng.random() < 0.5:
            traffic[spec.name] = BernoulliMessages(
                0.15, 2, 3, seed=seed + i)
        else:
            traffic[spec.name] = PeriodicBurst(
                1, 2, rng.randint(20, 60), offset_cycles=i)
    check_lifetime_contention(static_lifetimes(config.allocation, 800), 800,
                              config.table_size)
    result = FlitLevelBackend(config).run(
        SimRequest(n_slots=800, traffic=traffic))
    for spec in channels:
        for latency in result.stats.service_latencies_ns(spec.name):
            assert latency <= bounds[spec.name].latency_ns + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.integers(0, 999), st.integers(0, 999))
def test_meso_stage_pure_one_slot_delay(n_flits, wphase, rphase):
    """Property form of the exhaustive skew test (random phases)."""
    from repro.link.mesochronous import make_stage
    fmt = WordFormat()
    engine = Engine()
    wclk = ClockDomain("w", period_ps=1000, phase_ps=wphase)
    rclk = ClockDomain("r", period_ps=1000, phase_ps=rphase)
    stage = make_stage(engine, "s", wclk, rclk, fmt)

    sent = {}
    for index in range(n_flits):
        slot = 1 + 2 * index
        base = slot * fmt.flit_size
        for pos in range(fmt.flit_size):
            sent[base + pos] = Phit(
                word=(slot << 4) | pos, valid=True,
                eop=pos == fmt.flit_size - 1, word_index=pos)
    driver = _ScriptDriver(stage.writer.inputs[0], sent)
    probe = _Probe(stage.outputs[0])
    engine.add_component(wclk, driver)
    engine.add_wire(wclk, stage.writer.inputs[0])
    engine.add_component(rclk, probe)
    horizon_slots = 2 * n_flits + 4
    engine.run_until(horizon_slots * fmt.flit_size * 1000 + 1000)
    received = [(cycle - 1) // fmt.flit_size
                for cycle, phit in enumerate(probe.samples) if phit.valid
                and phit.word_index == 0]
    expected = [2 + 2 * index for index in range(n_flits)]
    assert received == expected
    assert stage.fifo.max_occupancy <= 4
