"""Compiled vectorised executor vs the per-flit reference.

The compiled executor (:mod:`repro.simulation.compiled`) must be a pure
performance change: for every topology, seed, traffic mix, and
reconfiguration timeline, the per-flit records it materialises are
field-identical to what the scalar slot-by-slot simulator produces.
Because the logical flit schedule is the paper's composability currency,
"equivalent" here means byte-identical, not statistically close.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.spec import WorkloadSpec
from repro.core.configuration import configure
from repro.core.exceptions import ConfigurationError
from repro.core.timeline import replay_configuration
from repro.faults.model import FaultSchedule, FaultSpec
from repro.service.churn import ChurnSpec, ChurnWorkload
from repro.service.controller import SessionService, merge_events
from repro.simulation.backend import FlitLevelBackend, SimRequest
from repro.simulation.compiled import numpy_available
from repro.simulation.composability import replay_traffic
from repro.simulation.flitsim import FlitLevelSimulator
from repro.simulation.monitors import StatsCollector
from repro.simulation.traffic import (BernoulliMessages, ConstantBitRate,
                                      MessageEvent, PeriodicBurst,
                                      Saturating, TrafficPattern)
from repro.topology.builders import concentrated_mesh, mesh, ring, torus

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="compiled executor requires numpy")

TOPOLOGIES = {
    "mesh": lambda: mesh(3, 3, nis_per_router=2),
    "cmesh": lambda: concentrated_mesh(3, 2, nis_per_router=4),
    "torus": lambda: torus(3, 3, nis_per_router=2),
    "ring": lambda: ring(6, nis_per_router=3),
}


class _Jittered(TrafficPattern):
    """A pattern the compiler has no closed form for.

    Forces the generic ``events()``-driven compile path (and per-horizon
    recompilation, since unknown patterns are not prefix-stable).
    """

    def __init__(self, message_words: int, mean_gap: int, seed: int):
        self.message_words = message_words
        self.mean_gap = mean_gap
        self.seed = seed

    def events(self, horizon_cycles: int) -> list[MessageEvent]:
        rng = random.Random(self.seed)
        out: list[MessageEvent] = []
        cycle = rng.randrange(self.mean_gap)
        while cycle < horizon_cycles:
            out.append(MessageEvent(cycle, self.message_words, len(out)))
            cycle += 1 + rng.randrange(2 * self.mean_gap)
        return out


def _config(topology, seed, n_channels=12):
    use_case, mapping = WorkloadSpec(
        n_channels=n_channels,
        n_ips=min(len(topology.nis), 18)).build(topology, seed)
    return configure(topology, use_case, table_size=16,
                     frequency_hz=500e6, mapping=mapping,
                     require_met=False)


def _traffic(config, seed):
    """One of each pattern family, round-robin over the channels."""
    fmt = config.fmt
    patterns = {}
    for i, (name, ca) in enumerate(
            sorted(config.allocation.channels.items())):
        kind = i % 5
        if kind == 0:
            patterns[name] = ConstantBitRate.from_rate(
                ca.spec.throughput_bytes_per_s, config.frequency_hz, fmt)
        elif kind == 1:
            patterns[name] = PeriodicBurst(
                burst_messages=3, message_words=5,
                period_cycles=180 + 11 * i, offset_cycles=i)
        elif kind == 2:
            patterns[name] = BernoulliMessages(
                probability=0.04, message_words=4,
                flit_size=fmt.flit_size, seed=seed * 31 + i)
        elif kind == 3:
            patterns[name] = Saturating(message_words=6,
                                        flit_size=fmt.flit_size)
        else:
            patterns[name] = _Jittered(message_words=7, mean_gap=90,
                                       seed=seed * 17 + i)
    return patterns


def _run(config, traffic, n_slots, **kwargs):
    sim = FlitLevelSimulator(config, **kwargs)
    for name, pattern in traffic.items():
        sim.set_traffic(name, pattern)
    return sim.run(n_slots)


def _assert_equivalent(got, ref):
    """Field-identical per-flit records, traces, and totals."""
    assert got.simulated_slots == ref.simulated_slots
    assert got.n_epochs == ref.n_epochs
    assert got.flits_by_channel == ref.flits_by_channel
    assert got.stalled_slots_by_channel == ref.stalled_slots_by_channel
    assert got.stats.channels == ref.stats.channels
    for name in ref.stats.channels:
        actual = got.stats.channel(name)
        expected = ref.stats.channel(name)
        assert actual.injections == expected.injections, name
        assert actual.deliveries == expected.deliveries, name
    assert got.trace.channels() == ref.trace.channels()
    for name in ref.trace.channels():
        assert got.trace.trace(name) == ref.trace.trace(name), name
    assert got.summary() == ref.summary()


@requires_numpy
class TestStaticEquivalence:
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
    def test_per_flit_identity(self, topo_name, seed):
        config = _config(TOPOLOGIES[topo_name](), seed)
        traffic = _traffic(config, seed)
        compiled = _run(config, traffic, 600)
        scalar = _run(config, traffic, 600, compiled=False)
        assert compiled.compiled and not scalar.compiled
        _assert_equivalent(compiled, scalar)

    def test_hoisted_contention_check_accepts_valid_config(self):
        """The reservation-level check replaces the per-slot occupancy
        scan without changing what a contention-free run produces."""
        config = _config(mesh(3, 3, nis_per_router=2), 3)
        traffic = _traffic(config, 3)
        checked = _run(config, traffic, 400, check_contention=True)
        plain = _run(config, traffic, 400)
        assert checked.compiled
        _assert_equivalent(checked, plain)

    def test_backend_meta_names_the_executor(self):
        config = _config(mesh(3, 3, nis_per_router=2), 2)
        request = SimRequest(n_slots=300, traffic=_traffic(config, 2))
        fast = FlitLevelBackend(config).run(request)
        slow = FlitLevelBackend(config, compiled=False).run(request)
        assert fast.meta["executor"] == "compiled"
        assert slow.meta["executor"] == "per-flit"
        for name in slow.composability_trace().channels():
            assert (fast.logical_schedule(name) ==
                    slow.logical_schedule(name)), name


@requires_numpy
class TestTimelineEquivalence:
    def _timeline(self):
        """A churn + fault timeline (PR 5 recipe) with real evictions."""
        topology = mesh(3, 3, nis_per_router=2)
        churn = ChurnWorkload(ChurnSpec(n_sessions=40), topology, 5)
        schedule = FaultSchedule(
            FaultSpec(n_faults=3, fault_rate_per_s=400.0,
                      mean_repair_s=0.004), topology, 9)
        service = SessionService(topology, table_size=32,
                                 frequency_hz=500e6, name="t", seed=1,
                                 record_timeline=True)
        report = service.run(merge_events(churn.events(limit=60),
                                          schedule.events()))
        assert report.faults["n_evicted"] > 0
        return service.timeline(horizon_slots=900)

    def test_fault_timeline_identity(self):
        timeline = self._timeline()
        config = replay_configuration(timeline)
        traffic = replay_traffic(timeline)
        compiled = FlitLevelSimulator(config).run_timeline(
            timeline, traffic=traffic)
        scalar = FlitLevelSimulator(config, compiled=False).run_timeline(
            timeline, traffic=traffic)
        assert compiled.compiled and not scalar.compiled
        assert compiled.n_epochs > 5
        _assert_equivalent(compiled, scalar)


@requires_numpy
class TestPropertyEquivalence:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10),
           rate_factor=st.sampled_from([0.5, 1.0, 1.5]))
    def test_any_seeded_workload_matches(self, seed, rate_factor):
        topology = mesh(2, 2, nis_per_router=2)
        config = _config(topology, seed, n_channels=6)
        fmt = config.fmt
        traffic = {}
        for i, (name, ca) in enumerate(
                sorted(config.allocation.channels.items())):
            if i % 2:
                traffic[name] = BernoulliMessages(
                    probability=0.05, message_words=3,
                    flit_size=fmt.flit_size, seed=seed * 13 + i)
            else:
                traffic[name] = ConstantBitRate.from_rate(
                    ca.spec.throughput_bytes_per_s * rate_factor,
                    config.frequency_hz, fmt)
        compiled = _run(config, traffic, 500)
        scalar = _run(config, traffic, 500, compiled=False)
        assert compiled.compiled
        _assert_equivalent(compiled, scalar)


@requires_numpy
class TestServiceLatencies:
    def test_fast_path_matches_record_walk(self):
        config = _config(mesh(3, 3, nis_per_router=2), 5)
        traffic = _traffic(config, 5)
        compiled = _run(config, traffic, 800)
        scalar = _run(config, traffic, 800, compiled=False)
        assert compiled.compiled
        answered = 0
        for name in sorted(scalar.stats.channels):
            runs = compiled.stats._runs[name]
            if all(run.service_latencies_ns() is not None
                   for run in runs):
                answered += 1
            walked = scalar.stats.service_latencies_ns(name)
            assert compiled.stats.service_latencies_ns(name) == walked
            # The reference walk over the materialised records agrees.
            assert StatsCollector.service_latencies_ns(
                compiled.stats, name) == walked, name
        # The vectorised answer must actually engage, not just defer.
        assert answered > 0


class TestConfigurationGuards:
    @requires_numpy
    def test_compiled_rejects_flow_control(self):
        config = _config(mesh(2, 2, nis_per_router=2), 1, n_channels=4)
        with pytest.raises(ConfigurationError):
            FlitLevelSimulator(config, compiled=True, flow_control=True)

    @requires_numpy
    def test_flow_control_falls_back_to_per_flit(self):
        config = _config(mesh(2, 2, nis_per_router=2), 1, n_channels=4)
        sim = FlitLevelSimulator(config, flow_control=True)
        for name, pattern in _traffic(config, 1).items():
            sim.set_traffic(name, pattern)
        assert not sim.run(300).compiled
