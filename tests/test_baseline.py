"""Tests for the best-effort baseline network."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from be_oracle import BeOracle, BoolRoundRobin, _InputBuffer
from repro.baseline.arbitration import RoundRobinArbiter
from repro.baseline.be_network import BeNetworkSimulator
from repro.campaign.spec import WorkloadSpec
from repro.core.application import Application, UseCase
from repro.core.configuration import configure
from repro.core.connection import MB, ChannelSpec
from repro.core.exceptions import ConfigurationError, SimulationError
from repro.core.timeline import ReconfigurationTimeline, TimelineEvent
from repro.simulation.backend import (BestEffortBackend, FlitLevelBackend,
                                      SimRequest, create_backend)
from repro.simulation.compiled import CompiledStats
from repro.simulation.monitors import StatsCollector
from repro.simulation.traffic import (ConstantBitRate, MessageEvent,
                                      PeriodicBurst, Replay, Saturating,
                                      TrafficPattern)
from repro.topology.builders import concentrated_mesh, mesh, ring
from repro.topology.mapping import Mapping
from test_watchers import assert_reads_equal_the_record_walks, no_records


class TestArbiters:
    def test_round_robin_rotates(self):
        arbiter = RoundRobinArbiter(3)
        grants = [arbiter.grant([0, 1, 2]) for _ in range(6)]
        assert grants == [0, 1, 2, 0, 1, 2]

    def test_round_robin_skips_idle(self):
        arbiter = RoundRobinArbiter(3)
        assert arbiter.grant([2]) == 2
        assert arbiter.grant([0, 2]) == 0

    def test_round_robin_none_when_idle(self):
        assert RoundRobinArbiter(2).grant([]) is None

    def test_round_robin_bounded_wait(self):
        """No requester waits more than one full rotation."""
        arbiter = RoundRobinArbiter(4)
        waits = {i: 0 for i in range(4)}
        for _ in range(16):
            winner = arbiter.grant([0, 1, 2, 3])
            for i in range(4):
                if i != winner:
                    waits[i] += 1
                    assert waits[i] <= 4
            waits[winner] = 0

    def test_index_outside_the_requesters_rejected(self):
        with pytest.raises(ConfigurationError, match="outside 2"):
            RoundRobinArbiter(2).grant([0, 2])

    @pytest.mark.parametrize("n", [True, False, 2.5, 2.0, "2", None, 0,
                                   -1])
    def test_requester_count_must_be_a_whole_number(self, n):
        with pytest.raises(ConfigurationError, match="whole number >= 1"):
            RoundRobinArbiter(n)

    @pytest.mark.parametrize("requests, bad", [([-1], -1), ([-2, 0], -2),
                                               ([-1, 2], -1)])
    def test_negative_index_rejected(self, requests, bad):
        with pytest.raises(ConfigurationError,
                           match=f"request index {bad} outside 2"):
            RoundRobinArbiter(2).grant(requests)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 9), data=st.data())
    def test_index_form_equals_the_bool_vector(self, n, data):
        """The ascending-index grant picks the winner, and leaves the
        pointer, of the bool-vector reference round-robin."""
        arbiter, reference = RoundRobinArbiter(n), BoolRoundRobin(n)
        for _ in range(data.draw(st.integers(1, 30))):
            requests = data.draw(st.lists(st.booleans(), min_size=n,
                                          max_size=n))
            assert arbiter.grant(
                [i for i, asks in enumerate(requests) if asks]) == \
                reference.grant(requests)
            assert arbiter._pointer == reference.pointer


def _two_router_config():
    topo = mesh(2, 1, nis_per_router=2)
    channels = (
        ChannelSpec("x0", "a0", "b0", 60 * MB, max_latency_ns=300.0,
                    application="appA"),
        ChannelSpec("x1", "a1", "b1", 60 * MB, max_latency_ns=300.0,
                    application="appB"),
    )
    use_case = UseCase("be", (
        Application("appA", channels[:1]),
        Application("appB", channels[1:])))
    mapping = Mapping({"a0": "ni0_0_0", "a1": "ni0_0_1",
                       "b0": "ni1_0_0", "b1": "ni1_0_1"})
    return configure(topo, use_case, table_size=8, frequency_hz=500e6,
                     mapping=mapping)


def _be(config, traffic, n_ticks, *, frequency_hz=None, **options):
    return BestEffortBackend(config, **options).run(
        SimRequest(n_slots=n_ticks, traffic=traffic,
                   frequency_hz=frequency_hz))


class TestBeNetwork:
    def test_delivers_everything_offered(self):
        config = _two_router_config()
        result = _be(config, {name: ConstantBitRate.from_rate(
            60 * MB, 500e6, config.fmt) for name in ("x0", "x1")}, 2000)
        for name in ("x0", "x1"):
            deliveries = result.stats.channel(name).deliveries
            # ~2000 ticks * 6ns = 12 us at 60 MB/s and 8 B messages.
            assert len(deliveries) > 80

    def test_in_order_delivery(self):
        config = _two_router_config()
        result = _be(config, {"x0": Saturating(2, 3)}, 500)
        ids = [d.message_id
               for d in result.stats.channel("x0").deliveries]
        assert ids == sorted(ids)
        assert len(ids) > 100

    def test_multi_flit_packets_complete(self):
        config = _two_router_config()
        # 16-word messages: two 4-flit packets each.
        result = _be(config, {"x0": PeriodicBurst(1, 16, 40)}, 800,
                     max_packet_flits=4)
        deliveries = result.stats.channel("x0").deliveries
        assert deliveries
        assert all(d.payload_bytes == 64 for d in deliveries)

    def test_contention_inflates_latency(self):
        """Two saturated channels sharing a link interfere."""
        config = _two_router_config()
        solo_result = _be(config, {"x0": Saturating(2, 3)}, 800)
        both_result = _be(config, {"x0": Saturating(2, 3),
                                   "x1": Saturating(2, 3)}, 800)
        solo_count = len(solo_result.stats.channel("x0").deliveries)
        both_count = len(both_result.stats.channel("x0").deliveries)
        # The shared link halves each channel's share.
        assert both_count < solo_count
        assert both_count >= int(0.4 * solo_count)

    def test_no_tdm_lower_idle_latency(self):
        """An uncontended BE flit beats the TDM slot wait on average."""
        config = _two_router_config()
        request = SimRequest(n_slots=1500, traffic={
            "x0": ConstantBitRate.from_rate(20 * MB, 500e6, config.fmt,
                                            offset_cycles=1)})
        be_result = BestEffortBackend(config).run(request)
        gs_result = FlitLevelBackend(config).run(request)
        be_mean = be_result.stats.channel("x0").latency_summary().mean
        gs_mean = gs_result.stats.channel("x0").latency_summary().mean
        assert be_mean < gs_mean

    def test_frequency_speeds_up_network(self):
        config = _two_router_config()
        results = {}
        for frequency in (500e6, 1000e6):
            result = _be(config, {"x0": ConstantBitRate.from_rate(
                60 * MB, frequency, config.fmt)}, 1000,
                frequency_hz=frequency)
            results[frequency] = \
                result.stats.channel("x0").latency_summary().mean
        assert results[1000e6] < results[500e6]

    def test_unknown_channel_rejected(self):
        config = _two_router_config()
        with pytest.raises(ConfigurationError, match="nope"):
            _be(config, {"nope": Saturating(2, 3)}, 100)

    def test_invalid_parameters_rejected(self):
        config = _two_router_config()
        with pytest.raises(ConfigurationError):
            BestEffortBackend(config, buffer_flits=0)
        with pytest.raises(ConfigurationError):
            BestEffortBackend(config, max_packet_flits=0)
        with pytest.raises(ConfigurationError):
            SimRequest(n_slots=0)

    @pytest.mark.parametrize("build", [
        lambda config: SimRequest(n_slots=10, frequency_hz=float("nan")),
        lambda config: SimRequest(n_slots=10, frequency_hz=float("inf")),
        lambda config: SimRequest(n_slots=10, frequency_hz=-5e8),
        lambda config: SimRequest(n_slots=10, frequency_hz=0.0),
        lambda config: BestEffortBackend(config, buffer_flits=2.5),
        lambda config: BestEffortBackend(config, max_packet_flits=True),
    ], ids=["request-nan", "request-inf", "request-negative", "request-zero",
            "fractional-buffer", "bool-packet"])
    def test_bad_operating_point_refused_where_given(self, build):
        with pytest.raises(ConfigurationError):
            build(_two_router_config())

    @pytest.mark.parametrize("option", ["buffer_flits", "max_packet_flits"])
    @pytest.mark.parametrize("value", [True, "2", None, 2.5, 0])
    def test_buffer_counts_go_through_the_helper(self, option, value):
        """A bool, a string or ``None`` is refused naming the option, as
        a fraction or zero is."""
        with pytest.raises(ConfigurationError, match=f"^{option} must"):
            BestEffortBackend(_two_router_config(), **{option: value})

    def test_a_whole_float_count_is_stored_as_the_int(self):
        backend = BestEffortBackend(_two_router_config(), buffer_flits=2.0)
        assert backend.buffer_flits == 2
        assert type(backend.buffer_flits) is int

    def test_zero_override_is_not_the_default(self):
        """An explicit frequency is used as given, never replaced by
        the configuration's because it is falsy."""
        config = _two_router_config()
        request = SimRequest(n_slots=50, frequency_hz=250e6,
                             traffic={"x0": Saturating(2, 3)})
        assert BestEffortBackend(config).run(request).frequency_hz == 250e6
        assert BestEffortBackend(config).run(
            SimRequest(n_slots=50)).frequency_hz == config.frequency_hz

    def test_wormhole_no_packet_interleaving(self):
        """Flits of two packets never interleave on one link.

        Uses a single-router config where both channels eject at the
        same NI: deliveries must alternate whole packets, never words
        of different packets.
        """
        topo = mesh(1, 1, nis_per_router=3)
        channels = (
            ChannelSpec("p0", "s0", "d", 50 * MB, application="a"),
            ChannelSpec("p1", "s1", "d", 50 * MB, application="a"),
        )
        use_case = UseCase("wh", (Application("a", channels),))
        mapping = Mapping({"s0": "ni0_0_0", "s1": "ni0_0_1",
                           "d": "ni0_0_2"})
        config = configure(topo, use_case, table_size=8,
                           frequency_hz=500e6, mapping=mapping)
        result = _be(config, {
            "p0": PeriodicBurst(1, 8, 20),
            "p1": PeriodicBurst(1, 8, 20, offset_cycles=3)}, 600,
            max_packet_flits=4)
        # Both channels' multi-flit messages all complete intact.
        for name in ("p0", "p1"):
            deliveries = result.stats.channel(name).deliveries
            assert deliveries
            assert all(d.payload_bytes == 32 for d in deliveries)


# -- the engine against the per-object oracle -------------------------------


class _BackAndForth(TrafficPattern):
    """Arrival cycles that are not sorted: a queue releases in event
    order, so a late first event holds back the early one behind it."""

    def events(self, horizon_cycles):
        cycles = [c for pair in zip(range(60, horizon_cycles, 90),
                                    range(0, horizon_cycles, 90))
                  for c in pair]
        return [MessageEvent(cycle, 5, mid)
                for mid, cycle in enumerate(cycles)]


BE_TOPOLOGIES = {
    "mesh": lambda: mesh(3, 2, nis_per_router=2),
    "cmesh": lambda: concentrated_mesh(2, 2, nis_per_router=4),
    "ring": lambda: ring(5, nis_per_router=2),
}
#: Probability that a channel saturates; the rest send bursts.
MIXES = {"saturating": 0.9, "bursty": 0.1, "mixed": 0.4}


def _random_case(topo_name, seed, mix="mixed"):
    """A seeded configuration, simulator options and a traffic mix of
    saturating and bursty sources with messages of 1-4 packets, one of
    them sending out of order."""
    rng = random.Random(seed)
    topology = BE_TOPOLOGIES[topo_name]()
    use_case, mapping = WorkloadSpec(
        n_channels=14, n_ips=min(len(topology.nis), 12),
        n_applications=3).build(topology, seed)
    config = configure(topology, use_case, table_size=16,
                       frequency_hz=500e6, mapping=mapping,
                       require_met=False)
    options = {"buffer_flits": rng.randint(1, 4),
               "max_packet_flits": rng.randint(1, 4)}
    traffic = {}
    for name in sorted(config.allocation.channels):
        words = rng.randint(1, 24)
        if rng.random() < MIXES[mix]:
            traffic[name] = Saturating(words, config.fmt.flit_size)
        else:
            traffic[name] = PeriodicBurst(
                rng.randint(1, 4), words, rng.randint(20, 120),
                offset_cycles=rng.randrange(40))
    traffic[min(traffic)] = _BackAndForth()
    return config, options, traffic


def _restarts(config, times, horizon):
    """Three applications started, stopped and one restarted at
    ``times``, five ascending ticks."""
    apps = {}
    for ca in config.allocation.channels.values():
        apps.setdefault(ca.spec.application, []).append(ca)
    (a, a_channels), (b, b_channels), (c, c_channels) = \
        sorted((app, tuple(chans)) for app, chans in apps.items())
    t1, t2, t3, t4, t5 = times
    return ReconfigurationTimeline(
        config.topology,
        [TimelineEvent(0, "start", a, a_channels),
         TimelineEvent(t1, "start", b, b_channels),
         TimelineEvent(t2, "stop", a),
         TimelineEvent(t3, "start", c, c_channels),
         TimelineEvent(t4, "start", a, a_channels),
         TimelineEvent(t5, "stop", b)],
        horizon_slots=horizon, table_size=config.table_size,
        frequency_hz=config.frequency_hz, fmt=config.fmt)


def _assert_same_records(got, ref):
    """Two ``StatsCollector``s, record for record."""
    assert got.channels == ref.channels
    assert got.channels
    for name in ref.channels:
        assert got.channel(name).injections == \
            ref.channel(name).injections, name
        assert got.channel(name).deliveries == \
            ref.channel(name).deliveries, name


def _both(config, options, intervals, traffic, n_ticks):
    """The engine's and the oracle's records of one run; the oracle's
    input buffers raise on overflow, so this also holds that no flit
    ever entered a full queue."""
    return (BeNetworkSimulator(config, **options).run(
                intervals, traffic, n_ticks),
            BeOracle(config, **options).run(intervals, traffic, n_ticks))


class TestLoopEqualsTheOracle:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("topo_name", sorted(BE_TOPOLOGIES))
    def test_static_runs(self, topo_name, seed):
        config, options, traffic = _random_case(topo_name, seed)
        intervals = {name: ((0, 300, ca),) for name, ca in
                     sorted(config.allocation.channels.items())}
        results = _both(config, options, intervals, traffic, 300)
        _assert_same_records(*results)
        assert any(len(results[0].channel(name).deliveries) > 5
                   for name in results[0].channels)
        # ... and the backend's static table is this one.
        _assert_same_records(
            _be(config, traffic, 300, **options).stats, results[0])

    @settings(max_examples=30, deadline=None)
    @given(topo_name=st.sampled_from(sorted(BE_TOPOLOGIES)),
           seed=st.integers(0, 40), buffer_flits=st.integers(1, 4),
           max_packet_flits=st.integers(1, 4),
           mix=st.sampled_from(sorted(MIXES)),
           times=st.none() | st.lists(st.integers(1, 239), min_size=5,
                                      max_size=5, unique=True).map(sorted))
    @example("mesh", 11, 1, 4, "mixed", [30, 120, 140, 200, 230])
    @example("ring", 0, 1, 1, "saturating", None)
    @example("cmesh", 3, 4, 4, "bursty", [1, 2, 3, 4, 5])
    def test_property(self, topo_name, seed, buffer_flits, max_packet_flits,
                      mix, times):
        """Static (``times`` is None) or a timeline with a restart: the
        engine equals the oracle record for record, on every topology
        family, buffer depth and packet size."""
        config, _, traffic = _random_case(topo_name, seed, mix)
        options = {"buffer_flits": buffer_flits,
                   "max_packet_flits": max_packet_flits}
        if times is None:
            intervals = {name: ((0, 240, ca),) for name, ca in
                         sorted(config.allocation.channels.items())}
        else:
            intervals = _restarts(config, times, 240).channel_intervals()
        _assert_same_records(*_both(config, options, intervals, traffic,
                                    240))

    @pytest.mark.parametrize("kind", ["flit", "be"])
    def test_a_restart_restarts_the_injection_count(self, kind):
        """``c0`` runs ``[0, 150)`` and ``[300, 600)``: its message ids
        and its ``InjectionRecord.sequence`` both start again, so the
        record log splits into two incarnations, every service latency
        is measured inside its own one, and no trace entry claims an
        injection after its delivery."""
        use_case = UseCase("restart", (Application("app", (
            ChannelSpec("c0", "ip0", "ip1", 40 * MB, application="app"),
        )),))
        config = configure(mesh(2, 2, nis_per_router=1), use_case,
                           table_size=8, frequency_hz=500e6,
                           mapping="round_robin")
        c0 = config.allocation.channel("c0")
        timeline = ReconfigurationTimeline(
            config.topology, [TimelineEvent(0, "start", "app", (c0,)),
                              TimelineEvent(150, "stop", "app"),
                              TimelineEvent(300, "start", "app", (c0,))],
            horizon_slots=600, table_size=8, frequency_hz=500e6,
            fmt=config.fmt)
        traffic = {"c0": ConstantBitRate.from_rate(40 * MB, 500e6,
                                                   config.fmt)}
        result = create_backend(kind, config).run(SimRequest(
            n_slots=600, traffic=traffic, timeline=timeline))
        assert len(result.stats.channel("c0").incarnations()) == 2
        assert min(result.stats.service_latencies_ns("c0")) > 0
        trace = result.composability_trace().trace("c0")
        assert len(trace) > 10
        flit_size = config.fmt.flit_size
        assert all(slot * flit_size < delivered
                   for _, slot, delivered in trace)
        if kind == "be":
            _assert_same_records(*_both(
                config, {}, timeline.channel_intervals(), traffic, 600))

    def test_the_oracle_refuses_an_overflow(self):
        """The oracle's flow-control check has teeth: a full input
        buffer raises instead of growing."""
        buffer = _InputBuffer("r.in0", 1)
        buffer.push(None)
        with pytest.raises(SimulationError, match="overflow"):
            buffer.push(None)


# -- the logged columns against the record walks ----------------------------


def _shuffled(horizon_cycles):
    """Arrivals in cycle order whose message ids run backwards in blocks
    of four, so neither the delivery order nor a run's injection order
    is the id order."""
    return Replay([MessageEvent(cycle, 7, 4 * (i // 4) + 3 - i % 4)
                   for i, cycle in enumerate(range(5, horizon_cycles, 70))])


class TestColumnsEqualTheRecordWalks:
    @settings(max_examples=30, deadline=None)
    @given(topo_name=st.sampled_from(sorted(BE_TOPOLOGIES)),
           seed=st.integers(0, 40), buffer_flits=st.integers(1, 4),
           max_packet_flits=st.integers(1, 4),
           mix=st.sampled_from(sorted(MIXES)),
           times=st.none() | st.lists(st.integers(1, 239), min_size=5,
                                      max_size=5, unique=True).map(sorted))
    @example("mesh", 11, 1, 4, "mixed", [30, 120, 140, 200, 230])
    @example("ring", 0, 1, 1, "saturating", None)
    @example("cmesh", 3, 4, 4, "bursty", [1, 2, 3, 4, 5])
    def test_property(self, topo_name, seed, buffer_flits, max_packet_flits,
                      mix, times):
        """Static or restarted, with unsorted arrival cycles and with
        message ids out of arrival order: every aggregate read of the
        engine's logged columns equals the ``StatsCollector`` record walk
        over the oracle's records, and none of them builds a record."""
        config, _, traffic = _random_case(topo_name, seed, mix)
        traffic[max(traffic)] = _shuffled(240 * config.fmt.flit_size)
        options = {"buffer_flits": buffer_flits,
                   "max_packet_flits": max_packet_flits}
        if times is None:
            intervals = {name: ((0, 240, ca),) for name, ca in
                         sorted(config.allocation.channels.items())}
        else:
            intervals = _restarts(config, times, 240).channel_intervals()
        engine, oracle = _both(config, options, intervals, traffic, 240)
        assert isinstance(engine, CompiledStats)
        assert type(oracle) is StatsCollector
        names = oracle.channels
        with no_records():
            assert engine.channels == names
            assert engine.delivery_count() == oracle.delivery_count()
            for name in names:
                assert repr(engine.service_latencies_ns(name)) == \
                    repr(oracle.service_latencies_ns(name)), name
                seen, walked = (stats.service_observation(name)
                                for stats in (engine, oracle))
                assert repr((seen.count, seen.worst_ns, seen.mean_ns)) == \
                    repr((walked.count, walked.worst_ns,
                          walked.mean_ns)), name
            traces = (engine.composability_trace(),
                      oracle.composability_trace())
            for name in names:
                assert traces[0].trace(name) == traces[1].trace(name), name
            assert repr(engine.latency_summaries()) == \
                repr(oracle.latency_summaries())
        assert_reads_equal_the_record_walks(
            SimpleNamespace(stats=engine), SimpleNamespace(stats=oracle),
            names)
