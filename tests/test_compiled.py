"""Compiled vectorised executor vs the per-flit reference.

The compiled executor (:mod:`repro.simulation.compiled`) must be a pure
performance change: for every topology, seed, traffic mix, and
reconfiguration timeline, the per-flit records it materialises are
field-identical to what the scalar slot-by-slot simulator produces.
Because the logical flit schedule is the paper's composability currency,
"equivalent" here means byte-identical, not statistically close.
"""

import copy
import dataclasses
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flit_oracle import oracle_run
from test_watchers import no_records
from repro.campaign.spec import WorkloadSpec
from repro.core.allocation import SlotAllocator
from repro.core.configuration import configure
from repro.core.placement import ChannelAllocation
from repro.core.path import make_path
from repro.core.timeline import (ReconfigurationTimeline, TimelineEvent,
                                 replay_configuration, static_lifetimes)
from repro.faults.model import FaultSchedule, FaultSpec
from repro.service.churn import ChurnSpec, ChurnWorkload
from repro.service.controller import SessionService, merge_events
from repro.simulation.backend import (FlitLevelBackend, SimRequest,
                                      check_lifetime_contention)
from repro.simulation.compiled import (Arrivals, CompiledTraceRecorder,
                                       _solve, compile_arrivals)
import repro.simulation.compiled as compiled_module
from repro.simulation.compiled import execute as compiled_execute
from repro.simulation.flitsim import execute as flitsim_execute
from repro.simulation.composability import replay_traffic, verify_timeline
from repro.simulation.monitors import (ChannelStats, StatsCollector,
                                       TraceRecorder, latency_digest)
from repro.simulation.traffic import (BernoulliMessages, ConstantBitRate,
                                      MessageEvent, PeriodicBurst, Replay,
                                      Saturating, TrafficPattern)
from repro.telemetry.hub import NULL_TELEMETRY
from repro.topology.builders import concentrated_mesh, mesh, ring, torus

TOPOLOGIES = {
    "mesh": lambda: mesh(3, 3, nis_per_router=2),
    "cmesh": lambda: concentrated_mesh(3, 2, nis_per_router=4),
    "torus": lambda: torus(3, 3, nis_per_router=2),
    "ring": lambda: ring(6, nis_per_router=3),
}


class _Jittered(TrafficPattern):
    """A pattern the compiler has no closed form for.

    Forces the generic ``events()``-driven compile path, called once per
    incarnation at the reference horizon.
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


def _through(config, request, oracle):
    """``request`` on the flit backend, or on the per-flit oracle."""
    if oracle:
        return oracle_run(config, request)
    return FlitLevelBackend(config).run(request)


def _run(config, traffic, n_slots, *, oracle=False):
    return _through(config, SimRequest(n_slots=n_slots, traffic=traffic),
                    oracle)


def _replay(timeline, traffic, *, oracle=False):
    return _through(replay_configuration(timeline),
                    SimRequest(n_slots=timeline.horizon_slots,
                               traffic=traffic, timeline=timeline), oracle)


def _is_compiled(result):
    return result.meta["executor"] == "compiled"


def _digest(result):
    """The latency digest without the executor's name in its label."""
    return latency_digest("flit", result.stats, result.simulated_slots,
                          "slots", result.frequency_hz)


def _assert_equivalent(got, ref):
    """Field-identical per-flit records, traces, and totals."""
    assert got.simulated_slots == ref.simulated_slots
    for key in ("n_epochs", "flits_by_channel"):
        assert got.meta[key] == ref.meta[key], key
    assert got.stats.channels == ref.stats.channels
    for name in ref.stats.channels:
        actual = got.stats.channel(name)
        expected = ref.stats.channel(name)
        assert actual.injections == expected.injections, name
        assert actual.deliveries == expected.deliveries, name
    got_trace, ref_trace = got.composability_trace(), \
        ref.composability_trace()
    for name in ref.stats.channels:
        assert got_trace.trace(name) == ref_trace.trace(name), name
    assert _digest(got) == _digest(ref)


class TestStaticEquivalence:
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
    def test_per_flit_identity(self, topo_name, seed):
        config = _config(TOPOLOGIES[topo_name](), seed)
        traffic = _traffic(config, seed)
        compiled = _run(config, traffic, 600)
        scalar = _run(config, traffic, 600, oracle=True)
        assert _is_compiled(compiled) and not _is_compiled(scalar)
        _assert_equivalent(compiled, scalar)

    def test_contention_check_accepts_valid_config(self):
        """The check on the lifetime table passes a contention-free
        configuration over the whole window."""
        config = _config(mesh(3, 3, nis_per_router=2), 3)
        check_lifetime_contention(static_lifetimes(config.allocation, 400),
                                  400, config.table_size)

    def test_backend_meta_names_the_executor(self):
        config = _config(mesh(3, 3, nis_per_router=2), 2)
        request = SimRequest(n_slots=300, traffic=_traffic(config, 2))
        fast = FlitLevelBackend(config).run(request)
        slow = oracle_run(config, request)
        assert fast.meta["executor"] == "compiled"
        assert slow.meta["executor"] == "per-flit"
        for name in slow.stats.channels:
            assert (fast.logical_schedule(name) ==
                    slow.logical_schedule(name)), name


class TestTimelineEquivalence:
    def _timeline(self):
        """A churn + fault timeline (PR 5 recipe) with real evictions."""
        topology = mesh(3, 3, nis_per_router=2)
        churn = ChurnWorkload(ChurnSpec(n_sessions=40), topology, 5)
        schedule = FaultSchedule(
            FaultSpec(n_faults=3, fault_rate_per_s=400.0,
                      mean_repair_s=0.004), topology, 9)
        service = SessionService(
            topology, allocator=SlotAllocator(topology, table_size=32,
                                              frequency_hz=500e6),
            name="t", seed=1, record_timeline=True)
        report = service.run(merge_events(churn.events(limit=60),
                                          schedule.events()))
        assert report.faults["n_evicted"] > 0
        return service.timeline(horizon_slots=900)

    def test_fault_timeline_identity(self):
        timeline = self._timeline()
        traffic = replay_traffic(timeline)
        compiled = _replay(timeline, traffic)
        scalar = _replay(timeline, traffic, oracle=True)
        assert _is_compiled(compiled) and not _is_compiled(scalar)
        assert compiled.meta["n_epochs"] > 5
        _assert_equivalent(compiled, scalar)


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
        scalar = _run(config, traffic, 500, oracle=True)
        assert _is_compiled(compiled)
        _assert_equivalent(compiled, scalar)


class TestRunKeys:
    """``_run_keys`` is the one key rule behind the service order and the
    best-effort match of a delivery to its run's injection: keys are
    equal exactly where ``(run, message id)`` is, and ordered as that
    pair — also where lifting the ids would overflow, and over runs in
    any order."""

    @pytest.mark.parametrize("mids, runs", [
        ([4, 1, 7, 0, 9, 2], [0, 0, 0, 1, 1, 1]),
        ([2 ** 62, 1, -2 ** 62, 5, 9, 2], [0, 0, 1, 1, 2, 2]),
        ([3, 3, 1, 3], [0, 1, 1, 1]),
        ([5, 5, 2, -2 ** 62, 2 ** 62], [1, 0, 1, 0, 1]),
        ([], []),
    ], ids=["shuffled", "spanning-2**63", "repeated-ids", "runs-unsorted",
            "empty"])
    def test_keys_match_and_order_as_the_pair(self, mids, runs):
        keys = compiled_module._run_keys(np.array(mids, np.int64),
                                         np.array(runs, np.int64)).tolist()
        pairs = list(zip(runs, mids))
        assert len(keys) == len(pairs)
        for key, pair in zip(keys, pairs):
            for other_key, other in zip(keys, pairs):
                assert (key == other_key) == (pair == other)
                assert (key < other_key) == (pair < other)


class TestServiceLatencies:
    def test_fast_path_matches_record_walk(self):
        config = _config(mesh(3, 3, nis_per_router=2), 5)
        traffic = _traffic(config, 5)
        compiled = _run(config, traffic, 800)
        scalar = _run(config, traffic, 800, oracle=True)
        assert _is_compiled(compiled)
        names = sorted(scalar.stats.channels)
        assert names
        for name in names:
            walked = scalar.stats.service_latencies_ns(name)
            with no_records():
                assert compiled.stats.service_latencies_ns(name) == walked
            # The reference walk over the records the run builds agrees.
            assert StatsCollector.service_latencies_ns(
                compiled.stats, name) == walked, name


# -- arrivals end with their incarnation ------------------------------------------

_FLIT_SIZE = 3  # WordFormat default; the strategies below need it early


def _replay_events(pairs):
    return Replay([MessageEvent(cycle, words, mid) for cycle, mid, words
                   in sorted(pairs, key=lambda p: p[:2])])


class _HorizonScaled(TrafficPattern):
    """A pattern that is not prefix-stable: its gap depends on the
    horizon it is asked for, so only the horizon the per-flit reference
    uses, ``(n_slots - start) * flit_size``, reproduces its arrivals."""

    def __init__(self, message_words: int):
        self.message_words = message_words

    def events(self, horizon_cycles: int) -> list[MessageEvent]:
        gap = 2 + (horizon_cycles // 7) % 11
        return [MessageEvent(cycle, self.message_words, i)
                for i, cycle in enumerate(range(1, horizon_cycles, gap))]


_BUILT_INS = st.one_of(
    st.builds(ConstantBitRate, st.integers(1, 9),
              st.floats(0.5, 200, allow_nan=False),
              offset_cycles=st.integers(0, 50)),
    st.builds(PeriodicBurst, st.integers(1, 4), st.integers(1, 9),
              st.integers(1, 300), offset_cycles=st.integers(0, 50)),
    st.builds(BernoulliMessages, st.floats(0, 1), st.integers(1, 9),
              st.just(_FLIT_SIZE), seed=st.integers(0, 99)),
    st.builds(_replay_events, st.lists(
        st.tuples(st.integers(0, 800), st.integers(0, 40),
                  st.integers(0, 9)),
        max_size=30, unique_by=lambda p: p[1])),  # ids are distinct
    st.builds(Saturating, st.integers(1, 9), st.just(_FLIT_SIZE)))

#: Every pattern the batch compiles: the built-ins plus two it has no
#: closed form for, one of them not prefix-stable.
_ANY_PATTERN = st.one_of(
    _BUILT_INS,
    st.builds(_Jittered, st.integers(0, 9), st.integers(1, 60),
              st.integers(0, 99)),
    st.builds(_HorizonScaled, st.integers(1, 9)))


class _OneChannel:
    """One real route, any slot set: a hand-built incarnation of one
    channel for the executors and for the batch API directly.  A
    ``twin`` channel on a route that shares no link with it can replay
    the same incarnations beside it, contention-free on any slots."""

    TABLE_SIZE = 16

    def __init__(self):
        self.topology = mesh(2, 2, nis_per_router=2)
        self.config = config = _config(self.topology, 1, n_channels=1)
        assert config.table_size == self.TABLE_SIZE
        (self.name, self.granted), = config.allocation.channels.items()
        self.fmt = config.fmt
        assert self.fmt.flit_size == _FLIT_SIZE
        self.frequency_hz = config.frequency_hz
        self.twin = ChannelAllocation(
            dataclasses.replace(self.granted.spec, name="twin"),
            make_path(self.topology, "ni1_1_0", ["r1_1", "r0_1"],
                      "ni0_1_1"), self.granted.slots, self.TABLE_SIZE)
        assert not {link.key for link in self.twin.path.links} & \
            {link.key for link in self.granted.path.links}

    def allocation(self, slots, channel=None):
        channel = channel or self.granted
        return ChannelAllocation(channel.spec, channel.path,
                                 tuple(sorted(slots)), self.TABLE_SIZE)

    def timeline(self, n_slots, spans, twin=False):
        """``spans``: ``(start, end, slots)`` incarnations, in order, of
        the channel and, with ``twin``, of the twin too."""
        events = []
        for app, channel in [("app", self.granted)] + \
                [("twin", self.twin)] * twin:
            for start, end, slots in spans:
                events.append(TimelineEvent(
                    start, "start", app,
                    (self.allocation(slots, channel),)))
                if end < n_slots:
                    events.append(TimelineEvent(end, "stop", app))
        return ReconfigurationTimeline(
            self.topology, events, horizon_slots=n_slots,
            table_size=self.TABLE_SIZE, frequency_hz=self.frequency_hz,
            fmt=self.fmt)

    def run(self, timeline, pattern, window=None, *, oracle=False):
        """The first ``window`` slots (default: all) of ``timeline``,
        every channel offered the one ``pattern`` object."""
        return _through(replay_configuration(timeline), SimRequest(
            n_slots=window or timeline.horizon_slots,
            traffic=dict.fromkeys(timeline.channel_names, pattern),
            timeline=timeline), oracle)

    def solve(self, arrivals, start, end, slots):
        """The one incarnation ``arrivals`` holds, solved by the batch:
        its run, or ``None`` when nothing flew."""
        runs = _solve([self.name], [(start, end, self.allocation(slots))],
                      arrivals, self.config)
        assert len(runs) <= 1
        return runs[0] if runs else None


def _arrivals_of(events):
    """A one-segment :class:`Arrivals` built by hand from ``events``."""
    arrivals = Arrivals()
    arrivals.cycles, arrivals.words, arrivals.mids = (
        np.array([getattr(e, field) for e in events], np.int64)
        for field in ("cycle", "words", "message_id"))
    arrivals.bounds = np.array([0, len(events)], np.int64)
    return arrivals


def _events(run):
    """A run's ``(message_id, injection_slot, delivery_cycle)`` tuples."""
    return list(zip(*(column.tolist() for column in run.trace_columns())))


def _records(run, name):
    sink = ChannelStats(name)
    if run is not None:
        run.append_records(sink)
    return sink.injections, sink.deliveries


_INCARNATIONS = st.integers(1, 240).flatmap(
    lambda n: st.integers(0, n - 1).flatmap(
        lambda start: st.tuples(st.just(n), st.just(start),
                                st.integers(start + 1, n))))
_SLOT_SETS = st.sets(st.integers(0, _OneChannel.TABLE_SIZE - 1), min_size=1)


class TestTablesEndWithTheirIncarnation:
    """Arrivals compiled only as far as their incarnation reads give the
    run the full-horizon arrivals give, and both give the per-flit run."""

    @pytest.fixture(scope="class")
    def one(self):
        return _OneChannel()

    @settings(max_examples=200, deadline=None)
    @given(pattern=_BUILT_INS, incarnation=_INCARNATIONS, slots=_SLOT_SETS)
    def test_bounded_equals_full_horizon_equals_per_flit(
            self, one, pattern, incarnation, slots):
        n_slots, start, end = incarnation
        flit_size = one.fmt.flit_size
        lifetime = (end - start) * flit_size
        arrivals = compile_arrivals(
            [(pattern, lifetime, (n_slots - start) * flit_size)])
        expected = [e for e in pattern.events(n_slots * flit_size)
                    if e.cycle < lifetime]
        assert arrivals.bounds.tolist() == [0, len(expected)]
        assert arrivals.cycles.tolist() == [e.cycle for e in expected]
        assert arrivals.words.tolist() == [e.words for e in expected]
        assert arrivals.mids.tolist() == [e.message_id for e in expected]
        assert arrivals.nbytes == 3 * 8 * len(expected)
        bounded = one.solve(arrivals, start, end, slots)
        # What the whole run offers: every event that arrives before the
        # run ends, most of which the incarnation can never inject.
        full = one.solve(_arrivals_of(
            [e for e in pattern.events(n_slots * flit_size)
             if e.cycle < (n_slots - start) * flit_size]),
            start, end, slots)
        assert (bounded is None) == (full is None)
        if bounded is not None:
            count = len(expected)
            assert bounded.count == count <= full.count
            for column in ("k", "actual", "completed", "last"):
                assert (getattr(bounded, column)
                        == getattr(full, column)[:count]).all(), column
            assert not full.actual[count:].any()
            assert not full.completed[count:].any()
            assert bounded.n_flits == full.n_flits
            assert bounded.n_deliveries == full.n_deliveries
            assert _events(bounded) == _events(full)
        assert _records(bounded, one.name) == _records(full, one.name)
        # The per-flit oracle on a timeline built from the same draws.
        timeline = one.timeline(n_slots, [(start, end, slots)])
        scalar = one.run(timeline, pattern, oracle=True)
        channel = scalar.stats.channel(one.name)
        assert _records(bounded, one.name) == (channel.injections,
                                               channel.deliveries)
        assert tuple(_events(bounded) if bounded else ()) == \
            scalar.composability_trace().trace(one.name)
        _assert_equivalent(one.run(timeline, pattern), scalar)

    @pytest.mark.parametrize("pattern", [
        ConstantBitRate(2, 7.5), PeriodicBurst(2, 3, 40),
        BernoulliMessages(0.5, 2, _FLIT_SIZE, seed=3),
        _replay_events([(0, 0, 4), (9, 1, 4)]),
        Saturating(2, _FLIT_SIZE), _Jittered(3, 20, 1)],
        ids=lambda p: type(p).__name__)
    def test_zero_length_incarnation_reads_nothing(self, one, pattern):
        arrivals = compile_arrivals([(pattern, 0, 300), (pattern, 30, 300),
                                     (pattern, 0, 150)])
        bounds = arrivals.bounds.tolist()
        assert bounds[0] == bounds[1] and bounds[2] == bounds[3]
        assert one.solve(compile_arrivals([(pattern, 0, 300)]),
                         50, 50, {1, 5}) is None

    def test_restarts_of_one_object_each_call_events_once(self, one):
        calls = []

        class Counted(BernoulliMessages):
            def events(self, horizon_cycles):
                calls.append(horizon_cycles)
                return super().events(horizon_cycles)

        pattern = Counted(0.3, 2, _FLIT_SIZE, seed=5)
        n_slots = 500
        spans = [(10, 40, {2, 9}), (100, 400, {4}), (420, 450, {1})]
        timeline = one.timeline(n_slots, spans)
        compiled = one.run(timeline, pattern)
        flit_size = one.fmt.flit_size
        # One call per incarnation, at the horizon the per-flit run uses.
        assert calls == [(n_slots - start) * flit_size
                         for start, _, _ in spans]
        stats = compiled.meta["executor_stats"]
        assert stats["pattern_compiles"] == len(spans)
        assert stats["table_events"] == sum(
            sum(e.cycle < (end - start) * flit_size
                for e in pattern.events((n_slots - start) * flit_size))
            for start, end, _ in spans)
        assert stats["interval_runs"] == len(compiled.stats._runs[one.name])
        calls.clear()
        _assert_equivalent(compiled,
                           one.run(timeline, pattern, oracle=True))

    def test_unknown_pattern_is_compiled_at_the_reference_horizon(self, one):
        calls = []

        class Counted(_HorizonScaled):
            def events(self, horizon_cycles):
                calls.append(horizon_cycles)
                return super().events(horizon_cycles)

        pattern = Counted(message_words=5)
        n_slots, spans = 400, [(60, 130, {0, 7}), (200, 260, {3})]
        timeline = one.timeline(n_slots, spans)
        compiled = one.run(timeline, pattern)
        flit_size = one.fmt.flit_size
        assert calls == [(n_slots - start) * flit_size
                         for start, _, _ in spans]
        for run, (start, end, _) in zip(compiled.stats._runs[one.name],
                                        spans):
            assert run.start == start
            assert run.count == sum(
                e.cycle < (end - start) * flit_size
                for e in pattern.events((n_slots - start) * flit_size))
        _assert_equivalent(compiled,
                           one.run(timeline, pattern, oracle=True))

    def test_verify_timeline_allocates_for_what_flew(self):
        timeline = TestTimelineEquivalence()._timeline()
        results, traces = [], []

        def traced(result):
            """``result``, keeping every trace read off it."""
            read = result.composability_trace
            result.composability_trace = lambda: (
                traces.append(read()) or traces[-1])
            results.append(result)
            return result

        def backend_factory(config):
            backend = FlitLevelBackend(config)
            run = backend.run
            backend.run = lambda request: traced(run(request))
            return backend

        with no_records(), mock.patch.object(
                CompiledTraceRecorder, "trace",
                side_effect=AssertionError("a trace became tuples")):
            verdict = verify_timeline(timeline, replay_traffic(timeline),
                                      backend_factory=backend_factory)
        assert verdict.is_composable and verdict.survivors
        flit_size = timeline.fmt.flit_size
        longest = {name: max(stop - start for start, stop, _ in spans)
                   for name, spans in timeline.channel_intervals().items()}
        assert min(longest.values()) < timeline.horizon_slots // 2
        for result in results:
            assert result.meta["executor"] == "compiled"
            for name, runs in result.stats._runs.items():
                for run in runs:
                    assert (run.cycles < longest[name] * flit_size).all()
        # The survivors were compared on the arrays: no record and no
        # trace tuple was built on the way.
        assert len(traces) == len(results) == 2


# -- the batch keeps its oracle -----------------------------------------------


@st.composite
def _lifetime_tables(draw):
    """A window, a horizon and up to four channels with up to three
    incarnations each — zero-length ones and ones past or across the
    window included — over patterns that several channels share."""
    n_slots = draw(st.integers(2, 200))
    window = draw(st.integers(1, n_slots))
    patterns = draw(st.lists(_ANY_PATTERN, min_size=1, max_size=3))
    table, traffic = {}, {}
    for index in range(draw(st.integers(1, 4))):
        name = f"c{index}"
        spans, cursor = [], 0
        for _ in range(draw(st.integers(1, 3))):
            if cursor >= n_slots:
                break
            start = draw(st.integers(cursor, n_slots - 1))
            end = draw(st.integers(start, n_slots))
            spans.append((start, end, draw(_SLOT_SETS)))
            cursor = end
        table[name] = spans
        if draw(st.integers(0, 5)):  # now and then a channel offers nothing
            traffic[name] = patterns[draw(st.integers(0,
                                                      len(patterns) - 1))]
    return window, table, traffic


def _execute(executor, one, window, table, traffic):
    """``executor`` over a hand-built lifetime table of ``one``'s route
    (executors never check contention; channels are independent)."""
    lifetimes = {
        name: tuple((start, end, ChannelAllocation(
            dataclasses.replace(one.granted.spec, name=name),
            one.granted.path, tuple(sorted(slots)), one.TABLE_SIZE))
            for start, end, slots in spans)
        for name, spans in table.items()}
    return executor(one.config, lifetimes, window, traffic, NULL_TELEMETRY)


def _observations(stats, name):
    """``incarnation_observations`` as comparable values; ``repr`` keeps
    the float comparison bit-exact."""
    return repr([(slot, delivered, seen.count, seen.worst_ns, seen.mean_ns)
                 for slot, delivered, seen in
                 stats.incarnation_observations(name)])


def _readers(run):
    """Every reader of a run, as comparable values; ``repr`` keeps the
    float comparison bit-exact."""
    return repr((run.latency_column().tolist(),
                 run.service_column().tolist(),
                 [column.tolist() for column in run.trace_columns()],
                 run.delivered_bytes(), run.first_slot))


def _readers_per_run(run):
    """:func:`_readers` as a run once computed each on its own rows —
    the oracle for the readers that slice what the batch derived."""
    batch, done = run.batch, run.completed
    last = run.last[done]
    delivered = (last + run.traversal_slots) * batch.flit_size
    created = run.start * batch.flit_size + run.cycles[done]
    latencies = (((delivered - created) * batch.period_ps) /
                 1000.0).tolist()
    by_id = np.argsort(run.mids[done], kind="stable")  # the walk's order
    previous = np.empty_like(last)
    previous[:1] = -1
    previous[1:] = last[by_id][:-1] * batch.flit_size * batch.period_ps
    ready = np.maximum(created[by_id] * batch.period_ps, previous)
    service = ((delivered[by_id] * batch.period_ps - ready) /
               1000.0).tolist()
    rotations, index = np.divmod(run.base + run.k[0], len(run.slots))
    return repr((latencies, service,
                 [run.mids[done].tolist(), last.tolist(),
                  delivered.tolist()],
                 int(run.words[done].sum()) * batch.bytes_per_word,
                 int(rotations * batch.table_size +
                     np.asarray(run.slots)[index])))


def _edited_copies(run):
    """Copies of ``run`` over edited copies of its batch: its last
    completed message dropped, every message dropped, its ids
    reversed."""
    head = run.completed.copy()
    head[head.nonzero()[0][-1:]] = False
    return [_with_rows(copy.copy(run), "completed", head),
            _with_rows(copy.copy(run), "completed",
                       np.zeros(run.count, bool)),
            _with_rows(copy.copy(run), "mids", run.mids[::-1])]


class TestBatchKeepsItsOracle:
    @pytest.fixture(scope="class")
    def one(self):
        return _OneChannel()

    @settings(max_examples=150, deadline=None)
    @given(case=_lifetime_tables(), other_window=st.integers(1, 200),
           block=st.sampled_from([1, 2, 5, 1 << 14]))
    @example(case=(120, {"c0": [(10, 10, {3}), (10, 70, {1, 9}),
                                (70, 120, {4})],
                         "c1": [(0, 120, {0, 8})]},
                   {"c0": ConstantBitRate(3, 6.5),
                    "c1": ConstantBitRate(3, 6.5)}),
             other_window=60, block=2
             ).via("a zero-length incarnation and a pattern shared by two "
                   "channels")
    @example(case=(50, {"c0": [(0, 40, {2}), (45, 90, {5})],
                        "c1": [(60, 100, {1})]},
                   {"c0": _HorizonScaled(4), "c1": _HorizonScaled(4)}),
             other_window=45, block=1 << 14
             ).via("window-clipped and skipped incarnations of a pattern "
                   "that is not prefix-stable")
    @example(case=(90, {"c0": [(0, 60, {2, 9})], "c1": [(5, 90, {4})],
                        "c2": [(0, 30, {1}), (40, 90, {6})]},
                   {"c0": BernoulliMessages(0.6, 2, _FLIT_SIZE, seed=1),
                    "c1": BernoulliMessages(0.6, 2, _FLIT_SIZE, seed=2),
                    "c2": _replay_events([(3, 7, 2), (30, 1, 1),
                                          (31, 4, 0)])}),
             other_window=90, block=5
             ).via("distinct objects of one class on consecutive "
                   "channels")
    def test_batch_equals_the_per_flit_oracle(self, one, case,
                                              other_window, block):
        window, table, traffic = case
        # Small blocks split the solve between segments as a long run does.
        with mock.patch.object(compiled_module, "_BLOCK", block):
            stats, meta = _execute(compiled_execute, one, window, table,
                                   traffic)
        reference, reference_meta = _execute(flitsim_execute, one, window,
                                             table, traffic)
        assert meta["flits_by_channel"] == reference_meta["flits_by_channel"]
        names = sorted(table)
        # No read builds a record, whatever the order of the ids.
        with no_records():
            assert stats.delivery_count() == reference.delivery_count()
            for name in names:
                assert stats.service_latencies_ns(name) == \
                    reference.service_latencies_ns(name), name
                assert _observations(stats, name) == \
                    _observations(reference, name), name
            assert repr(stats.all_latencies_ns()) == \
                repr(reference.all_latencies_ns())
            assert repr(stats.latency_summaries()) == \
                repr(reference.latency_summaries())
            # Every reader slices what the batch derived, and equals the
            # per-run computation; so does an edited copy, which derives
            # its own and leaves the batch it was copied from as it was.
            runs = [run for name in names
                    for run in stats._runs.get(name, ())]
            for run in runs:
                assert _readers(run) == _readers_per_run(run), run.channel
            for run in runs:
                before = _readers(run)
                for edited in _edited_copies(run):
                    assert _readers(edited) == _readers_per_run(edited), \
                        run.channel
                assert _readers(run) == before, run.channel
        trace = stats.composability_trace()
        reference_trace = reference.composability_trace()
        for name in names:
            assert trace.trace(name) == reference_trace.trace(name), name
        assert stats.channels == reference.channels
        for name in reference.channels:
            assert stats.channel(name).injections == \
                reference.channel(name).injections, name
            assert stats.channel(name).deliveries == \
                reference.channel(name).deliveries, name
        # Two batches compared on their arrays agree with the tuple walk.
        ours = _execute(compiled_execute, one, window, table,
                        traffic)[0].composability_trace()
        theirs = _execute(compiled_execute, one, other_window, table,
                          traffic)[0].composability_trace()
        with mock.patch.object(CompiledTraceRecorder, "trace",
                               side_effect=AssertionError("tuples built")):
            on_arrays = ours.agreement(theirs, names + ["never-ran"])
        assert on_arrays == TraceRecorder.agreement(
            ours, theirs, names + ["never-ran"])


#: What ``_solve`` sets on a batch; everything else is derived from it.
_SOLVED = compiled_module._Batch.COLUMNS + (
    "arrivals", "starts", "traversals", "table_size", "flit_size",
    "period_ps", "bytes_per_word")


def _with_rows(run, column, rows):
    """``run`` over a copy of its batch whose ``column`` reads ``rows``
    in the run's place; other runs keep the batch they had.  The copy
    takes what was solved, none of what was derived, so it derives its
    own columns from the edited one."""
    batch = holder = compiled_module._Batch()
    vars(batch).update((name, getattr(run.batch, name))
                       for name in _SOLVED)
    if column in Arrivals.COLUMNS:
        holder = batch.arrivals = copy.copy(batch.arrivals)
    values = getattr(holder, column).copy()
    values[run.lo:run.hi] = rows
    setattr(holder, column, values)
    run.batch = batch
    return run


def _mutations(draw, recorder):
    """``recorder`` with one drawn edit, still in array form."""
    names = sorted(recorder._events)
    name = names[draw(st.integers(0, len(names) - 1))]
    runs = recorder._events[name].runs
    index = draw(st.integers(0, len(runs) - 1))
    run = copy.copy(runs[index])
    events = run.n_deliveries
    which = draw(st.integers(0, events - 1))
    kind = draw(st.sampled_from(
        ["mid", "slot", "traversal", "drop", "split"]))
    replacement = [run]
    if kind == "mid":
        mids = run.mids.copy()
        mids[run.completed.nonzero()[0][which]] += 1000
        _with_rows(run, "mids", mids)
    elif kind == "slot":
        last = run.last.copy()
        last[run.completed.nonzero()[0][which]] += 1
        _with_rows(run, "last", last)
    elif kind == "traversal":
        run.traversal_slots += 1
    else:
        positions = run.completed.nonzero()[0]
        head = run.completed.copy()
        head[positions[which]:] = False
        tail = run.completed & ~head
        if kind == "drop":
            tail[positions[which]] = False
        other = _with_rows(copy.copy(run), "completed", tail)
        _with_rows(run, "completed", head)
        replacement = [part for part in (run, other)
                       if part.completed.any()]
    events = dict(recorder._events)
    events[name] = compiled_module._RunEvents(
        runs[:index] + replacement + runs[index + 1:])
    return CompiledTraceRecorder(events), name, kind


class TestAgreementOnArrays:
    """The array compare passes exactly what the tuple compare passes."""

    @pytest.fixture(scope="class")
    def recorder(self):
        config = _config(mesh(3, 3, nis_per_router=2), 5)
        return _run(config, _traffic(config, 5), 600).composability_trace()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_the_tuple_walk_on_edited_recorders(self, recorder,
                                                       data):
        edited, name, kind = _mutations(data.draw, recorder)
        channels = sorted(recorder._events) + ["never-ran"]
        with mock.patch.object(CompiledTraceRecorder, "trace",
                               side_effect=AssertionError("tuples built")):
            on_arrays = recorder.agreement(edited, channels)
        assert on_arrays == TraceRecorder.agreement(recorder, edited,
                                                    channels)
        diverged = () if kind == "split" else (name,)
        assert on_arrays[1] == diverged

    def test_per_flit_recorder_takes_the_tuple_walk(self):
        config = _config(mesh(2, 2, nis_per_router=2), 3, n_channels=6)
        traffic = _traffic(config, 3)
        compiled = _run(config, traffic, 400).composability_trace()
        scalar = _run(config, traffic, 400,
                      oracle=True).composability_trace()
        names = sorted(config.allocation.channels)
        assert all(map(scalar.trace, names))
        assert compiled.agreement(scalar, names) == (tuple(names), ())
        assert scalar.agreement(compiled, names) == (tuple(names), ())


# -- the trace is read off the records ---------------------------------------


@st.composite
def _restarts(draw):
    """A horizon, the window a run simulates of it and up to three
    disjoint incarnations of one channel."""
    n_slots = draw(st.integers(2, 240))
    spans, cursor = [], 0
    for _ in range(draw(st.integers(1, 3))):
        if cursor >= n_slots:
            break
        start = draw(st.integers(cursor, n_slots - 1))
        end = draw(st.integers(start + 1, n_slots))
        spans.append((start, end, draw(_SLOT_SETS)))
        cursor = end
    return n_slots, draw(st.integers(1, n_slots)), spans


def _assert_one_trace(compiled, scalar):
    """The compiled trace on its arrays, the record walk over compiled's
    own expanded records and the per-flit trace are one trace."""
    on_arrays = compiled.composability_trace()
    walked = StatsCollector.composability_trace(compiled.stats)
    reference = scalar.composability_trace()
    assert compiled.stats.channels == scalar.stats.channels
    for name in scalar.stats.channels:
        assert on_arrays.trace(name) == walked.trace(name) == \
            reference.trace(name), name


class TestTraceReadOffTheRecords:
    @pytest.fixture(scope="class")
    def one(self):
        return _OneChannel()

    @settings(max_examples=80, deadline=None)
    @given(pattern=_BUILT_INS, case=_restarts(), twin=st.booleans())
    @example(pattern=ConstantBitRate(2, 7.5), twin=False,
             case=(120, 120, [(21, 120, {2, 5, 13})])
             ).via("a start that is not on a table boundary")
    @example(pattern=Saturating(3, _FLIT_SIZE), twin=False,
             case=(200, 90, [(10, 60, {4}), (90, 150, {1, 9}),
                             (170, 200, {0})])
             ).via("spans that start at or after the window's end")
    @example(pattern=PeriodicBurst(2, 3, 40), twin=False,
             case=(160, 160, [(0, 45, {0, 7}), (45, 160, {3})])
             ).via("a stop and a restart at the same slot")
    @example(pattern=ConstantBitRate(4, 11.5), twin=True,
             case=(150, 150, [(5, 70, {1, 8}), (70, 150, {2})])
             ).via("one pattern object shared by two channels")
    def test_restart_timelines(self, one, pattern, case, twin):
        n_slots, window, spans = case
        timeline = one.timeline(n_slots, spans, twin)
        compiled = one.run(timeline, pattern, window)
        scalar = one.run(timeline, pattern, window, oracle=True)
        _assert_one_trace(compiled, scalar)
        _assert_equivalent(compiled, scalar)
        # One incarnation per run, and the record walk splits the same.
        for name in timeline.channel_names:
            runs = compiled.stats._runs.get(name, [])
            assert len(runs) == len(
                scalar.stats.channel(name).incarnations())

    @settings(max_examples=6, deadline=None)
    @given(topo_name=st.sampled_from(sorted(TOPOLOGIES)),
           seed=st.integers(0, 20))
    def test_static_runs(self, topo_name, seed):
        config = _config(TOPOLOGIES[topo_name](), seed)
        traffic = _traffic(config, seed)
        _assert_one_trace(_run(config, traffic, 300),
                          _run(config, traffic, 300, oracle=True))
