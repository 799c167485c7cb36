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

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign.spec import WorkloadSpec
from repro.core.configuration import configure
from repro.core.allocation import ChannelAllocation
from repro.core.path import make_path
from repro.core.timeline import (ReconfigurationTimeline, TimelineEvent,
                                 replay_configuration)
from repro.faults.model import FaultSchedule, FaultSpec
from repro.service.churn import ChurnSpec, ChurnWorkload
from repro.service.controller import SessionService, merge_events
from repro.simulation.backend import FlitLevelBackend, SimRequest
from repro.simulation.composability import replay_traffic, verify_timeline
from repro.simulation.monitors import (ChannelStats, StatsCollector,
                                       TraceRecorder, latency_digest)
from repro.simulation.traffic import (BernoulliMessages, ConstantBitRate,
                                      MessageEvent, PeriodicBurst, Replay,
                                      Saturating, TrafficPattern)
from repro.topology.builders import concentrated_mesh, mesh, ring, torus

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
    return FlitLevelBackend(config, **kwargs).run(
        SimRequest(n_slots=n_slots, traffic=traffic))


def _replay(timeline, traffic, **kwargs):
    return FlitLevelBackend(replay_configuration(timeline), **kwargs).run(
        SimRequest(n_slots=timeline.horizon_slots, traffic=traffic,
                   timeline=timeline))


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
    assert got_trace.channels() == ref_trace.channels()
    for name in ref_trace.channels():
        assert got_trace.trace(name) == ref_trace.trace(name), name
    assert _digest(got) == _digest(ref)


class TestStaticEquivalence:
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
    def test_per_flit_identity(self, topo_name, seed):
        config = _config(TOPOLOGIES[topo_name](), seed)
        traffic = _traffic(config, seed)
        compiled = _run(config, traffic, 600)
        scalar = _run(config, traffic, 600, compiled=False)
        assert _is_compiled(compiled) and not _is_compiled(scalar)
        _assert_equivalent(compiled, scalar)

    def test_hoisted_contention_check_accepts_valid_config(self):
        """The plan-level check, run before dispatch, changes nothing a
        contention-free run produces."""
        config = _config(mesh(3, 3, nis_per_router=2), 3)
        traffic = _traffic(config, 3)
        checked = _run(config, traffic, 400, check_contention=True)
        plain = _run(config, traffic, 400)
        assert _is_compiled(checked)
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
        traffic = replay_traffic(timeline)
        compiled = _replay(timeline, traffic)
        scalar = _replay(timeline, traffic, compiled=False)
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
        scalar = _run(config, traffic, 500, compiled=False)
        assert _is_compiled(compiled)
        _assert_equivalent(compiled, scalar)


class TestServiceLatencies:
    def test_fast_path_matches_record_walk(self):
        config = _config(mesh(3, 3, nis_per_router=2), 5)
        traffic = _traffic(config, 5)
        compiled = _run(config, traffic, 800)
        scalar = _run(config, traffic, 800, compiled=False)
        assert _is_compiled(compiled)
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


# -- tables end with their incarnation (PR 22) ----------------------------------

_FLIT_SIZE = 3  # WordFormat default; the strategies below need it early


def _replay_events(pairs):
    return Replay([MessageEvent(cycle, words, mid) for cycle, mid, words
                   in sorted(pairs, key=lambda p: p[:2])])


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


class _OneChannel:
    """One real route, any slot set: a hand-built incarnation of one
    channel for the executors and for ``_run_interval`` directly.  A
    ``twin`` channel on a route that shares no link with it can replay
    the same incarnations beside it, contention-free on any slots."""

    TABLE_SIZE = 16

    def __init__(self):
        self.topology = mesh(2, 2, nis_per_router=2)
        config = _config(self.topology, 1, n_channels=1)
        (self.name, self.granted), = config.allocation.channels.items()
        self.fmt = config.fmt
        assert self.fmt.flit_size == _FLIT_SIZE
        self.frequency_hz = config.frequency_hz
        self.twin = ChannelAllocation(
            dataclasses.replace(self.granted.spec, name="twin"),
            make_path(self.topology, "ni1_1_0", ["r1_1", "r0_1"],
                      "ni0_1_1"), self.granted.slots)
        assert not {link.key for link in self.twin.path.links} & \
            {link.key for link in self.granted.path.links}

    def allocation(self, slots, channel=None):
        channel = channel or self.granted
        return ChannelAllocation(channel.spec, channel.path,
                                 tuple(sorted(slots)))

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

    def run(self, timeline, pattern, window=None, **kwargs):
        """The first ``window`` slots (default: all) of ``timeline``,
        every channel offered the one ``pattern`` object."""
        return FlitLevelBackend(replay_configuration(timeline), **kwargs).run(
            SimRequest(n_slots=window or timeline.horizon_slots,
                       traffic=dict.fromkeys(timeline.channel_names, pattern),
                       timeline=timeline))

    def interval(self, table, count, start, end, slots):
        from repro.simulation.compiled import _run_interval
        return _run_interval(
            self.name, table, count, start, end, self.allocation(slots),
            self.TABLE_SIZE, self.fmt.flit_size,
            round(1e12 / self.frequency_hz), self.fmt.bytes_per_word)


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
    """A table compiled only as far as its incarnation reads gives the
    run the full-horizon table gives, and both give the per-flit run."""

    @pytest.fixture(scope="class")
    def one(self):
        return _OneChannel()

    @settings(max_examples=200, deadline=None)
    @given(pattern=_BUILT_INS, incarnation=_INCARNATIONS, slots=_SLOT_SETS)
    def test_bounded_equals_full_horizon_equals_per_flit(
            self, one, pattern, incarnation, slots):
        from repro.simulation.compiled import compile_pattern, pattern_slice
        n_slots, start, end = incarnation
        flit_size = one.fmt.flit_size
        stats = {}
        table, count = pattern_slice(
            {}, pattern, (end - start) * flit_size,
            (n_slots - start) * flit_size, one.fmt, stats)
        assert table.horizon_cycles == (end - start) * flit_size
        assert table.cycles.size == count == stats["table_events"]
        assert stats["table_bytes"] == 7 * 8 * count
        bounded = one.interval(table, count, start, end, slots)
        # What the parent read: the whole run's table, every event that
        # arrives before the run ends.
        whole = compile_pattern(pattern, n_slots * flit_size, one.fmt)
        full = one.interval(
            whole, whole.count_until((n_slots - start) * flit_size),
            start, end, slots)
        assert (bounded is None) == (full is None)
        if bounded is not None:
            assert full.count >= count
            for column in ("k", "actual", "completed"):
                assert (getattr(bounded, column)
                        == getattr(full, column)[:count]).all(), column
            assert not full.actual[count:].any()
            assert not full.completed[count:].any()
            assert bounded.n_flits == full.n_flits
            assert bounded.n_deliveries == full.n_deliveries
            assert bounded.trace_events() == full.trace_events()
        assert _records(bounded, one.name) == _records(full, one.name)
        # The per-flit oracle on a timeline built from the same draws.
        timeline = one.timeline(n_slots, [(start, end, slots)])
        scalar = one.run(timeline, pattern, compiled=False)
        channel = scalar.stats.channel(one.name)
        assert _records(bounded, one.name) == (channel.injections,
                                               channel.deliveries)
        assert tuple(bounded.trace_events() if bounded else ()) == \
            scalar.composability_trace().trace(one.name)
        _assert_equivalent(one.run(timeline, pattern), scalar)

    @pytest.mark.parametrize("pattern", [
        ConstantBitRate(2, 7.5), PeriodicBurst(2, 3, 40),
        BernoulliMessages(0.5, 2, _FLIT_SIZE, seed=3),
        _replay_events([(0, 0, 4), (9, 1, 4)]),
        Saturating(2, _FLIT_SIZE), _Jittered(3, 20, 1)],
        ids=lambda p: type(p).__name__)
    def test_zero_length_incarnation_reads_nothing(self, one, pattern):
        from repro.simulation.compiled import pattern_slice
        table, count = pattern_slice({}, pattern, 0, 300, one.fmt)
        assert count == 0
        assert one.interval(table, count, 50, 50, {1, 5}) is None

    @pytest.mark.parametrize("spans, compiles, slices", [
        ([(10, 40, {2, 9}), (100, 400, {4})], 2, 0),   # grows once
        ([(10, 310, {2, 9}), (350, 380, {4})], 1, 1),  # long one first
    ], ids=["short-then-long", "long-then-short"])
    def test_reused_pattern_object_grows_its_table_once(
            self, one, spans, compiles, slices):
        pattern = ConstantBitRate(4, 11.5)
        timeline = one.timeline(500, spans)
        compiled = one.run(timeline, pattern)
        stats = compiled.meta["executor_stats"]
        assert (stats["pattern_compiles"],
                stats.get("pattern_slices", 0)) == (compiles, slices)
        first, second = compiled.stats._runs[one.name]
        longest = max(end - start for start, end, _ in spans)
        flit_size = one.fmt.flit_size
        assert first.table.horizon_cycles == \
            (spans[0][1] - spans[0][0]) * flit_size
        assert second.table.horizon_cycles == longest * flit_size
        assert (first.table is second.table) == (compiles == 1)
        assert stats["table_events"] == sum(
            table.cycles.size for table in {id(t): t for t in (
                first.table, second.table)}.values())
        # The earlier run still reads the table it was solved on.
        _assert_equivalent(compiled,
                           one.run(timeline, pattern, compiled=False))

    def test_unknown_pattern_is_compiled_at_the_reference_horizon(self, one):
        pattern = _Jittered(message_words=5, mean_gap=12, seed=4)
        n_slots, start, end = 400, 60, 130
        timeline = one.timeline(n_slots, [(start, end, {0, 7})])
        compiled = one.run(timeline, pattern)
        run, = compiled.stats._runs[one.name]
        horizon = (n_slots - start) * one.fmt.flit_size
        assert run.table.horizon_cycles == horizon
        assert run.table.cycles.size == len(pattern.events(horizon))
        assert run.count == run.table.count_until(
            (end - start) * one.fmt.flit_size) < run.table.cycles.size
        _assert_equivalent(compiled,
                           one.run(timeline, pattern, compiled=False))

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
                    past = run.table.cycles.size - run.table.count_until(
                        longest[name] * flit_size)
                    assert past <= 1, (name, past)
            assert result.stats.materialised == ()
        # The survivors were compared on the arrays.
        assert len(traces) == len(results) == 2
        for trace in traces:
            assert trace._materialised == set()
            assert not trace._events


def _mutations(draw, recorder):
    """``recorder`` with one drawn edit, still in array form."""
    names = sorted(recorder._runs)
    name = names[draw(st.integers(0, len(names) - 1))]
    runs = recorder._runs[name]
    index = draw(st.integers(0, len(runs) - 1))
    run = copy.copy(runs[index])
    events = run.n_deliveries
    which = draw(st.integers(0, events - 1))
    kind = draw(st.sampled_from(
        ["mid", "slot", "traversal", "drop", "split"]))
    replacement = [run]
    if kind == "mid":
        run.table = copy.copy(run.table)
        run.table.mids = run.table.mids.copy()
        position = run.completed.nonzero()[0][which]
        run.table.mids[position] += 1000
    elif kind == "slot":
        run._last_slots = run.last_slots().copy()
        run._last_slots[which] += 1
    elif kind == "traversal":
        run.traversal_slots += 1
    else:
        positions = run.completed.nonzero()[0]
        head = run.completed.copy()
        head[positions[which]:] = False
        tail = run.completed & ~head
        if kind == "drop":
            tail[positions[which]] = False
        other = copy.copy(run)
        run.completed, other.completed = head, tail
        run._last_slots = other._last_slots = None
        replacement = [part for part in (run, other)
                       if part.completed.any()]
    from repro.simulation.compiled import CompiledTraceRecorder
    edited = CompiledTraceRecorder(dict(recorder._runs))
    edited._runs[name] = runs[:index] + replacement + runs[index + 1:]
    return edited, name, kind


def _in_array_form(recorder):
    """A copy sharing the runs but holding no event list of its own, so
    a test may materialise it and leave the fixture on its arrays."""
    fresh = copy.copy(recorder)
    fresh._events, fresh._materialised = type(recorder._events)(list), set()
    return fresh


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
        channels = sorted(recorder._runs) + ["never-ran"]
        on_arrays = recorder.agreement(edited, channels)
        assert not edited._materialised and not edited._events
        assert not recorder._materialised
        pristine = _in_array_form(recorder)
        assert on_arrays == TraceRecorder.agreement(pristine, edited,
                                                    channels)
        diverged = () if kind == "split" else (name,)
        assert on_arrays[1] == diverged
        # Once either side holds tuples, the tuples decide.
        assert pristine.agreement(edited, channels) == on_arrays

    def test_hand_appended_events_are_seen(self, recorder):
        ours, theirs = _in_array_form(recorder), _in_array_form(recorder)
        name = sorted(recorder._runs)[0]
        assert ours.agreement(theirs, [name]) == ((name,), ())
        theirs.record(name, 10 ** 6, 1, 2)
        assert ours.agreement(theirs, [name]) == ((), (name,))
        assert theirs.agreement(ours, [name]) == ((), (name,))

    def test_per_flit_recorder_takes_the_tuple_walk(self):
        config = _config(mesh(2, 2, nis_per_router=2), 3, n_channels=6)
        traffic = _traffic(config, 3)
        compiled = _run(config, traffic, 400).composability_trace()
        scalar = _run(config, traffic, 400,
                      compiled=False).composability_trace()
        names = sorted(scalar.channels())
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
    names = reference.channels()
    assert on_arrays.channels() == walked.channels() == names
    for name in names:
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
        scalar = one.run(timeline, pattern, window, compiled=False)
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
                          _run(config, traffic, 300, compiled=False))
