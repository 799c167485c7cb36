"""The watch tier reads one lifetime table and one latency definition.

Three kinds of check live here:

* every :class:`~repro.core.timeline.ReconfigurationTimeline` view and
  the timeline rollup equal the separate event walks they replaced
  (kept below as test-local references);
* the use-case runs and the static watchdog still produce the bytes
  they produced before service latency moved onto the stats collectors
  (digests taken from the commit before the move);
* the two wrong verdicts the end-to-end benchmark recorded — a
  fault-relocated survivor judged against its first route, and a
  finite-window over-delivery false alarm — stay fixed;
* what the watchdog and the canonical record read of a compiled run
  comes off the schedule arrays, equals the record walks bit for bit,
  and expands no channel into records.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from be_oracle import BeOracle
from flit_oracle import oracle_run
from repro.campaign.spec import WorkloadSpec, derive_seed
from repro.core.analysis import channel_bounds
from repro.core.configuration import configure
from repro.core.exceptions import ConfigurationError
from repro.core.placement import ChannelAllocation
from repro.core.timeline import (TimelineEvent, TimelineRecorder,
                                 lifetime_boundaries, replay_configuration)
from repro.experiments.section7 import section7_setup, usecase_gs_rows
from repro.faults.demo import run_churn_with_faults
from repro.faults.model import FaultSchedule, FaultSpec
from repro.service.churn import ChurnSpec, ChurnWorkload
import repro.simulation.compiled as compiled_module
from repro.simulation.backend import (BestEffortBackend, FlitLevelBackend,
                                      SimRequest)
from repro.simulation.composability import replay_traffic
from repro.simulation.monitors import (DeliveryRecord, ServiceObservation,
                                       StatsCollector)
from repro.simulation.traffic import MessageEvent, PeriodicBurst, Replay
from repro.telemetry.monitor import (FabricRollup, MonitorSpec,
                                     conformance_from_result,
                                     timeline_conformance)
from repro.topology.builders import mesh
from repro.usecase.runner import burst_traffic, run_be, run_gs


def _replay(timeline, *, oracle=False):
    """The whole timeline at replay traffic through the flit backend, or
    through the per-flit oracle."""
    config = replay_configuration(timeline)
    request = SimRequest(n_slots=timeline.horizon_slots,
                         traffic=replay_traffic(timeline), timeline=timeline)
    if oracle:
        return oracle_run(config, request)
    return FlitLevelBackend(config).run(request)


# -- the event walks the lifetime table replaced ---------------------------


def ref_channel_names(timeline):
    names = set()
    for event in timeline.events:
        names.update(ca.spec.name for ca in event.channels)
    return tuple(sorted(names))


def ref_channel_allocations(timeline):
    out = {}
    for event in timeline.events:
        for ca in event.channels:
            out.setdefault(ca.spec.name, ca)
    return out


def ref_channel_intervals(timeline):
    spans, open_spans = {}, {}
    for event in timeline.events:
        if event.action == "start":
            held = open_spans.setdefault(event.application, {})
            for ca in event.channels:
                held[ca.spec.name] = (event.slot, ca)
        else:
            for name, (start, ca) in sorted(
                    open_spans.pop(event.application, {}).items()):
                spans.setdefault(name, []).append((start, event.slot, ca))
    for held in open_spans.values():
        for name, (start, ca) in sorted(held.items()):
            spans.setdefault(name, []).append(
                (start, timeline.horizon_slots, ca))
    return {name: tuple(sorted(entry, key=lambda span: span[:2]))
            for name, entry in sorted(spans.items())}


def ref_survivors(timeline, until):
    if until is None:
        until = timeline.horizon_slots
    return tuple(sorted(
        name for name, spans in ref_channel_intervals(timeline).items()
        if any(start < until <= stop for start, stop, _ in spans)))


def ref_restricted_events(timeline, wanted):
    retained, events = set(), []
    for event in timeline.events:
        if event.action == "start":
            kept = tuple(ca for ca in event.channels
                         if ca.spec.name in wanted)
            if kept:
                retained.add(event.application)
                events.append(TimelineEvent(
                    event.slot, "start", event.application, kept))
        elif event.application in retained:
            retained.discard(event.application)
            events.append(TimelineEvent(event.slot, "stop",
                                        event.application))
    return tuple(sorted(events, key=lambda e: (
        e.slot, e.action != "stop", e.application)))


def rollup_bytes(rollup) -> str:
    """A rollup's canonical record as bytes, so floats compare by
    their text."""
    return json.dumps(rollup.to_record(), sort_keys=True)


def ref_rollup(timeline, horizon):
    """``FabricRollup.from_timeline`` as it rescanned every boundary."""
    table_size = timeline.table_size
    intervals = ref_channel_intervals(timeline)
    per_link, per_ni = {}, {}
    for name in sorted(intervals):
        for start, end, ca in intervals[name]:
            active = max(0, min(end, horizon) - min(start, horizon))
            if not active:
                continue
            weight = active / horizon
            # The shift is a bijection: a hop holds one slot per
            # injection slot.
            for link in ca.path.links:
                per_link[link.key] = per_link.get(link.key, 0.0) + \
                    len(ca.slots) * weight
            per_ni[ca.path.source] = per_ni.get(ca.path.source, 0.0) + \
                ca.n_slots * weight
    series = []
    for boundary in [0] + [b for b in timeline.epoch_boundaries()
                           if 0 < b < horizon]:
        slots_live = sum(ca.n_slots * len(ca.path.links)
                         for spans in intervals.values()
                         for start, end, ca in spans
                         if start <= boundary < end)
        series.append((boundary, round(
            slots_live / (max(1, len(timeline.topology.links)) *
                          table_size), 6)))
    return FabricRollup(
        table_size=table_size, n_channels=len(intervals),
        link_slots=tuple(sorted((f"{src}->{dst}", round(slots, 4))
                                for (src, dst), slots in per_link.items())),
        ni_slots=tuple(sorted((ni, round(slots, 4))
                              for ni, slots in per_ni.items())),
        series=tuple(series))


# -- fixtures --------------------------------------------------------------


@pytest.fixture(scope="module")
def app_pool():
    """Six two-channel applications allocated together, so any subset
    of them is a contention-free epoch."""
    topology = mesh(3, 3, nis_per_router=2)
    use_case, mapping = WorkloadSpec(
        n_channels=12, n_ips=18, n_applications=6).build(topology, 4)
    config = configure(topology, use_case, table_size=16,
                       frequency_hz=500e6, mapping=mapping,
                       require_met=False)
    apps: dict[str, list[ChannelAllocation]] = {}
    for ca in config.allocation.channels.values():
        apps.setdefault(ca.spec.application, []).append(ca)
    return topology, [(app, tuple(chans))
                      for app, chans in sorted(apps.items())]


def toggled_timeline(app_pool, toggles, horizon_slots):
    """Start each named application if it is stopped, stop it if not."""
    topology, apps = app_pool
    recorder = TimelineRecorder(topology, table_size=16,
                                frequency_hz=500e6)
    running: set[int] = set()
    time_s = 0.0
    for gap, index in toggles:
        time_s += gap
        app, channels = apps[index % len(apps)]
        if index in running:
            running.discard(index)
            recorder.record_stop(time_s, app)
        else:
            running.add(index)
            recorder.record_start(time_s, app, channels)
    return recorder.build(horizon_slots=horizon_slots)


@pytest.fixture(scope="module")
def fault_outcome():
    """A churn+fault run in which a link failure relocates two of the
    survivors onto another route."""
    topology = mesh(3, 3, nis_per_router=2)
    events = ChurnWorkload(
        ChurnSpec(n_sessions=68), topology,
        derive_seed(2009, "faults-demo")).events(limit=120)
    schedule = FaultSchedule(
        FaultSpec(n_faults=6, fault_rate_per_s=400.0, mean_repair_s=0.004,
                  router_fraction=0.25), topology,
        derive_seed(2009, "faults-demo", "schedule"))
    return run_churn_with_faults(
        topology, events, schedule, table_size=32, frequency_hz=500e6,
        horizon_slots=1200, seed=2009, monitor=MonitorSpec())


@pytest.fixture(scope="module")
def section7_config():
    return section7_setup()[1]


# -- one lifetime table ----------------------------------------------------


class TestLifetimeTable:

    @settings(max_examples=60, deadline=None)
    @given(toggles=st.lists(
        st.tuples(st.sampled_from([0.0, 0.25, 1.0, 3.0]),
                  st.integers(0, 5)), max_size=40),
        horizon=st.integers(1, 400), until_frac=st.floats(0.01, 1.0),
        wanted=st.sets(st.integers(0, 11)))
    def test_every_view_equals_its_event_walk(self, app_pool, toggles,
                                              horizon, until_frac,
                                              wanted):
        timeline = toggled_timeline(app_pool, toggles, horizon)
        until = max(1, int(horizon * until_frac))
        assert timeline.channel_names == ref_channel_names(timeline)
        assert timeline.channel_allocations() == \
            ref_channel_allocations(timeline)
        assert timeline.channel_intervals() == \
            ref_channel_intervals(timeline)
        assert list(timeline.channel_intervals()) == \
            list(ref_channel_intervals(timeline))
        for cut in (None, until):
            assert timeline.survivors(until=cut) == \
                ref_survivors(timeline, cut)
        boundaries = tuple(sorted(
            {0} | {event.slot for event in timeline.events}))
        assert timeline.epoch_boundaries() == boundaries
        # What a run of ``until`` slots counts as its epochs.
        assert lifetime_boundaries(timeline.channel_intervals(), until) == \
            tuple(slot for slot in boundaries if slot < until)
        names = {f"c{index}" for index in wanted}
        assert timeline.restricted_to(names).events == \
            ref_restricted_events(timeline, names)
        assert rollup_bytes(FabricRollup.from_timeline(timeline)) == \
            rollup_bytes(ref_rollup(timeline, timeline.horizon_slots))

    def test_table_is_built_once(self, app_pool):
        timeline = toggled_timeline(
            app_pool, [(1.0, i % 6) for i in range(20)], 300)
        assert timeline.channel_intervals() is timeline.channel_intervals()
        clipped = timeline.clipped_intervals(100)
        assert list(clipped) == list(timeline.channel_intervals())
        assert all(0 <= start <= end <= 100
                   for spans in clipped.values()
                   for start, end, _ in spans)

    @pytest.mark.parametrize("n_slots",
                             [2.5, float("nan"), 0, -5, 41, 10 ** 6])
    def test_readers_refuse_a_window_outside_the_timeline(self, app_pool,
                                                          n_slots):
        """A fraction, NaN, an empty or negative window, or one past the
        40-slot horizon: the watchdog refuses it, as a replay does,
        instead of judging the channels over it."""
        timeline = toggled_timeline(app_pool, [(1.0, i) for i in range(4)],
                                    40)
        result = _replay(timeline)
        for read in (
                lambda: timeline.check_replay(n_slots),
                lambda: timeline_conformance(timeline, result,
                                             n_slots=n_slots)):
            with pytest.raises(ConfigurationError, match="^n_slots must"):
                read()

    def test_rollup_long_timeline_bytes_and_linear_series(
            self, app_pool, monkeypatch):
        rng = random.Random(11)
        toggles = [(rng.choice([0.5, 1.0, 2.0]), rng.randrange(6))
                   for _ in range(700)]
        timeline = toggled_timeline(app_pool, toggles, 40_000)
        assert timeline.n_epochs >= 500
        expected = rollup_bytes(ref_rollup(timeline,
                                           timeline.horizon_slots))
        reads = []
        monkeypatch.setattr(
            ChannelAllocation, "n_slots",
            property(lambda ca: reads.append(1) or len(ca.slots)))
        rollup = FabricRollup.from_timeline(timeline)
        n_reads = len(reads)
        monkeypatch.undo()
        assert rollup_bytes(rollup) == expected
        assert len(rollup.series) == timeline.n_epochs
        # Two reads per lifetime (its NI weight, its series step) —
        # never one per lifetime per boundary.
        n_lifetimes = sum(map(len, timeline.channel_intervals().values()))
        assert n_reads <= 2 * n_lifetimes


# -- one latency definition ------------------------------------------------


def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


class TestCanonicalUseCaseBytes:
    """Digests of the same calls at the commit before the refactor."""

    def test_use_case_outputs_unchanged(self, section7_config):
        config = section7_config
        gs = run_gs(config, n_slots=1200)
        be = run_be(config, frequency_hz=500e6, n_ticks=400)
        assert digest(usecase_gs_rows(config, n_slots=1200)) == \
            "b9ecbbe801fe5d4f"
        assert digest([gs.n_connections, gs.n_measured, gs.n_latency_ok,
                       gs.n_within_bound, repr(gs.worst_margin_ns)]) == \
            "b3ec6c00b6db3027"
        assert digest([be.n_connections, be.n_measured, be.n_latency_ok,
                       repr(be.mean_latency_ns),
                       repr(be.max_latency_ns)]) == "ee4fd8511972979f"
        assert digest(conformance_from_result(
            config, gs.result).to_json()) == "8e20ebda1ccc71d0"
        # run_gs hands its per-connection worst cases on; the rows
        # are folded from them, not from a second walk.
        assert set(gs.worst_latency_ns) <= set(config.allocation.channels)
        assert len(gs.worst_latency_ns) == gs.n_measured


class TestRelocatedSurvivor:

    def relocated(self, outcome):
        lifetimes = outcome.timeline.channel_intervals()
        return [name for name in outcome.verdict.survivors
                if len(lifetimes[name]) > 1]

    def test_each_lifetime_is_judged_against_its_own_bound(
            self, fault_outcome):
        relocated = self.relocated(fault_outcome)
        assert relocated
        report = fault_outcome.verdict.conformance
        assert report.n_violated == 0
        assert all(entry.mean_latency_ns >= 0
                   and entry.worst_latency_ns >= 0
                   for entry in report.channels)
        timeline = fault_outcome.timeline
        entries = {entry.channel: entry for entry in report.channels}
        for name in relocated:
            bounds = [channel_bounds(ca, timeline.frequency_hz,
                                     timeline.fmt).latency_ns
                      for _, _, ca in timeline.channel_intervals()[name]]
            assert entries[name].latency_bound_ns in bounds

    def test_latencies_restart_with_the_channel(self, fault_outcome):
        timeline = fault_outcome.timeline
        compiled = _replay(timeline)
        scalar = _replay(timeline, oracle=True)
        for name in self.relocated(fault_outcome):
            fast = compiled.stats.service_latencies_ns(name)
            assert fast and min(fast) >= 0
            assert fast == scalar.stats.service_latencies_ns(name)
            assert fast == StatsCollector.service_latencies_ns(
                compiled.stats, name)
            per_lifetime = compiled.stats.incarnation_observations(name)
            assert len(per_lifetime) == \
                len(timeline.channel_intervals()[name])
            assert sum(seen.count for _, _, seen in per_lifetime) == \
                len(fast)
        # The whole-timeline watchdog agrees on either executor.
        assert timeline_conformance(timeline, compiled).to_json() == \
            timeline_conformance(timeline, scalar).to_json()


class TestOverDelivery:

    def run(self, config, traffic):
        return FlitLevelBackend(config).run(
            SimRequest(n_slots=5000, traffic=traffic))

    def test_required_rates_never_read_as_over_delivery(
            self, section7_config):
        config = section7_config
        bursts = burst_traffic(config)
        bounds = config.bounds()
        # Channels are independent on a TDM fabric, so the connections
        # whose requirement nearly fills their slots can be swept
        # through every burst phase on their own.
        nearly_full = [
            name for name, b in bounds.items()
            if b.required_throughput_bytes_per_s >
            0.97 * b.throughput_bytes_per_s]
        assert "app2_c48" in nearly_full
        for phase in range(97):
            traffic = {
                name: PeriodicBurst(
                    bursts[name].burst_messages,
                    bursts[name].message_words,
                    bursts[name].period_cycles, offset_cycles=phase)
                for name in nearly_full}
            report = conformance_from_result(
                config, self.run(config, traffic))
            assert report.n_violated == 0, phase

    def test_sec7_static_phases_at_full_rate(self, section7_config):
        config = section7_config
        rng = random.Random(2009)
        rng.uniform(0.94, 0.98)  # the draw sec7_static spends first
        traffic = {
            name: PeriodicBurst(burst.burst_messages, burst.message_words,
                                burst.period_cycles,
                                offset_cycles=rng.randrange(97))
            for name, burst in sorted(burst_traffic(config).items())}
        report = conformance_from_result(config,
                                         self.run(config, traffic))
        assert len(report.channels) == 200
        assert report.n_violated == 0

    def test_real_over_delivery_is_still_a_violation(self, mesh_config):
        """A record log with one byte more than the reserved slots carry
        reads ``violated``.  The compiled run's records are built for
        the caller and never read back, so the extra record goes into
        the per-flit oracle's log, which the watchdog reads the same
        way."""
        config = mesh_config
        request = SimRequest(n_slots=400, traffic=burst_traffic(config))
        result = FlitLevelBackend(config).run(request)
        assert conformance_from_result(config, result).n_violated == 0
        result = oracle_run(config, request)
        assert conformance_from_result(config, result).n_violated == 0
        ca = config.allocation.channels["c0"]
        capacity = ca.reserved_before(400) * \
            config.fmt.payload_bytes_per_flit
        deliveries = result.stats.channel("c0").deliveries
        extra = capacity - sum(d.payload_bytes for d in deliveries) + 1
        last = deliveries[-1]
        deliveries.append(DeliveryRecord(
            "c0", last.message_id + 1, last.created_cycle,
            last.created_time_ps, last.delivered_cycle,
            last.delivered_time_ps, extra))
        verdicts = {entry.channel: entry.verdict for entry in
                    conformance_from_result(config, result).channels}
        assert verdicts["c0"] == "violated"
        assert verdicts["c1"] != "violated"


# -- aggregate reads stay on the arrays ------------------------------------


RUN_KINDS = (compiled_module._IntervalRun, compiled_module._LoggedRun)


def _counted(method, log):
    """``method`` of a run kind, logging the channel of each run it is
    called on."""
    def counted(run, *args):
        log.append(run.channel)
        return method(run, *args)
    return counted


@contextlib.contextmanager
def no_records():
    """Fails the block if it expands any run into records."""
    expanded: list[str] = []
    with contextlib.ExitStack() as stack:
        for kind in RUN_KINDS:
            stack.enter_context(mock.patch.object(
                kind, "append_records",
                _counted(kind.append_records, expanded)))
        yield
    assert expanded == [], f"records were built for {expanded}"


@pytest.fixture
def expansions(monkeypatch):
    """The channels of the runs expanded into records while the test
    runs, one entry per run."""
    expanded: list[str] = []
    for kind in RUN_KINDS:
        monkeypatch.setattr(kind, "append_records",
                            _counted(kind.append_records, expanded))
    return expanded


def observations(stats, name, read=None):
    """``incarnation_observations`` flattened to comparable values;
    ``repr`` keeps the float comparison bit-exact."""
    read = read or type(stats).incarnation_observations
    return repr([(slot, delivered, seen.count, seen.worst_ns, seen.mean_ns)
                 for slot, delivered, seen in read(stats, name)])


def assert_reads_equal_the_record_walks(compiled, scalar, names):
    """The array answers first, without a record built, then the
    per-flit executor's records and the base-class walks over the
    records the compiled run builds.  ``latency_summaries`` holds each
    channel's totals and the summary of its sorted latencies;
    ``all_latencies_ns`` keeps delivery order, so it holds the order of
    the arrays to the records."""
    assert names
    with no_records():
        latencies = repr(compiled.stats.all_latencies_ns())
        summaries = repr(compiled.stats.latency_summaries())
        answers = {name: (observations(compiled.stats, name),
                          repr(compiled.stats.service_latencies_ns(name)))
                   for name in names}
    assert latencies == repr(scalar.stats.all_latencies_ns())
    assert summaries == repr(scalar.stats.latency_summaries())
    assert summaries == repr(StatsCollector.latency_summaries(
        compiled.stats))
    for name in names:
        seen, service = answers[name]
        assert seen == observations(scalar.stats, name), name
        assert service == repr(scalar.stats.service_latencies_ns(name))
        assert seen == observations(
            compiled.stats, name, StatsCollector.incarnation_observations)
        assert service == repr(StatsCollector.service_latencies_ns(
            compiled.stats, name)), name


class TestAggregateReads:

    def test_static_section7_run(self, section7_config, expansions):
        config = section7_config
        request = SimRequest(n_slots=1200, traffic=burst_traffic(config))
        compiled = FlitLevelBackend(config).run(request)
        scalar = oracle_run(config, request)
        assert compiled.meta["executor"] == "compiled"
        assert scalar.meta["executor"] == "per-flit"
        assert json.dumps(compiled.to_record(), sort_keys=True) == \
            json.dumps(scalar.to_record(), sort_keys=True)
        assert expansions == []
        assert_reads_equal_the_record_walks(
            compiled, scalar, sorted(config.allocation.channels))

    def test_relocated_timeline(self, fault_outcome, expansions):
        timeline = fault_outcome.timeline
        compiled = _replay(timeline)
        scalar = _replay(timeline, oracle=True)
        relocated = TestRelocatedSurvivor().relocated(fault_outcome)
        assert all(len(compiled.stats.incarnation_observations(name)) > 1
                   for name in relocated)
        assert expansions == []
        assert_reads_equal_the_record_walks(compiled, scalar, relocated)

    @pytest.mark.parametrize("ids, kind", [
        ([4, 1, 7, 0, 9, 2], "flit"),
        ([2 ** 62, 1, -2 ** 62, 5, 9, 2], "flit"),
        ([4, 1, 7, 0, 9, 2], "be"),
        ([2 ** 62, 1, -2 ** 62, 5, 9, 2], "be")],
        ids=["shuffled", "spanning-2**63", "shuffled-be",
             "spanning-2**63-be"])
    def test_unordered_message_ids_equal_the_oracle(self, mesh_config,
                                                    expansions, ids, kind):
        """The walk sorts each incarnation's deliveries by message id,
        and pairs each with the injection of its id; so do the arrays of
        both engines, and no record is built to do it — ids whose span
        would overflow the lifted ``(run, id)`` key are ranked first."""
        config = mesh_config
        traffic = {"c0": Replay([MessageEvent(3 * i, 2, mid) for i, mid
                                 in enumerate(ids)]),
                   "c1": PeriodicBurst(2, 2, 60)}
        request = SimRequest(n_slots=300, traffic=traffic)
        if kind == "flit":
            compiled = FlitLevelBackend(config).run(request)
            scalar = oracle_run(config, request)
        else:
            compiled = BestEffortBackend(config).run(request)
            scalar = SimpleNamespace(stats=BeOracle(config).run(
                {name: ((0, 300, config.allocation.channels[name]),)
                 for name in traffic}, traffic, 300))
        for name in ("c0", "c1"):
            seen = compiled.stats.incarnation_observations(name)
            assert observations(compiled.stats, name) == \
                observations(scalar.stats, name)
            assert seen[0][2].count == len(
                scalar.stats.channel(name).deliveries) > 0
            assert compiled.stats.service_latencies_ns(name) == \
                scalar.stats.service_latencies_ns(name)
        assert expansions == []
        assert_reads_equal_the_record_walks(compiled, scalar,
                                            ["c0", "c1"])
        trace = compiled.stats.composability_trace()
        for name in ("c0", "c1"):
            assert trace.trace(name) == \
                scalar.stats.composability_trace().trace(name), name
            assert trace.trace(name) == StatsCollector.composability_trace(
                compiled.stats).trace(name), name


class TestNothingMaterialised:
    """A consumer that quietly expands 200 000 records fails here, not
    in a benchmark."""

    def test_static_pass(self, section7_config, expansions):
        config = section7_config
        gs = run_gs(config, n_slots=1200)
        conformance_from_result(config, gs.result)
        gs.result.to_record()
        gs.result.summary()
        stats = gs.result.stats
        assert expansions == []
        name = stats.channels[0]
        assert stats.channel(name).deliveries
        assert expansions == [name]

    def test_best_effort_pass(self, section7_config, expansions):
        """``run_be``'s per-channel folds, the canonical record and the
        digest of a Section VII best-effort run read the logged
        columns; no channel becomes records until one is asked for."""
        be = run_be(section7_config, frequency_hz=500e6, n_ticks=400)
        be.result.to_record()
        be.result.summary()
        stats = be.result.stats
        assert be.n_measured == 200
        assert expansions == []
        name = stats.channels[0]
        assert stats.channel(name).deliveries
        assert expansions == [name]

    def test_churn_replay_watchdog(self, fault_outcome, expansions):
        timeline = fault_outcome.timeline
        compiled = _replay(timeline)
        report = timeline_conformance(timeline, compiled)
        assert len(report.channels) > 50
        assert expansions == []


class TestObservedOnce:
    """The report and the watchdog read one observation of each
    channel."""

    def test_section7_pass_folds_each_channel_once(
            self, section7_config, expansions, monkeypatch):
        folds = []
        fold = ServiceObservation.__init__

        def counted(observation, *args):
            folds.append(args)
            fold(observation, *args)

        monkeypatch.setattr(ServiceObservation, "__init__", counted)
        config = section7_config
        gs = run_gs(config, n_slots=1200)
        report = conformance_from_result(config, gs.result)
        gs.result.to_record()
        assert len(folds) == gs.n_measured == 200
        assert expansions == []
        # Both readers hold the same fold.
        entries = {entry.channel: entry for entry in report.channels}
        for name, worst in gs.worst_latency_ns.items():
            assert entries[name].worst_latency_ns == worst
            assert gs.result.stats.service_observation(name) is \
                gs.result.stats.incarnation_observations(name)[0][2]
