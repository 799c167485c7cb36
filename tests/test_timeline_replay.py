"""Epoch-based timeline replay and dynamic composability.

The load-bearing claims:

* **Artifact validity** — a :class:`ReconfigurationTimeline` is a
  sequence of contention-free configurations: overlapping reservations,
  unbalanced start/stop pairs, and out-of-horizon events are rejected
  at construction;
* **Equivalence** — a one-epoch timeline run is bit-identical to the
  static simulator, and the compiled executor to the per-flit oracle
  that runs one channel incarnation at a time;
* **Dynamic composability** — on the flit-level TDM backend, survivors
  of a churn timeline produce bit-identical traces whether or not the
  churn happens (across >= 3 reconfiguration epochs), while the
  best-effort baseline demonstrably diverges under the same timeline;
* **Round trip** — the control plane's recorded churn replays through
  the simulators deterministically (byte-identical reports).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from flit_oracle import oracle_run
from repro.core.allocation import Allocation, SlotAllocator
from repro.core.application import Application, UseCase
from repro.core.configuration import configure
from repro.core.connection import MB, ChannelSpec
from repro.core.exceptions import AllocationError, ConfigurationError
from repro.core.placement import ChannelAllocation
from repro.core.reconfiguration import ReconfigurationManager
from repro.core.timeline import (ReconfigurationTimeline, TimelineEvent,
                                 TimelineRecorder, replay_configuration)
from repro.service.churn import ChurnSpec, ChurnWorkload
from repro.service.controller import SessionService
from repro.simulation.backend import (BestEffortBackend,
                                      CycleAccurateBackend,
                                      FlitLevelBackend, SimRequest,
                                      check_lifetime_contention)
from repro.simulation.composability import (replay_traffic,
                                            verify_timeline)
from repro.simulation.traffic import ConstantBitRate, Saturating
from repro.topology.builders import mesh
from repro.topology.mapping import Mapping

NAN, INF = float("nan"), float("inf")

def _mesh_timeline(mesh_config, horizon=1000):
    """appX (c0, c1) runs throughout; appY (c2) churns mid-run."""
    alloc = mesh_config.allocation
    events = [
        TimelineEvent(0, "start", "appX",
                      (alloc.channel("c0"), alloc.channel("c1"))),
        TimelineEvent(300, "start", "appY", (alloc.channel("c2"),)),
        TimelineEvent(600, "stop", "appY"),
    ]
    return ReconfigurationTimeline(
        mesh_config.topology, events, horizon_slots=horizon,
        table_size=mesh_config.table_size,
        frequency_hz=mesh_config.frequency_hz, fmt=mesh_config.fmt)


def _request(timeline, traffic):
    """The whole timeline at ``traffic``."""
    return SimRequest(n_slots=timeline.horizon_slots, traffic=traffic,
                      timeline=timeline)


def _replay(config, timeline, traffic, backend=FlitLevelBackend):
    """The whole timeline through one backend."""
    return backend(config).run(_request(timeline, traffic))


class TestTimelineArtifact:
    def test_event_validation(self, mesh_config):
        ca = mesh_config.allocation.channel("c0")
        with pytest.raises(ConfigurationError):
            TimelineEvent(-1, "start", "app", (ca,))
        with pytest.raises(ConfigurationError):
            TimelineEvent(0, "teleport", "app", (ca,))
        with pytest.raises(ConfigurationError):
            TimelineEvent(0, "start", "app")  # start without channels
        with pytest.raises(ConfigurationError):
            TimelineEvent(0, "stop", "app", (ca,))  # stop with channels

    @pytest.mark.parametrize("build", [
        lambda topo: ReconfigurationTimeline(
            topo, [], horizon_slots=10, table_size=8, frequency_hz=NAN),
        lambda topo: ReconfigurationTimeline(
            topo, [], horizon_slots=10, table_size=8, frequency_hz=INF),
        lambda topo: TimelineRecorder(topo, table_size=8, frequency_hz=NAN),
        lambda topo: TimelineRecorder(topo, table_size=8, frequency_hz=INF),
        lambda topo: TimelineRecorder(
            topo, table_size=8, frequency_hz=500e6).record_stop(NAN, "app"),
        lambda topo: TimelineRecorder(
            topo, table_size=8, frequency_hz=500e6).record_start(
                INF, "app", ()),
    ], ids=["timeline-nan-hz", "timeline-inf-hz", "recorder-nan-hz",
            "recorder-inf-hz", "recorder-nan-time", "recorder-inf-time"])
    def test_non_finite_frequency_or_time_is_refused(self, mesh_config,
                                                     build):
        """Refused where it is handed in, not later as a replay
        mismatch or a builtin ``float`` -> ``int`` error."""
        with pytest.raises(ConfigurationError, match="finite"):
            build(mesh_config.topology)

    def test_queries(self, mesh_config):
        timeline = _mesh_timeline(mesh_config)
        assert timeline.channel_names == ("c0", "c1", "c2")
        assert timeline.n_epochs == 3
        assert timeline.epoch_boundaries() == (0, 300, 600)
        assert timeline.survivors() == ("c0", "c1")
        intervals = timeline.channel_intervals()
        assert intervals["c0"] == ((0, 1000,
                                    mesh_config.allocation.channel("c0")),)
        assert intervals["c2"][0][:2] == (300, 600)

    def test_restriction_drops_churn(self, mesh_config):
        solo = _mesh_timeline(mesh_config).restricted_to(("c0", "c1"))
        assert solo.channel_names == ("c0", "c1")
        assert solo.n_epochs == 1
        assert solo.survivors() == ("c0", "c1")

    def test_contention_between_epoch_channels_rejected(self, mesh_config):
        """Two concurrently active channels must not share a link slot."""
        alloc = mesh_config.allocation
        c0 = alloc.channel("c0")
        clone = type(c0)(spec=ChannelSpec(
            "ghost", c0.spec.src_ip, c0.spec.dst_ip,
            c0.spec.throughput_bytes_per_s, application="ghost"),
            path=c0.path, slots=c0.slots, table_size=c0.table_size)
        with pytest.raises(AllocationError):
            ReconfigurationTimeline(
                mesh_config.topology,
                [TimelineEvent(0, "start", "appX", (c0,)),
                 TimelineEvent(10, "start", "ghost", (clone,))],
                horizon_slots=100, table_size=mesh_config.table_size,
                frequency_hz=mesh_config.frequency_hz,
                fmt=mesh_config.fmt)
        # Sequential (non-overlapping) reuse of the same slots is legal.
        timeline = ReconfigurationTimeline(
            mesh_config.topology,
            [TimelineEvent(0, "start", "appX", (c0,)),
             TimelineEvent(10, "stop", "appX"),
             TimelineEvent(20, "start", "ghost", (clone,))],
            horizon_slots=100, table_size=mesh_config.table_size,
            frequency_hz=mesh_config.frequency_hz, fmt=mesh_config.fmt)
        assert timeline.n_epochs == 3

    def test_unbalanced_and_out_of_horizon_rejected(self, mesh_config):
        ca = mesh_config.allocation.channel("c0")
        make = lambda events: ReconfigurationTimeline(  # noqa: E731
            mesh_config.topology, events, horizon_slots=100,
            table_size=mesh_config.table_size,
            frequency_hz=mesh_config.frequency_hz, fmt=mesh_config.fmt)
        with pytest.raises(ConfigurationError):
            make([TimelineEvent(0, "stop", "appX")])
        with pytest.raises(ConfigurationError):
            make([TimelineEvent(0, "start", "appX", (ca,)),
                  TimelineEvent(5, "start", "appX", (ca,))])
        with pytest.raises(ConfigurationError):
            make([TimelineEvent(100, "start", "appX", (ca,))])

    def test_to_record_is_json_stable(self, mesh_config):
        timeline = _mesh_timeline(mesh_config)
        text = json.dumps(timeline.to_record(), sort_keys=True)
        again = json.dumps(_mesh_timeline(mesh_config).to_record(),
                           sort_keys=True)
        assert text == again

    @pytest.mark.parametrize("slots", [(8,), (1, 8), (-1,), (-1, 3)])
    def test_slot_outside_the_table_is_refused_at_the_start(
            self, mesh_config, slots):
        """Once reduced modulo the table size and accepted; then refused
        at the start.  Now the record cannot be built."""
        c0 = mesh_config.allocation.channel("c0")
        with pytest.raises(AllocationError, match="outside table of size 8") \
                as refused:
            type(c0)(spec=c0.spec, path=c0.path, slots=slots, table_size=8)
        assert refused.value.reason == "slot outside table"

    def test_a_record_of_another_table_size_is_refused_at_the_start(
            self, mesh_config):
        c0 = mesh_config.allocation.channel("c0")
        assert c0.table_size == 8
        with pytest.raises(ConfigurationError) as refused:
            ReconfigurationTimeline(
                mesh_config.topology,
                [TimelineEvent(0, "start", "appX", (c0,))],
                horizon_slots=100, table_size=16,
                frequency_hz=mesh_config.frequency_hz, fmt=mesh_config.fmt)
        assert str(refused.value) == (
            "channel 'c0' was placed in a table of size 8, the timeline's "
            "has 16")


_FABRIC = mesh(2, 2, nis_per_router=1, pipeline_stages=1)
_ROUTES = SlotAllocator(_FABRIC, table_size=4, frequency_hz=500e6)


def _per_slot_walk(events, size):
    """The per-(link, slot) walk timeline validation replaced, kept as
    its oracle: ``None``, or ``(start slot, link, lowest shared slot,
    holder, channel)`` of the first start that shares a link slot."""
    occupied: dict[tuple[tuple[str, str], int], str] = {}
    running: dict[str, tuple] = {}
    for event in sorted(events, key=lambda e: (e.slot, e.action != "stop",
                                               e.application)):
        if event.action == "stop":
            for ca in running.pop(event.application):
                for link, shift in zip(ca.path.links, ca.path.link_shifts):
                    for slot in ca.slots:
                        del occupied[(link.key, (slot + shift) % size)]
            continue
        for ca in event.channels:
            for link, shift in zip(ca.path.links, ca.path.link_shifts):
                slots = sorted((slot + shift) % size for slot in ca.slots)
                shared = [s for s in slots if (link.key, s) in occupied]
                if shared:
                    return (event.slot, link.key, shared[0],
                            occupied[(link.key, shared[0])], ca.spec.name)
                for slot in slots:
                    occupied[(link.key, slot)] = ca.spec.name
        running[event.application] = event.channels
    return None


class TestEpochMasksHoldToThePerSlotWalk:
    SIZE = 4

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_a_start_is_refused_iff_the_walk_finds_a_shared_slot(
            self, data):
        nis = sorted(_FABRIC.nis)
        events = []
        for app in range(data.draw(st.integers(1, 5))):
            channels = []
            for index in range(data.draw(st.integers(1, 2))):
                src, dst = data.draw(st.lists(st.sampled_from(nis),
                                              min_size=2, max_size=2,
                                              unique=True))
                path = data.draw(st.sampled_from(
                    _ROUTES.shortest_candidates(src, dst)))
                slots = data.draw(st.sets(st.integers(0, self.SIZE - 1),
                                          min_size=1, max_size=2))
                channels.append(ChannelAllocation(
                    ChannelSpec(f"a{app}c{index}", src, dst, 1 * MB),
                    path, tuple(sorted(slots)), self.SIZE))
            start = data.draw(st.integers(0, 40))
            events.append(TimelineEvent(start, "start", f"a{app}",
                                        tuple(channels)))
            if data.draw(st.booleans()):
                events.append(TimelineEvent(
                    data.draw(st.integers(start + 1, 60)), "stop",
                    f"a{app}"))
        expected = _per_slot_walk(events, self.SIZE)
        try:
            ReconfigurationTimeline(_FABRIC, events, horizon_slots=100,
                                    table_size=self.SIZE,
                                    frequency_hz=500e6)
        except AllocationError as exc:
            assert expected is not None
            at, link, slot, holder, name = expected
            assert str(exc) == (f"epoch starting at slot {at}: contention "
                                f"on link {link} slot {slot}: {holder!r} "
                                f"vs {name!r}")
            assert (exc.channel, exc.reason) == (name, "slot contention")
        else:
            assert expected is None


class TestRecorder:
    def test_fit_preserves_order_and_pairing(self, mesh_config):
        recorder = TimelineRecorder(
            mesh_config.topology, table_size=mesh_config.table_size,
            frequency_hz=mesh_config.frequency_hz, fmt=mesh_config.fmt)
        alloc = mesh_config.allocation
        recorder.record_start(0.0, "appX", (alloc.channel("c0"),
                                            alloc.channel("c1")))
        recorder.record_start(0.010, "appY", (alloc.channel("c2"),))
        recorder.record_stop(0.020, "appY")
        timeline = recorder.build(horizon_slots=1000)
        assert timeline.n_epochs == 3
        assert timeline.survivors() == ("c0", "c1")
        # fit lands the last transition at 3/4 of the horizon.
        assert timeline.epoch_boundaries()[-1] == 750

    def test_zero_length_session_dropped_not_crashed(self, mesh_config):
        """Fit-compression may land a session's open and close on the
        same slot; such a zero-length session influences no epoch and
        must be dropped, not trip the stop-before-start ordering."""
        alloc = mesh_config.allocation
        recorder = TimelineRecorder(
            mesh_config.topology, table_size=mesh_config.table_size,
            frequency_hz=mesh_config.frequency_hz, fmt=mesh_config.fmt)
        recorder.record_start(0.0, "appX", (alloc.channel("c0"),))
        recorder.record_start(1.0, "blip", (alloc.channel("c2"),))
        recorder.record_stop(1.0001, "blip")  # << one slot at this fit
        recorder.record_stop(2.0, "appX")
        timeline = recorder.build(horizon_slots=1000)
        assert "c2" not in timeline.channel_names
        assert timeline.channel_names == ("c0",)

    def test_out_of_order_times_rejected(self, mesh_config):
        recorder = TimelineRecorder(
            mesh_config.topology, table_size=mesh_config.table_size,
            frequency_hz=mesh_config.frequency_hz)
        recorder.record_stop(1.0, "a")  # pairing checked at build time
        with pytest.raises(ConfigurationError):
            recorder.record_stop(0.5, "b")

    def test_manager_transitions_record_a_timeline(self, mesh_config):
        recorder = TimelineRecorder(
            mesh_config.topology, table_size=mesh_config.table_size,
            frequency_hz=mesh_config.frequency_hz, fmt=mesh_config.fmt)
        allocator = SlotAllocator(
            mesh_config.topology, table_size=mesh_config.table_size,
            frequency_hz=mesh_config.frequency_hz, fmt=mesh_config.fmt)
        manager = ReconfigurationManager(allocator, mesh_config.mapping)
        use_case = mesh_config.use_case
        apps = {app.name: app for app in use_case.applications}

        def start(at_s, name):
            manager.start_application(apps[name])
            recorder.record_start(at_s, name, tuple(
                manager.allocation.channels[spec.name]
                for spec in sorted(apps[name].channels,
                                   key=lambda spec: spec.name)))

        start(0.0, "appX")
        start(0.010, "appY")
        manager.stop_application("appY")
        recorder.record_stop(0.020, "appY")
        assert recorder.n_transitions == 3
        timeline = recorder.build(horizon_slots=800)
        assert timeline.survivors() == ("c0", "c1")
        assert timeline.n_epochs == 3

    def test_replay_configuration_carrier(self, mesh_config):
        config = replay_configuration(_mesh_timeline(mesh_config))
        assert config.topology is mesh_config.topology
        assert config.table_size == mesh_config.table_size
        assert not config.allocation.channels


class TestEpochExecution:
    def test_single_epoch_equals_static_run(self, mesh_config):
        """The static simulator is the one-epoch special case."""
        alloc = mesh_config.allocation
        timeline = ReconfigurationTimeline(
            mesh_config.topology,
            [TimelineEvent(0, "start", "appX",
                           (alloc.channel("c0"), alloc.channel("c1"))),
             TimelineEvent(0, "start", "appY", (alloc.channel("c2"),))],
            horizon_slots=800, table_size=mesh_config.table_size,
            frequency_hz=mesh_config.frequency_hz, fmt=mesh_config.fmt)
        traffic = replay_traffic(timeline)
        static = FlitLevelBackend(mesh_config).run(
            SimRequest(n_slots=800, traffic=traffic))
        dynamic = _replay(mesh_config, timeline, traffic)
        assert dynamic.meta["n_epochs"] == 1
        static, dynamic = static.composability_trace(), \
            dynamic.composability_trace()
        for name in timeline.channel_names:
            assert static.trace(name) == dynamic.trace(name)

    def test_default_executor_equals_per_flit_oracle(self, mesh_config):
        """The executor the backend picks (compiled) against the
        per-flit oracle, which runs one incarnation at a time."""
        timeline = _mesh_timeline(mesh_config)
        traffic = replay_traffic(timeline)
        results = {
            True: _replay(mesh_config, timeline, traffic),
            False: oracle_run(mesh_config, _request(timeline, traffic))}
        assert results[True].meta["executor"] == "compiled"
        assert results[False].meta["executor"] == "per-flit"
        assert results[True].meta["n_epochs"] == \
            results[False].meta["n_epochs"] == 3
        traces = {compiled: result.composability_trace()
                  for compiled, result in results.items()}
        for name in timeline.channel_names:
            assert traces[True].trace(name) == traces[False].trace(name)
        assert results[True].meta["flits_by_channel"] == \
            results[False].meta["flits_by_channel"]

    def test_churning_channel_only_lives_inside_its_epochs(
            self, mesh_config):
        timeline = _mesh_timeline(mesh_config)
        result = _replay(mesh_config, timeline, replay_traffic(timeline))
        slots = [slot for _, slot, _ in
                 result.composability_trace().trace("c2")]
        assert slots, "churn channel should have delivered messages"
        assert min(slots) >= 300
        assert max(slots) < 600

    def test_contention_check_holds_across_epochs(self, mesh_config):
        timeline = _mesh_timeline(mesh_config)
        check_lifetime_contention(timeline.channel_intervals(),
                                  timeline.horizon_slots,
                                  mesh_config.table_size)

    def test_be_arrival_in_final_slot_dropped_at_stop(self, mesh_config):
        """A message maturing exactly at the stop boundary belongs to
        the stopped session and must not be injected (the flit-level
        simulator drops the same arrival with the schedule row)."""
        alloc = mesh_config.allocation
        timeline = ReconfigurationTimeline(
            mesh_config.topology,
            [TimelineEvent(0, "start", "appY", (alloc.channel("c2"),)),
             TimelineEvent(2, "stop", "appY")],
            horizon_slots=50, table_size=mesh_config.table_size,
            frequency_hz=mesh_config.frequency_hz, fmt=mesh_config.fmt)
        # flit_size=3: events at cycles 0 and 5; cycle 5 matures at
        # tick ceil(5/3)=2 == stop and must be dropped.
        pattern = ConstantBitRate(1, 5.0)
        result = _replay(mesh_config, timeline, {"c2": pattern},
                         BestEffortBackend)
        injected = {r.message_id
                    for r in result.stats.channel("c2").injections}
        assert injected == {0}

    def test_be_single_epoch_equals_static_run(self, mesh_config):
        """The best-effort twin of ``test_single_epoch_equals_static_run``:
        every channel started at slot 0 and never stopped gives the
        static run's record log, record for record."""
        alloc = mesh_config.allocation
        timeline = ReconfigurationTimeline(
            mesh_config.topology,
            [TimelineEvent(0, "start", "appX",
                           (alloc.channel("c0"), alloc.channel("c1"))),
             TimelineEvent(0, "start", "appY", (alloc.channel("c2"),))],
            horizon_slots=400, table_size=mesh_config.table_size,
            frequency_hz=mesh_config.frequency_hz, fmt=mesh_config.fmt)
        traffic = replay_traffic(timeline)
        # 10-word messages split into two packets each; c0's last
        # arrival (cycle 1198) matures exactly at the horizon tick.
        traffic["c0"] = ConstantBitRate(10, 31.0, offset_cycles=20)
        static = BestEffortBackend(mesh_config).run(
            SimRequest(n_slots=400, traffic=traffic))
        dynamic = _replay(mesh_config, timeline, traffic, BestEffortBackend)
        assert static.stats.channels == dynamic.stats.channels == \
            timeline.channel_names
        for name in timeline.channel_names:
            assert static.stats.channel(name).injections == \
                dynamic.stats.channel(name).injections
            assert static.stats.channel(name).deliveries == \
                dynamic.stats.channel(name).deliveries

    def test_timeline_request_validation(self, mesh_config):
        timeline = _mesh_timeline(mesh_config)
        with pytest.raises(ConfigurationError):
            SimRequest(n_slots=timeline.horizon_slots + 1,
                       timeline=timeline)
        backend = FlitLevelBackend(mesh_config)
        bad_traffic = {"ghost": next(iter(
            replay_traffic(timeline).values()))}
        with pytest.raises(ConfigurationError):
            backend.run(SimRequest(n_slots=100, timeline=timeline,
                                   traffic=bad_traffic))
        with pytest.raises(ConfigurationError):
            CycleAccurateBackend(mesh_config).run(
                SimRequest(n_slots=100, timeline=timeline))

    def test_backend_meta_reports_epochs(self, mesh_config):
        timeline = _mesh_timeline(mesh_config)
        result = FlitLevelBackend(mesh_config).run(SimRequest(
            n_slots=timeline.horizon_slots,
            traffic=replay_traffic(timeline), timeline=timeline))
        assert result.meta["n_epochs"] == 3


def _replay_faults(config):
    """The six malformed replay requests, one fault each.

    Each entry maps to ``(config, timeline, n_slots, traffic)``; the
    well-formed base is ``_mesh_timeline`` replayed on ``config``.
    """
    good = _mesh_timeline(config)
    traffic = replay_traffic(good)
    from dataclasses import replace
    from repro.core.words import WordFormat
    foreign = mesh(2, 2, nis_per_router=1, pipeline_stages=1)

    def rebuilt(**changed):
        # Records placed in the rebuilt table: a timeline refuses one
        # of another size.
        size = changed.get("table_size", good.table_size)
        events = [replace(event, channels=tuple(
            replace(ca, table_size=size) for ca in event.channels))
            for event in good.events]
        return ReconfigurationTimeline(**{
            "topology": good.topology, "events": events,
            "horizon_slots": good.horizon_slots,
            "table_size": good.table_size,
            "frequency_hz": good.frequency_hz, "fmt": good.fmt,
            **changed})

    return {
        "topology": (replace(config, allocation=Allocation(
            foreign, config.table_size, config.frequency_hz, config.fmt)),
            good, 100, traffic),
        "table_size": (config, rebuilt(table_size=16), 100, traffic),
        "frequency": (config, rebuilt(frequency_hz=250e6), 100, traffic),
        "fmt": (config, rebuilt(fmt=WordFormat(flit_size=4)), 100,
                traffic),
        "n_slots": (config, good, good.horizon_slots + 1, traffic),
        "traffic": (config, good, 100, {**traffic,
                                         "ghost": traffic["c0"]}),
    }


_TOPOLOGY = "timeline was recorded on a different topology object"
_FMT = "timeline word format differs from the configuration's"
_FREQUENCY = ("timeline frequency differs from the configuration's; "
              "TDM schedules cannot be retimed")
_TRAFFIC = "traffic names channels outside the timeline: ['ghost']"
_REQUEST_N = "n_slots 1001 exceeds the timeline horizon of 1000 slots"

#: route -> fault -> expected ConfigurationError text (None = accepted).
#: The accept/reject set differs per route on purpose: the best-effort
#: baseline replays at any frequency.
_GUARD_TABLE = {
    "flit-backend": {
        "topology": _TOPOLOGY,
        "table_size": "timeline table size 16 != configuration table "
                      "size 8",
        "frequency": _FREQUENCY, "fmt": _FMT, "n_slots": _REQUEST_N,
        "traffic": _TRAFFIC},
    "be-backend": {
        "topology": _TOPOLOGY,
        "table_size": "timeline table size 16 != configuration table "
                      "size 8",
        "frequency": None, "fmt": _FMT, "n_slots": _REQUEST_N,
        "traffic": _TRAFFIC},
}
_BACKENDS = {"flit-backend": FlitLevelBackend,
             "be-backend": BestEffortBackend}


class TestReplayGuardParity:
    """One fault per request through both replaying backends: which
    reject it, and with exactly which message."""

    @pytest.mark.parametrize("route", sorted(_GUARD_TABLE))
    @pytest.mark.parametrize("fault", sorted(_GUARD_TABLE["flit-backend"]))
    def test_malformed_replay_request(self, mesh_config, route, fault):
        config, timeline, n_slots, traffic = \
            _replay_faults(mesh_config)[fault]

        def run():
            _BACKENDS[route](config).run(SimRequest(
                n_slots=n_slots, traffic=traffic, timeline=timeline))

        expected = _GUARD_TABLE[route][fault]
        if expected is None:
            run()
            return
        with pytest.raises(ConfigurationError) as excinfo:
            run()
        assert str(excinfo.value) == expected

    def test_well_formed_request_accepted_everywhere(self, mesh_config):
        timeline = _mesh_timeline(mesh_config)
        traffic = replay_traffic(timeline)
        request = SimRequest(n_slots=100, traffic=traffic,
                             timeline=timeline)
        assert FlitLevelBackend(mesh_config).run(request).stats.channels
        assert BestEffortBackend(mesh_config).run(request).stats.channels


class TestDynamicComposability:
    def test_flit_survivors_identical_across_epochs(self, mesh_config):
        timeline = _mesh_timeline(mesh_config)
        report = verify_timeline(timeline, replay_traffic(timeline))
        assert report.backend == "flit"
        assert report.n_epochs == 3
        assert report.survivors == ("c0", "c1")
        assert report.is_composable
        assert report.diverged == ()

    def test_be_baseline_diverges_under_churn(self):
        """Converging wormhole channels couple on shared buffers/ports."""
        topo = mesh(2, 2, nis_per_router=1, pipeline_stages=1)
        channels = (
            ChannelSpec("sA", "ipA", "ipD", 120 * MB, application="appA"),
            ChannelSpec("sB", "ipB", "ipD", 120 * MB, application="appB"),
        )
        use_case = UseCase("conv", (Application("appA", channels[:1]),
                                    Application("appB", channels[1:])))
        mapping = Mapping({"ipA": "ni0_0_0", "ipB": "ni1_0_0",
                           "ipD": "ni1_1_0"})
        config = configure(topo, use_case, table_size=8,
                           frequency_hz=500e6, mapping=mapping)
        alloc = config.allocation
        timeline = ReconfigurationTimeline(
            topo,
            [TimelineEvent(0, "start", "appA", (alloc.channel("sA"),)),
             TimelineEvent(200, "start", "appB", (alloc.channel("sB"),)),
             TimelineEvent(800, "stop", "appB")],
            horizon_slots=1200, table_size=8, frequency_hz=500e6,
            fmt=config.fmt)
        # Saturate the shared output port so arbitration must interleave.
        traffic = {name: Saturating(config.fmt.payload_words_per_flit,
                                    config.fmt.flit_size)
                   for name in ("sA", "sB")}
        flit = verify_timeline(timeline, traffic)
        assert flit.is_composable
        be = verify_timeline(timeline, traffic,
                             backend_factory=BestEffortBackend)
        assert be.survivors == ("sA",)
        assert be.diverged == ("sA",)
        assert not be.is_composable

    def test_truncated_window_survivors_and_epochs(self, mesh_config):
        """n_slots < horizon: survivors and epoch count reflect the
        simulated window, not the full timeline."""
        timeline = _mesh_timeline(mesh_config)  # c2 stops at 600
        report = verify_timeline(timeline, replay_traffic(timeline),
                                 n_slots=500)
        # c2 is still running when the truncated run ends.
        assert report.survivors == ("c0", "c1", "c2")
        assert report.n_epochs == 2  # boundary 600 was never simulated
        assert report.is_composable

    def test_verdict_record_is_deterministic(self, mesh_config):
        timeline = _mesh_timeline(mesh_config)
        traffic = replay_traffic(timeline)
        first = verify_timeline(timeline, traffic).to_record()
        second = verify_timeline(timeline, traffic).to_record()
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)


class TestServiceRoundTrip:
    def _service_timeline(self, n_events=120, horizon=1200):
        topology = mesh(3, 3, nis_per_router=2)
        workload = ChurnWorkload(ChurnSpec(n_sessions=n_events // 2 + 8),
                                 topology, seed=7)
        service = SessionService(
            topology, allocator=SlotAllocator(topology, table_size=32,
                                              frequency_hz=500e6),
            record_events=False, record_timeline=True)
        service.run(workload.events(limit=n_events))
        return service.timeline(horizon_slots=horizon)

    def test_recorded_churn_is_composable_on_flit(self):
        timeline = self._service_timeline()
        assert timeline.n_epochs >= 3
        report = verify_timeline(timeline, replay_traffic(timeline))
        assert report.survivors
        assert report.is_composable

    def test_timeline_requires_recording(self):
        topology = mesh(2, 2, nis_per_router=1)
        service = SessionService(topology, allocator=SlotAllocator(
            topology, table_size=32, frequency_hz=500e6))
        with pytest.raises(ConfigurationError):
            service.timeline(horizon_slots=100)

    def test_round_trip_deterministic(self):
        a = self._service_timeline().to_record()
        b = self._service_timeline().to_record()
        assert json.dumps(a, sort_keys=True) == \
            json.dumps(b, sort_keys=True)


class TestReplayDemo:
    def test_demo_round_trip(self):
        from repro.campaign.kinds import run_kind
        from repro.campaign.presets import replay_demo
        runs = replay_demo(n_events=80, n_slots=800, seed=11).expand()
        records = {run.scenario.backend: run_kind(run) for run in runs}
        assert records["flit"] == run_kind(runs[0])
        flit = records["flit"]["result"]
        assert flit["composable"]
        assert flit["n_survivors"] >= 1
        assert flit["n_epochs"] >= 3
        # The canonical JSON parses back to the record.
        assert json.loads(json.dumps(records, sort_keys=True)) == records
