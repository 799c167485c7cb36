"""Fault injection, degraded-mode re-allocation, and survivability."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.kinds import run_kind
from repro.campaign.spec import (CampaignSpec, RunSpec, ScenarioSpec,
                                 TopologySpec, WorkloadSpec, derive_seed)
from repro.core.allocation import SlotAllocator, excluded_link_keys
from repro.core.configuration import configure
from repro.core.connection import MB, ChannelSpec
from repro.core.exceptions import AllocationError, ConfigurationError
from repro.faults.model import FaultEvent, FaultSchedule, FaultSpec
from repro.service.churn import ChurnSpec, ChurnWorkload
from repro.service.controller import SessionService, merge_events
from repro.service.qos import QosClass
from repro.topology.builders import concentrated_mesh, mesh


def build_allocation(seed=3, n_channels=20, topology=None):
    """A mid-utilisation allocation on a mesh with path diversity."""
    topology = topology or mesh(3, 3, nis_per_router=2)
    use_case, mapping = WorkloadSpec(
        n_channels=n_channels, n_ips=18).build(topology, seed)
    config = configure(topology, use_case, table_size=16,
                       frequency_hz=500e6, mapping=mapping,
                       require_met=False)
    return topology, config.allocation


def allocation_fingerprint(allocation):
    """Canonical byte string of an allocation's full reservation state."""
    return json.dumps({
        "channels": {
            name: {"links": [list(k) for k in ca.path.link_keys()],
                   "slots": list(ca.slots)}
            for name, ca in sorted(allocation.channels.items())},
        "masks": {f"{k[0]}->{k[1]}": mask
                  for k, mask in sorted(allocation.link_masks.items())},
    }, sort_keys=True).encode()


class TestFaultSchedule:
    def test_deterministic_per_seed(self):
        topo = mesh(3, 3, nis_per_router=2)
        spec = FaultSpec(n_faults=6)
        a = FaultSchedule(spec, topo, 42).events()
        b = FaultSchedule(spec, topo, 42).events()
        c = FaultSchedule(spec, topo, 43).events()
        assert a == b
        assert a != c

    def test_every_repair_follows_its_failure(self):
        topo = mesh(3, 3, nis_per_router=2)
        schedule = FaultSchedule(FaultSpec(n_faults=8), topo, 7)
        down = set()
        for event in schedule.events():
            if event.action == "fail":
                assert event.target not in down
                down.add(event.target)
            else:
                assert event.target in down
                down.remove(event.target)
        assert not down  # default spec repairs everything

    def test_no_repair_mode(self):
        topo = mesh(2, 2, nis_per_router=1)
        schedule = FaultSchedule(
            FaultSpec(n_faults=3, repair=False), topo, 1)
        assert all(e.action == "fail" for e in schedule.events())
        assert len({e.target for e in schedule.events()}) == \
            len(schedule.events())

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(n_faults=0)
        with pytest.raises(ConfigurationError):
            FaultSpec(router_fraction=1.5)
        with pytest.raises(ConfigurationError):
            FaultEvent(-1.0, "fail", "link", ("a", "b"))
        with pytest.raises(ConfigurationError):
            FaultEvent(0.0, "explode", "link", ("a", "b"))

    @pytest.mark.parametrize("n_faults", [2.5, float("nan"), "2"])
    def test_fractional_fault_count_is_refused(self, n_faults):
        """Refused where the spec is built, not in ``events()``."""
        with pytest.raises(ConfigurationError, match="n_faults"):
            FaultSpec(n_faults=n_faults)

    def test_whole_float_fault_count_is_an_int(self):
        topology = mesh(2, 2)
        spec = FaultSpec(n_faults=2.0)
        assert spec.n_faults == 2 and type(spec.n_faults) is int
        assert spec.label == FaultSpec(n_faults=2).label
        assert FaultSchedule(spec, topology, 7).events() == \
            FaultSchedule(FaultSpec(n_faults=2), topology, 7).events()


class TestExcludedLinkKeys:
    def test_router_failure_disables_incident_links(self):
        topo = mesh(2, 2, nis_per_router=1)
        excluded = excluded_link_keys(topo, failed_routers=["r0_0"])
        assert all("r0_0" in key for key in excluded)
        # Two mesh neighbours (bidirectional) plus one NI each way.
        assert len(excluded) == 6

    def test_unknown_targets_raise(self):
        topo = mesh(2, 2, nis_per_router=1)
        with pytest.raises(ConfigurationError):
            excluded_link_keys(topo, [("nope", "r0_0")])
        with pytest.raises(ConfigurationError):
            excluded_link_keys(topo, failed_routers=["r9_9"])


class TestRebuildExcluding:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_zero_failures_is_byte_identical(self, seed):
        """Property: an empty failure set reproduces any allocation."""
        _, allocation = build_allocation(seed=seed, n_channels=10)
        report = allocation.rebuild_excluding()
        assert report.n_affected == 0
        assert report.untouched_intact
        assert report.guarantee_retention == 1.0
        assert (allocation_fingerprint(report.allocation)
                == allocation_fingerprint(allocation))
        # Untouched channels are carried over as the *same* objects.
        assert all(report.allocation.channels[name] is ca
                   for name, ca in allocation.channels.items())

    def _loaded_transit_link(self, allocation):
        """The router-router link carrying the most channels."""
        from collections import Counter
        used = Counter()
        for ca in allocation.channels.values():
            for key in ca.path.link_keys():
                if key[0].startswith("r") and key[1].startswith("r"):
                    used[key] += 1
        return used.most_common(1)[0][0]

    def test_transit_link_failure_reroutes(self):
        _, allocation = build_allocation()
        link = self._loaded_transit_link(allocation)
        report = allocation.rebuild_excluding(failed_links=[link])
        assert report.n_affected > 0
        record = report.to_record()
        assert record["n_affected"] == (
            record["n_rerouted_same_bounds"]
            + record["n_rerouted_degraded"] + record["n_dropped"])
        # Nothing in the rebuilt allocation touches the dead link.
        for ca in report.allocation.channels.values():
            assert link not in ca.path.link_keys()
        report.allocation.validate()
        assert report.untouched_intact
        # The original allocation was never mutated.
        allocation.validate()
        assert len(allocation.channels) == record["n_channels"]

    def test_rerouted_channels_still_meet_requirements(self):
        from repro.core.analysis import analyse
        _, allocation = build_allocation()
        link = self._loaded_transit_link(allocation)
        report = allocation.rebuild_excluding(failed_links=[link])
        bounds = analyse(report.allocation)
        for name, verdict in report.verdicts.items():
            if verdict.verdict.startswith("rerouted"):
                assert bounds[name].meets_all

    def test_router_failure_drops_stranded_channels(self):
        topology, allocation = build_allocation()
        # Channels whose endpoint NI hangs off the dead router cannot
        # survive; transit-only users may reroute.
        router = "r1_1"
        stranded = {
            name for name, ca in allocation.channels.items()
            if topology.attached_router(ca.path.source) == router
            or topology.attached_router(ca.path.dest) == router}
        report = allocation.rebuild_excluding(failed_routers=[router])
        for name in stranded:
            assert report.verdicts[name].verdict == "dropped"
        for ca in report.allocation.channels.values():
            assert router not in ca.path.routers

    @pytest.mark.parametrize("spec, hog_slots, detail", [
        (ChannelSpec("v", "a", "b", 1 * MB, max_latency_ns=30.0), (),
         "latency below path traversal time"),
        (ChannelSpec("v", "a", "b", 400 * MB), range(12),
         "4 free slots < 5 needed"),
        (ChannelSpec("v", "a", "b", 1 * MB, max_latency_ns=60.0),
         range(10), "free slots cannot satisfy gap <= 5"),
    ])
    def test_unreroutable_reason_text(self, spec, hog_slots, detail):
        """The three per-candidate failure kinds on the one surviving
        detour, pinned literally."""
        from repro.core.allocation import Allocation
        from repro.core.placement import ChannelAllocation
        from repro.core.words import WordFormat
        from repro.topology.routing import k_shortest_paths
        topo = mesh(2, 2, nis_per_router=1)
        direct, = k_shortest_paths(topo, "ni0_0_0", "ni1_0_0", 1)
        hog_path, = k_shortest_paths(topo, "ni0_1_0", "ni1_1_0", 1)
        allocation = Allocation(topo, 16, 500e6, WordFormat())
        allocation.commit(ChannelAllocation(spec, direct, (0,), 16))
        if hog_slots:
            allocation.commit(ChannelAllocation(
                ChannelSpec("hog", "h0", "h1", 1 * MB), hog_path,
                tuple(hog_slots), 16))
        dead = [("r0_0", "r1_0")]
        reason = ("Path(ni0_0_0 -> r0_0 -> r0_1 -> r1_1 -> r1_0 -> "
                  f"ni1_0_0): {detail}")
        verdict = allocation.rebuild_excluding(
            failed_links=dead).verdicts["v"]
        assert (verdict.verdict, verdict.reason) == ("dropped", reason)

    def test_bad_arguments(self):
        _, allocation = build_allocation(n_channels=4)
        with pytest.raises(ConfigurationError):
            allocation.rebuild_excluding(failed_links=[("a", "b")])


class TestServiceFaults:
    def _service(self, topology, **kwargs):
        return SessionService(topology, allocator=SlotAllocator(
            topology, table_size=32, frequency_hz=500e6),
            name="t", seed=1, **kwargs)

    def test_fault_evicts_and_reallocates(self):
        topology = mesh(3, 3, nis_per_router=2)
        churn = ChurnWorkload(ChurnSpec(n_sessions=60), topology, 5)
        schedule = FaultSchedule(
            FaultSpec(n_faults=4, fault_rate_per_s=400.0,
                      mean_repair_s=0.004), topology, 9)
        service = self._service(topology, record_timeline=True)
        report = service.run(merge_events(churn.events(),
                                          schedule.events()))
        faults = report.faults
        assert faults is not None
        assert faults["n_failures"] == 4
        assert faults["n_evicted"] == (faults["n_reallocated"]
                                       + faults["n_dropped"])
        assert report.invariant["ok"]
        # The faults section is part of the canonical JSON.
        assert "faults" in json.loads(report.to_json())

    def test_fault_free_report_has_no_faults_section(self):
        topology = mesh(2, 2, nis_per_router=2)
        churn = ChurnWorkload(ChurnSpec(n_sessions=20), topology, 5)
        report = self._service(topology).run(churn.events())
        assert report.faults is None
        assert "faults" not in json.loads(report.to_json())

    def test_repair_restores_prefault_feasible_set(self):
        """Satellite property: after fail+repair on the Section VII
        mesh, the admission feasible set equals the pre-fault one."""
        topology = concentrated_mesh(4, 3, nis_per_router=4)
        service = self._service(topology)
        churn = ChurnWorkload(ChurnSpec(n_sessions=40), topology, 5)
        opens = [e for e in churn.events() if e.kind == "open"][:20]
        for event in opens:
            service.process(event)
        # Fail (and repair) a link no active session traverses, so the
        # occupancy itself is untouched and the comparison is exact.
        used = set()
        for ca in service.allocation.channels.values():
            used.update(ca.path.link_keys())
        link = next(key for key in topology.iter_link_keys()
                    if key not in used and key[0].startswith("r")
                    and key[1].startswith("r"))
        probe_class = QosClass("probe", throughput_mb_s=20.0,
                               max_latency_ns=500.0)

        def feasible_set():
            verdicts = []
            nis = topology.nis[:8]
            for i, src in enumerate(nis):
                for dst in nis:
                    if src == dst:
                        continue
                    spec = probe_class.channel_spec(
                        f"probe_{src}_{dst}", src, dst)
                    try:
                        service.admission.admit(spec, src, dst)
                    except AllocationError:
                        verdicts.append(False)
                    else:
                        service.admission.release(spec.name)
                        verdicts.append(True)
            return verdicts

        before = feasible_set()
        service.process_fault(FaultEvent(1.0, "fail", "link", link))
        degraded = feasible_set()
        service.process_fault(FaultEvent(1.1, "repair", "link", link))
        after = feasible_set()
        assert service.allocation.failed_links == frozenset()
        assert service.allocation.excluded_links == frozenset()
        assert before == after
        # While failed, routes over the dead link are refused.
        assert degraded.count(True) <= before.count(True)

    def test_fault_before_churn_leaves_decisions_unchanged(self):
        topology = mesh(3, 3, nis_per_router=2)
        churn = ChurnWorkload(ChurnSpec(n_sessions=40), topology, 5)
        events = churn.events()
        first_arrival = events[0].time_s
        fail = FaultEvent(first_arrival / 3, "fail", "link",
                          ("r0_0", "r1_0"))
        repair = FaultEvent(first_arrival / 2, "repair", "link",
                            ("r0_0", "r1_0"))
        baseline = self._service(topology).run(events)
        faulted = self._service(topology).run(
            merge_events(events, (fail, repair)))
        assert faulted.totals == baseline.totals
        assert faulted.faults["n_evicted"] == 0

    def test_churn_fault_timeline_is_composable(self):
        from repro.simulation.composability import (replay_traffic,
                                                    verify_timeline)
        topology = mesh(3, 3, nis_per_router=2)
        churn = ChurnWorkload(ChurnSpec(n_sessions=40), topology, 5)
        schedule = FaultSchedule(
            FaultSpec(n_faults=3, fault_rate_per_s=400.0,
                      mean_repair_s=0.004), topology, 9)
        service = self._service(topology, record_timeline=True)
        report = service.run(merge_events(churn.events(limit=60),
                                          schedule.events()))
        assert report.faults["n_evicted"] > 0
        timeline = service.timeline(horizon_slots=900)
        verdict = verify_timeline(timeline, replay_traffic(timeline),
                                  scenario="fault-test")
        assert verdict.is_composable
        assert verdict.n_survivors if hasattr(verdict, "n_survivors") \
            else verdict.survivors


class TestFaultScenarios:
    def _scenario(self, **overrides):
        base = dict(
            name="faults-test", mode="faults", backend="flit",
            topology=TopologySpec(kind="mesh", cols=3, rows=3,
                                  nis_per_router=2),
            churn=ChurnSpec(n_sessions=20),
            faults=FaultSpec(n_faults=2, fault_rate_per_s=400.0,
                             mean_repair_s=0.004),
            n_slots=500, table_size=16)
        base.update(overrides)
        return ScenarioSpec(**base)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self._scenario(mode="serve")  # fault spec needs mode=faults
        with pytest.raises(ConfigurationError):
            self._scenario(backend="cycle")  # cannot reconfigure mid-run

    def test_execute_run_is_deterministic(self):
        spec = CampaignSpec(name="ft", scenarios=(self._scenario(),),
                            seeds=(1,))
        run = spec.expand()[0]
        first = run_kind(run)
        second = run_kind(run)
        assert first["status"] == "ok"
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)
        result = first["result"]
        surv = result["survivability"]
        assert 0.0 <= surv["admission_retention"] <= 1.0
        assert 0.0 <= surv["guarantee_retention"] <= 1.0
        assert result["composability"]["composable"] in (True, False)

    def test_fault_campaign_preset_shape(self):
        from repro.campaign.presets import fault_campaign, preset_by_name
        spec = fault_campaign()
        assert len(spec.scenarios) == 8  # 2 topo x 2 adversary x 2 sizes
        assert all(s.mode == "faults" for s in spec.scenarios)
        assert preset_by_name("fault").name == "faults"


class TestSpareCapacity:
    def test_validation(self):
        from repro.core.application import Application, UseCase
        from repro.core.connection import MB, ChannelSpec
        from repro.design.space import DesignSpec, provisioned_use_case
        use_case = UseCase("w", (Application("a", (
            ChannelSpec("c", "x", "y", 8 * MB, application="a"),)),))
        with pytest.raises(ConfigurationError):
            DesignSpec(use_case=use_case, spare_capacity=-0.1)
        with pytest.raises(ConfigurationError):
            provisioned_use_case(use_case, -1.0)

    def test_provisioning_scales_throughput_only(self):
        from repro.core.application import Application, UseCase
        from repro.core.connection import MB, ChannelSpec
        from repro.design.space import provisioned_use_case
        use_case = UseCase("w", (Application("a", (
            ChannelSpec("c", "x", "y", 8 * MB, max_latency_ns=400.0,
                        application="a"),)),))
        scaled = provisioned_use_case(use_case, 0.5)
        assert scaled.channels[0].throughput_bytes_per_s == 12 * MB
        assert scaled.channels[0].max_latency_ns == 400.0
        assert provisioned_use_case(use_case, 0.0) is use_case

    def test_heavy_provisioning_rejects_candidate(self):
        from repro.campaign.spec import TopologySpec
        from repro.design.explorer import evaluate_candidate
        from repro.design.space import DesignSpec, section7_demo_use_case
        use_case = section7_demo_use_case()
        topo = TopologySpec(kind="mesh", cols=2, rows=2,
                            nis_per_router=4)
        base = evaluate_candidate(
            topo, DesignSpec(use_case=use_case, max_frequency_mhz=500.0,
                             mapping="traffic_balanced"), 16, seed=5)
        heavy = evaluate_candidate(
            topo, DesignSpec(use_case=use_case, max_frequency_mhz=500.0,
                             mapping="traffic_balanced",
                             spare_capacity=3.0), 16, seed=5)
        assert base["status"] == "ok"
        assert heavy["status"] in ("pruned", "infeasible")
        assert heavy["spare_capacity"] == 3.0


class TestSharedAllocatorIsolation:
    """Failed fabric is state of one live allocation: an allocator
    shared for its warm caches carries none of it to a neighbour."""

    def _managers(self, n):
        from repro.core.reconfiguration import ReconfigurationManager
        topology = mesh(3, 3, nis_per_router=2)
        use_case, mapping = WorkloadSpec(
            n_channels=12, n_ips=12).build(topology, 3)
        allocator = SlotAllocator(topology, table_size=16,
                                  frequency_hz=500e6)
        managers = [ReconfigurationManager(allocator, mapping)
                    for _ in range(n)]
        for manager in managers:
            for app in use_case.applications:
                manager.start_application(app)
        return allocator, mapping, managers

    def test_manager_fault_stays_off_the_other_manager(self):
        from repro.core.application import Application
        allocator, mapping, (faulty, healthy, control) = self._managers(3)
        held = dict(vars(allocator))
        faulty.allocation = faulty.allocation.rebuild_excluding(
            failed_routers=["r1_1"]).allocation
        # The allocator's caches fill in place; a fault rebinds nothing.
        assert vars(allocator) == held
        assert healthy.allocation.excluded_links == frozenset()
        # An application the dead router strands: the faulty manager
        # must refuse it, its neighbour must place it exactly as a
        # manager that never saw a fault does.
        src = next(ip for ip in sorted(mapping.ip_to_ni)
                   if mapping.ni_of(ip).startswith("ni1_1"))
        dst = next(ip for ip in sorted(mapping.ip_to_ni)
                   if not mapping.ni_of(ip).startswith("ni1_1"))
        late = Application("late", (ChannelSpec(
            "late0", src, dst, 5 * MB, application="late"),))
        with pytest.raises(AllocationError, match="failed fabric"):
            faulty.start_application(late)
        healthy.start_application(late)
        control.start_application(late)
        assert (allocation_fingerprint(healthy.allocation)
                == allocation_fingerprint(control.allocation))
        # Repair on one side changes nothing on the other either.
        faulty.allocation.set_failed(*faulty.allocation.fabric_after(
            "repair", (), ["r1_1"]))
        assert faulty.allocation.excluded_links == frozenset()
        faulty.start_application(late)

    def test_service_fault_stays_off_the_other_service(self):
        topology = mesh(3, 3, nis_per_router=2)
        allocator = SlotAllocator(topology, table_size=32,
                                  frequency_hz=500e6)
        events = ChurnWorkload(ChurnSpec(n_sessions=60), topology,
                               5).events()
        faults = FaultSchedule(FaultSpec(n_faults=3, repair=False),
                               topology, 9).events()
        alone = SessionService(topology, allocator=allocator,
                               seed=1).run(events).to_json()
        faulty = SessionService(topology, allocator=allocator, seed=1)
        healthy = SessionService(topology, allocator=allocator, seed=1)
        for event in merge_events(events, faults):
            faulty.process(event)
            if not isinstance(event, FaultEvent):
                healthy.process(event)
        assert faulty.allocation.excluded_links
        assert healthy.allocation.excluded_links == frozenset()
        assert healthy.report().to_json() == alone
        assert faulty.report().to_json() != alone
