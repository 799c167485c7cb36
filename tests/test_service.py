"""Tests for the online control plane (repro.service) and its hot path."""

from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import given, strategies as st

from repro.campaign import CampaignRunner, CampaignSpec, churn_campaign
from repro.campaign.kinds import run_kind
from repro.campaign.spec import ScenarioSpec, TopologySpec
from repro.core.allocation import Allocation, SlotAllocator
from repro.core.connection import ChannelSpec
from repro.core.exceptions import AllocationError, ConfigurationError
from repro.core.requirements import slots_for_channel
from repro.core.slot_table import (choose_slots_fast, mask_to_slots,
                                   max_consecutive_gap, rotate_mask, shifted,
                                   slots_to_mask)
from repro.core.words import WordFormat
from repro.service import (DEFAULT_CLASSES, AdmissionController, ChurnSpec,
                           ChurnWorkload, QosClass, SessionService)
from repro.topology.builders import concentrated_mesh, mesh, ring
from repro.topology.mapping import Mapping


@pytest.fixture(scope="module")
def small_mesh():
    return mesh(2, 2, nis_per_router=2)


@pytest.fixture(scope="module")
def sec7_mesh():
    return concentrated_mesh(4, 3, nis_per_router=4)


class TestMaskArithmetic:
    @given(st.sets(st.integers(0, 15), max_size=16))
    def test_mask_roundtrip(self, slots):
        mask = slots_to_mask(slots, 16)
        assert set(mask_to_slots(mask)) == slots

    @given(st.sets(st.integers(0, 15), max_size=16),
           st.integers(-40, 40))
    def test_rotate_matches_shifted_membership(self, slots, shift):
        """Bit s of the rotated mask <=> slot (s+shift)%size is in the set."""
        size = 16
        mask = rotate_mask(slots_to_mask(slots, size), shift, size)
        for s in range(size):
            assert bool(mask >> s & 1) == (shifted(s, shift, size) in slots)

    def test_rotate_rejects_bad_size(self):
        with pytest.raises(ConfigurationError):
            rotate_mask(1, 1, 0)

    @given(st.data())
    def test_choose_slots_fast_honours_constraints(self, data):
        size = data.draw(st.integers(4, 32))
        free = data.draw(st.sets(st.integers(0, size - 1), min_size=1,
                                 max_size=size))
        n = data.draw(st.integers(1, len(free)))
        max_gap = data.draw(st.one_of(st.none(), st.integers(1, size)))
        chosen = choose_slots_fast(slots_to_mask(free, size), n, size,
                                   max_gap=max_gap)
        if chosen is None:
            # Only a gap constraint can make the fast chooser fail once
            # n <= |free|; verify genuine infeasibility.
            assert max_gap is not None
            assert max_consecutive_gap(free, size) > max_gap
        else:
            assert len(chosen) >= n
            assert set(chosen) <= set(free)
            assert list(chosen) == sorted(set(chosen))
            if max_gap is not None:
                assert max_consecutive_gap(chosen, size) <= max_gap


class TestQos:
    def test_default_classes_well_formed(self):
        names = [c.name for c in DEFAULT_CLASSES]
        assert len(set(names)) == len(names)
        spec = DEFAULT_CLASSES[0].channel_spec("s1", "niA", "niB")
        assert spec.name == spec.application == "s1"

    def test_invalid_class_rejected(self):
        with pytest.raises(ConfigurationError):
            QosClass("bad", throughput_mb_s=0.0)
        with pytest.raises(ConfigurationError):
            QosClass("bad", throughput_mb_s=1.0, max_latency_ns=-1.0)
        with pytest.raises(ConfigurationError):
            QosClass("bad", throughput_mb_s=1.0, weight=0.0)

    @pytest.mark.parametrize("field", ["throughput_mb_s", "max_latency_ns",
                                       "weight"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_class_rejected(self, field, value):
        """NaN / inf passed ``<= 0`` and reached ``route_quotes`` as a
        builtin ``ValueError`` / ``OverflowError``."""
        with pytest.raises(ConfigurationError,
                           match=f"'bad' {field} must be a finite positive"):
            QosClass("bad", **{"throughput_mb_s": 1.0, field: value})


class TestChurnWorkload:
    def test_same_seed_same_stream(self, small_mesh):
        spec = ChurnSpec(n_sessions=60)
        a = ChurnWorkload(spec, small_mesh, 5).events()
        b = ChurnWorkload(spec, small_mesh, 5).events()
        assert a == b

    def test_different_seed_different_stream(self, small_mesh):
        spec = ChurnSpec(n_sessions=60)
        a = ChurnWorkload(spec, small_mesh, 5).events()
        b = ChurnWorkload(spec, small_mesh, 6).events()
        assert a != b

    def test_events_time_ordered_and_paired(self, small_mesh):
        workload = ChurnWorkload(ChurnSpec(n_sessions=40), small_mesh, 1)
        events = workload.events()
        assert len(events) == 80
        times = [e.time_s for e in events]
        assert times == sorted(times)
        opens = {e.session.session_id for e in events if e.kind == "open"}
        closes = {e.session.session_id for e in events
                  if e.kind == "close"}
        assert opens == closes

    def test_limit_truncates(self, small_mesh):
        workload = ChurnWorkload(ChurnSpec(n_sessions=40), small_mesh, 1)
        assert len(workload.events(limit=10)) == 10
        assert workload.events(limit=10.0) == workload.events(limit=10)
        assert workload.events(limit=0) == ()

    @pytest.mark.parametrize("limit", [-1, 2.5, float("nan")])
    def test_limit_that_is_not_a_count_is_refused(self, small_mesh, limit):
        """A negative limit is refused, not read as an empty stream."""
        workload = ChurnWorkload(ChurnSpec(n_sessions=4), small_mesh, 1)
        with pytest.raises(ConfigurationError, match="limit"):
            workload.events(limit=limit)

    @pytest.mark.parametrize("n_sessions", [2.5, float("nan"), "2"])
    def test_fractional_session_count_is_refused(self, n_sessions):
        """Refused where the spec is built, not in ``events()``."""
        with pytest.raises(ConfigurationError, match="n_sessions"):
            ChurnSpec(n_sessions=n_sessions)

    def test_whole_float_session_count_is_an_int(self, small_mesh):
        spec = ChurnSpec(n_sessions=2.0)
        assert spec.n_sessions == 2 and type(spec.n_sessions) is int
        assert spec.label == ChurnSpec(n_sessions=2).label
        assert ChurnWorkload(spec, small_mesh, 1).events() == \
            ChurnWorkload(ChurnSpec(n_sessions=2), small_mesh, 1).events()

    def test_durations_capped_and_positive(self, small_mesh):
        spec = ChurnSpec(n_sessions=200, max_duration_s=0.5)
        for s in ChurnWorkload(spec, small_mesh, 3).sessions:
            assert 0 < s.duration_s <= 0.5
            assert s.src_ni != s.dst_ni

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            ChurnSpec(n_sessions=0)
        with pytest.raises(ConfigurationError):
            ChurnSpec(pareto_shape=1.0)
        with pytest.raises(ConfigurationError):
            ChurnSpec(classes=())


class TestAdmissionController:
    def _controller(self, topo):
        allocator = SlotAllocator(topo, table_size=16, frequency_hz=500e6)
        return AdmissionController(allocator)

    def test_admit_then_release_restores_free_slots(self, small_mesh):
        ctrl = self._controller(small_mesh)
        spec = DEFAULT_CLASSES[2].channel_spec("s0", "ni0_0_0", "ni1_1_0")
        ca = ctrl.admit(spec, "ni0_0_0", "ni1_1_0")
        assert ca.slots
        ctrl.allocation.validate()
        ctrl.release("s0")
        ctrl.allocation.validate()
        assert not any(ctrl.allocation.link_masks.values())

    def test_admission_is_contention_free_under_churn(self, small_mesh):
        ctrl = self._controller(small_mesh)
        rng = random.Random(9)
        nis = sorted(small_mesh.nis)
        active: list[str] = []
        for i in range(200):
            if active and rng.random() < 0.4:
                ctrl.release(active.pop(rng.randrange(len(active))))
            else:
                src, dst = rng.sample(nis, 2)
                qos = rng.choice(DEFAULT_CLASSES)
                name = f"s{i}"
                try:
                    ctrl.admit(qos.channel_spec(name, src, dst), src, dst)
                except AllocationError:
                    continue
                active.append(name)
        ctrl.allocation.validate()

    def test_rejection_commits_nothing(self, small_mesh):
        ctrl = self._controller(small_mesh)
        heavy = QosClass("huge", throughput_mb_s=2000.0)
        with pytest.raises(AllocationError):
            ctrl.admit(heavy.channel_spec("s0", "ni0_0_0", "ni1_1_0"),
                       "ni0_0_0", "ni1_1_0")
        assert not any(ctrl.allocation.link_masks.values())
        assert ctrl.rejects == 1

    def test_infeasible_requirement_reason_names_no_route(self, small_mesh):
        """A latency no path can meet is not misreported as congestion."""
        ctrl = self._controller(small_mesh)
        impossible = QosClass("now", throughput_mb_s=1.0,
                              max_latency_ns=0.5)
        with pytest.raises(AllocationError) as excinfo:
            ctrl.admit(impossible.channel_spec("s0", "ni0_0_0", "ni1_1_0"),
                       "ni0_0_0", "ni1_1_0")
        assert excinfo.value.reason == "no route can meet the requirements"

    def test_reject_reasons_are_tallied_and_folded(self, small_mesh):
        """Each of the three causes ``admit`` tells apart is counted
        under its own label, and the labels sum to the reject total."""
        from repro.telemetry.hub import Telemetry
        tel = Telemetry()
        ctrl = AdmissionController(SlotAllocator(
            small_mesh, table_size=16, frequency_hz=500e6), telemetry=tel)
        ends = ("ni0_0_0", "ni1_1_0")

        def refused(qos, name):
            with pytest.raises(AllocationError) as excinfo:
                ctrl.admit(qos.channel_spec(name, *ends), *ends)
            return excinfo.value.reason

        assert "no route" in refused(
            QosClass("now", throughput_mb_s=1.0, max_latency_ns=0.5), "a")
        heavy = QosClass("half", throughput_mb_s=300.0)
        while True:  # fill the injection link
            try:
                ctrl.admit(heavy.channel_spec(f"f{ctrl.admits}", *ends),
                           *ends)
            except AllocationError:
                break
        assert ctrl.admits and ctrl.rejects_no_capacity == 1
        assert "capacity" in refused(heavy, "c")
        ctrl.allocation.set_failed(failed_routers=["r0_0"])
        assert "failed fabric" in refused(DEFAULT_CLASSES[0], "d")
        assert (ctrl.rejects_no_route, ctrl.rejects_no_capacity,
                ctrl.rejects_failed_fabric) == (1, 2, 1)
        assert ctrl.rejects == 4
        by_reason = {reason: tel.value("admission.rejects", reason=reason)
                     for reason in ("no_route", "no_capacity",
                                    "failed_fabric")}
        assert by_reason == {"no_route": 1, "no_capacity": 2,
                             "failed_fabric": 1}
        assert sum(by_reason.values()) == \
            tel.value("admission.decisions", outcome="reject") == 4
        # Delta-based: reading again adds nothing.
        assert tel.value("admission.rejects", reason="no_capacity") == 2

    def test_deterministic_slot_choice(self, small_mesh):
        def one_pass():
            ctrl = self._controller(small_mesh)
            out = []
            for i, qos in enumerate(DEFAULT_CLASSES * 3):
                spec = qos.channel_spec(f"s{i}", "ni0_0_0", "ni1_1_0")
                try:
                    out.append(ctrl.admit(spec, "ni0_0_0", "ni1_1_0").slots)
                except AllocationError:
                    out.append(None)
            return out
        assert one_pass() == one_pass()

    def test_incompatible_allocation_is_refused(self, small_mesh):
        """A mismatched pair used to admit slots rotated at the wrong
        modulus, or fail with a KeyError deep in the hot loop."""
        allocator = SlotAllocator(small_mesh, table_size=16,
                                  frequency_hz=500e6)
        other_size = SlotAllocator(small_mesh, table_size=8,
                                   frequency_hz=500e6)
        other_topology = SlotAllocator(mesh(2, 2, nis_per_router=2),
                                       table_size=16, frequency_hz=500e6)
        for other in (other_size, other_topology):
            foreign = AdmissionController(other).allocation
            with pytest.raises(ConfigurationError):
                allocator.check_compatible(foreign)
        allocator.check_compatible(AdmissionController(allocator).allocation)

    @pytest.mark.parametrize("frequency_hz, fmt, refused", [
        (125e6, WordFormat(), "allocation frequency 125000000.0 != "
                              "allocator frequency 500000000.0"),
        (500e6, WordFormat(data_width=64), "allocation word format "),
    ], ids=["frequency", "word-format"])
    def test_an_allocation_at_another_operating_point_is_refused(
            self, small_mesh, frequency_hz, fmt, refused):
        """Quotes meet a requirement at the allocator's frequency and
        word format; bounds are read at the allocation's.  At 125 MHz a
        ``max_latency_ns=100`` channel used to be admitted with a bound
        of 240 ns."""
        allocator = SlotAllocator(small_mesh, table_size=16,
                                  frequency_hz=500e6)
        foreign = Allocation(small_mesh, 16, frequency_hz, fmt)
        with pytest.raises(ConfigurationError, match=refused):
            allocator.check_compatible(foreign)
        mapping = Mapping({"a": "ni0_0_0", "b": "ni1_1_0"})
        with pytest.raises(ConfigurationError, match=refused):
            allocator.extend(foreign, [ChannelSpec(
                "c", "a", "b", 1e6, max_latency_ns=100.0)], mapping)
        assert not foreign.channels

    def test_quote_cache_is_bounded_and_eviction_is_invisible(
            self, small_mesh, monkeypatch):
        """3x the cap in distinct requirements: the memo holds exactly
        the cap — the newest requirements — and every admission decision
        is what an uncapped run makes."""
        from repro.core import allocation as allocation_module
        cap = 32
        classes = [QosClass(f"c{i}", throughput_mb_s=1.0 + i * 0.25)
                   for i in range(3 * cap)]

        def one_pass():
            allocator = SlotAllocator(small_mesh, table_size=16,
                                      frequency_hz=500e6)
            ctrl = AdmissionController(allocator)
            out = []
            # Twice over, so the second round re-quotes evicted keys.
            for i, qos in enumerate(classes * 2):
                spec = qos.channel_spec(f"s{i}", "ni0_0_0", "ni1_1_0")
                try:
                    ca = ctrl.admit(spec, "ni0_0_0", "ni1_1_0")
                    out.append((ca.slots, ca.path.link_keys()))
                    ctrl.release(spec.name)
                except AllocationError as exc:
                    out.append(exc.reason)
            return out, allocator, ctrl

        uncapped, allocator, ctrl = one_pass()
        assert len(allocator.quote_memo) == 3 * cap
        assert (ctrl.path_misses, ctrl.path_hits) == (3 * cap, 3 * cap)
        monkeypatch.setattr(allocation_module, "QUOTE_CACHE_CAP", cap)
        capped, allocator, ctrl = one_pass()
        assert list(allocator.quote_memo) == [
            (qos.throughput_mb_s * 1e6, None) for qos in classes[-cap:]]
        # Oldest-inserted first out: every second-round read misses.
        assert (ctrl.path_misses, ctrl.path_hits) == (6 * cap, 0)
        assert capped == uncapped

    def test_section7_working_set_fits_the_quote_cache(self, sec7_mesh):
        """Section VII churn quotes per QoS class, whatever the NI pair:
        its working set is 4 requirements, far below the cap."""
        from repro.core.allocation import QUOTE_CACHE_CAP
        service = SessionService(sec7_mesh, allocator=_allocator(sec7_mesh),
                                 record_events=False)
        events = ChurnWorkload(ChurnSpec(n_sessions=400), sec7_mesh,
                               7).events()
        assert service.run(events).invariant["ok"]
        admission = service.admission
        assert admission.path_misses == len(service.allocator.quote_memo) \
            == len(DEFAULT_CLASSES) == 4
        assert admission.path_hits == 400 - 4
        assert QUOTE_CACHE_CAP > 1000 * len(DEFAULT_CLASSES)

    # Admission's reasons, most fundamental first; the text reaches
    # session reports and campaign records.
    NO_ROUTE = "no route can meet the requirements"
    FAILED_FABRIC = "every candidate route crosses failed fabric"
    NO_CAPACITY = "no candidate route has capacity"
    TALLY = {NO_ROUTE: "rejects_no_route",
             FAILED_FABRIC: "rejects_failed_fabric",
             NO_CAPACITY: "rejects_no_capacity"}

    def _refused(self, ctrl, spec, src, dst, reason):
        """Admit ``spec``, expect ``reason``, and check that exactly its
        own tally and the reject total moved, by one, and nothing was
        committed."""
        tallies = ("rejects", *self.TALLY.values())
        before = {attr: getattr(ctrl, attr) for attr in tallies}
        held = dict(ctrl.allocation.link_masks)
        with pytest.raises(AllocationError) as excinfo:
            ctrl.admit(spec, src, dst)
        assert excinfo.value.reason == reason
        assert str(excinfo.value) == (
            f"cannot admit session {spec.name!r} ({src} -> {dst}, "
            f"{spec.throughput_bytes_per_s / 1e6:.3g} MB/s): {reason}")
        assert {attr: getattr(ctrl, attr) - before[attr]
                for attr in tallies} == {
            attr: int(attr in ("rejects", self.TALLY[reason]))
            for attr in tallies}
        assert ctrl.allocation.link_masks == held

    def _ring_pair(self):
        """A four-router ring and its neighbour NIs: a one-hop route and
        a three-hop one the other way round."""
        topo = ring(4)
        ctrl = self._controller(topo)
        short, long = ctrl.allocator.shortest_candidates("ni0_0_0",
                                                         "ni1_0_0")
        assert (len(short.routers), len(long.routers)) == (2, 4)
        return ctrl, short, long

    def test_each_reject_reason_is_pinned(self):
        ctrl, short, long = self._ring_pair()
        ends = ("ni0_0_0", "ni1_0_0")
        free = QosClass("free", throughput_mb_s=10.0)
        # No route: no latency is met by any route, failed fabric or not.
        now = QosClass("now", throughput_mb_s=1.0, max_latency_ns=0.5)
        self._refused(ctrl, now.channel_spec("a", *ends), *ends,
                      self.NO_ROUTE)
        ctrl.allocation.set_failed(failed_links=[short.link_keys()[1]])
        self._refused(ctrl, now.channel_spec("b", *ends), *ends,
                      self.NO_ROUTE)
        # No capacity: the long way round avoids the failure but is full.
        fat = QosClass("fat", throughput_mb_s=700.0)
        ctrl.admit(fat.channel_spec("c", *ends), *ends)
        self._refused(ctrl, fat.channel_spec("d", *ends), *ends,
                      self.NO_CAPACITY)
        # Failed fabric: both ways round cross a failed link.
        ctrl.allocation.set_failed(failed_links=[short.link_keys()[1],
                                                 long.link_keys()[1]])
        self._refused(ctrl, free.channel_spec("e", *ends), *ends,
                      self.FAILED_FABRIC)
        assert (ctrl.rejects_no_route, ctrl.rejects_no_capacity,
                ctrl.rejects_failed_fabric, ctrl.rejects) == (2, 1, 1, 4)

    def test_a_fault_free_route_that_misses_the_latency_is_failed_fabric(
            self):
        """Only the failed one-hop route can meet the latency, and the
        fault-free three-hop one cannot: the routes that could carry the
        session cross failed fabric, which is what the reason says."""
        ctrl, short, long = self._ring_pair()
        ends = ("ni0_0_0", "ni1_0_0")
        fmt, f = ctrl.allocator.fmt, ctrl.allocator.frequency_hz
        tight = QosClass("tight", throughput_mb_s=10.0, max_latency_ns=(
            short.traversal_slots + 1.5) * fmt.flit_size / f * 1e9)
        spec = tight.channel_spec("a", *ends)
        slots_for_channel(spec, short, 16, f, fmt)
        with pytest.raises(AllocationError) as infeasible:
            slots_for_channel(spec, long, 16, f, fmt)
        assert infeasible.value.reason == "latency below path traversal time"
        ctrl.allocation.set_failed(failed_links=[short.link_keys()[1]])
        self._refused(ctrl, spec, *ends, self.FAILED_FABRIC)

def _allocator(topo, table_size=32):
    return SlotAllocator(topo, table_size=table_size, frequency_hz=500e6)


class TestSessionService:
    def _run(self, topo, *, n_sessions=120, seed=3, allocator=None,
             **kwargs):
        workload = ChurnWorkload(ChurnSpec(n_sessions=n_sessions), topo,
                                 seed)
        service = SessionService(
            topo, allocator=allocator or _allocator(topo), **kwargs)
        return service.run(workload.events()), service

    def test_full_trace_clean(self, sec7_mesh):
        report, service = self._run(sec7_mesh)
        assert report.totals["n_events"] == 240
        assert report.invariant["ok"]
        assert report.totals["n_released"] == report.totals["n_accepted"]
        assert report.totals["active_at_end"] == 0
        assert report.totals["final_mean_link_utilisation"] == 0.0

    def test_reports_byte_identical_across_runs(self, sec7_mesh):
        first, _ = self._run(sec7_mesh)
        second, _ = self._run(sec7_mesh)
        assert first.to_json() == second.to_json()
        json.loads(first.to_json())  # valid JSON throughout

    def test_accepted_events_carry_bound_quotes(self, sec7_mesh):
        report, service = self._run(sec7_mesh)
        opens = [e for e in report.events if e["kind"] == "open"]
        accepted = [e for e in opens if e["decision"] == "accept"]
        assert accepted, "trace admitted no sessions?"
        for event in accepted:
            quote = event["quote"]
            assert quote["latency_bound_ns"] > 0
            assert quote["n_slots"] >= 1
            qos = next(c for c in DEFAULT_CLASSES
                       if c.name == event["class"])
            # The quote is a guarantee: it must cover the class
            # requirement it was admitted under.
            assert quote["throughput_mb_s"] * 1.000001 >= \
                qos.throughput_mb_s
            if qos.max_latency_ns is not None:
                assert quote["latency_bound_ns"] <= \
                    qos.max_latency_ns * 1.000001

    def test_rejections_recorded_not_raised(self, small_mesh):
        # A tiny mesh with heavy sessions must reject some opens.
        heavy = (QosClass("fat", throughput_mb_s=300.0, weight=1.0),)
        workload = ChurnWorkload(
            ChurnSpec(n_sessions=80, classes=heavy,
                      mean_duration_s=0.1), small_mesh, 11)
        service = SessionService(small_mesh,
                                 allocator=_allocator(small_mesh, 8))
        report = service.run(workload.events())
        assert report.totals["n_rejected"] > 0
        assert report.invariant["ok"]
        rejected = [e for e in report.events
                    if e.get("decision") == "reject"]
        assert all(e["reason"] for e in rejected)

    def test_shared_allocator_does_not_change_results(self, sec7_mesh):
        """Cache warm-up must be invisible in the canonical report."""
        allocator = _allocator(sec7_mesh)
        cold, _ = self._run(sec7_mesh)
        warm, _ = self._run(sec7_mesh, allocator=allocator)
        warm2, _ = self._run(sec7_mesh, allocator=allocator)
        assert cold.to_json() == warm.to_json() == warm2.to_json()

    def test_the_allocator_is_the_one_operating_point(self, sec7_mesh):
        """The service takes its table size and frequency from the
        allocator it is handed, and from nowhere else."""
        allocator = _allocator(sec7_mesh)
        with pytest.raises(TypeError):
            SessionService(sec7_mesh, table_size=16, allocator=allocator)
        with pytest.raises(TypeError):
            SessionService(sec7_mesh, frequency_hz=1e9,
                           allocator=allocator)
        with pytest.raises(TypeError):
            SessionService(sec7_mesh)
        with pytest.raises(ConfigurationError,
                           match="different topology object"):
            SessionService(mesh(2, 2, nis_per_router=1),
                           allocator=allocator)

    def test_stream_anomalies_are_counted_beside_the_report(
            self, small_mesh):
        """A reversed stream, a repeated open and a close nobody opened
        are tallied — in ``report.anomalies`` and ``service.anomalies``
        — never in the canonical record, and handled as before."""
        from repro.telemetry import Telemetry
        events = ChurnWorkload(ChurnSpec(n_sessions=20), small_mesh,
                               3).events()
        clean, _ = self._run(small_mesh, n_sessions=20)
        assert set(clean.anomalies.values()) == {0}
        assert "anomalies" not in clean.to_record()
        # The close of a session whose open was rejected is owed, not
        # unknown — and once it came nothing is remembered.
        busy = SessionService(small_mesh,
                              allocator=_allocator(small_mesh, 8))
        crowded = busy.run(ChurnWorkload(ChurnSpec(n_sessions=120),
                                         small_mesh, 3).events())
        assert crowded.totals["n_rejected"] > 0
        assert set(crowded.anomalies.values()) == {0}
        assert not busy._unadmitted

        tel = Telemetry()
        service = SessionService(small_mesh,
                                 allocator=_allocator(small_mesh),
                                 telemetry=tel)
        reverse = service.run(events[::-1])
        assert reverse.invariant["ok"]
        assert reverse.anomalies["non_monotone_time"] > 0
        # Every close now precedes its open: none finds its session
        # active or owed a close, and all are still open at the end.
        assert reverse.anomalies["unknown_session"] == 20
        assert reverse.anomalies["duplicate_session"] == 0
        for kind, count in reverse.anomalies.items():
            assert tel.value("service.anomalies", kind=kind) == count

        opens = [e for e in events if e.kind == "open"]
        service = SessionService(small_mesh,
                                 allocator=_allocator(small_mesh))
        twice = service.run([opens[0], opens[0]])
        assert twice.anomalies == {"non_monotone_time": 0,
                                   "duplicate_session": 1,
                                   "unknown_session": 0}
        assert (twice.totals["n_accepted"],
                twice.totals["n_rejected"]) == (1, 1)

    @pytest.mark.parametrize("time_s", [float("nan"), float("inf"), -1.0])
    def test_non_finite_event_time_is_refused(self, small_mesh, time_s):
        """An event time every later ordering comparison would be false
        against never enters a stream (a recorded timeline once failed
        on it with a builtin ``float`` -> ``int`` error)."""
        first = ChurnWorkload(ChurnSpec(n_sessions=2), small_mesh,
                              3).events()[0]
        with pytest.raises(ConfigurationError, match="finite"):
            dataclasses.replace(first, time_s=time_s)

    def test_series_snapshots_every_window(self, sec7_mesh):
        report, _ = self._run(sec7_mesh, window=50)
        assert len(report.series) == 240 // 50
        for point in report.series:
            assert 0.0 <= point["accept_rate_total"] <= 1.0
            assert point["active_sessions"] >= 0

    @pytest.mark.parametrize("window", [0, -5, float("nan"), 2.5])
    def test_window_that_is_not_a_positive_count_is_refused(
            self, small_mesh, window):
        """Refused, not coerced: a series point is taken every
        ``window`` events and its churn rate is ``window`` per span, so
        the window must be one whole count."""
        with pytest.raises(ConfigurationError, match="window"):
            SessionService(small_mesh, allocator=_allocator(small_mesh),
                           window=window)

    def test_whole_float_window_is_read_as_a_count(self, small_mesh):
        report, service = self._run(small_mesh, n_sessions=20,
                                    window=10.0)
        assert service.metrics.window == 10
        assert type(service.metrics.window) is int
        assert len(report.series) == 4


class TestServeDemo:
    def test_demo_deterministic_and_clean(self):
        from repro.campaign.presets import serve_demo
        run, = serve_demo(n_events=200, seed=7).expand()
        record = run_kind(run)
        assert record == run_kind(run)
        assert run.seed == 7 and record["status"] == "ok"
        assert record["result"]["totals"]["n_events"] == 200
        assert record["result"]["invariant"]["ok"]

    def test_demo_cli_exit_code(self, capsys):
        from repro.__main__ import main
        assert main(["serve", "--demo", "--events", "120"]) == 0
        out = capsys.readouterr().out
        assert "byte-identical: yes" in out
        assert "invariant held" in out

    def test_serve_without_demo_errors(self, capsys):
        from repro.__main__ import main
        assert main(["serve"]) == 2


class TestChurnCampaign:
    def test_serve_scenario_spec_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="s", mode="interpretive-dance")
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="s", churn=ChurnSpec())  # simulate + churn

    def test_execute_serve_run_record(self):
        spec = CampaignSpec(
            name="one", seeds=(1,),
            scenarios=(ScenarioSpec(
                name="churny", mode="serve",
                topology=TopologySpec(kind="mesh", cols=2, rows=2,
                                      nis_per_router=2),
                churn=ChurnSpec(n_sessions=50), table_size=16),))
        record = run_kind(spec.expand()[0])
        assert record["status"] == "ok"
        assert record["mode"] == "serve"
        result = record["result"]
        assert result["invariant"]["ok"]
        assert result["totals"]["n_events"] == 100
        json.dumps(record)

    def test_churn_preset_shape_and_determinism(self):
        spec = churn_campaign(n_sessions=40, seeds=(1,))
        assert len(spec.scenarios) == 8  # 2 topo x 2 mix x 2 rate
        assert all(s.mode == "serve" for s in spec.scenarios)
        serial = CampaignRunner(spec, workers=1).run()
        assert serial.n_failed == 0
        again = CampaignRunner(spec, workers=1).run()
        assert serial.to_json() == again.to_json()


class TestExplorationFailureSurfacing:
    def test_infeasible_error_names_channel_and_reason(self, mesh_config):
        """min_feasible_configuration surfaces the allocator's last
        failure."""
        from dataclasses import replace

        from repro.core.application import Application, UseCase
        from repro.design.search import min_feasible_configuration

        # A latency requirement below any path's traversal time can never
        # be met, at any frequency in the search interval.
        apps = []
        for app in mesh_config.use_case.applications:
            channels = tuple(
                replace(ch, max_latency_ns=0.5)
                if ch.name == "c0" else ch
                for ch in app.channels)
            apps.append(Application(app.name, channels))
        impossible = UseCase("impossible", tuple(apps))
        with pytest.raises(AllocationError) as excinfo:
            min_feasible_configuration(
                mesh_config.topology, impossible, mesh_config.mapping,
                table_size=8, high_hz=1e9)
        err = excinfo.value
        assert err.channel == "c0"
        assert err.reason
        assert "c0" in str(err)
        assert err.__cause__ is not None
