"""Unit and property tests for the contention-free slot allocator."""

from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from nx_oracle import library_k_shortest_paths
from repro.core.allocation import (PATH_CANDIDATES, Allocation,
                                   AllocatorOptions, SlotAllocator)
from repro.core.analysis import analyse, channel_bounds
from repro.core.connection import MB, ChannelSpec
from repro.core.exceptions import AllocationError, ConfigurationError
from repro.core.path import make_path
from repro.core.placement import ChannelAllocation, QuoteMemo, place
from repro.core.requirements import latency_bound_ns, slots_for_channel
from repro.core.slot_table import (choose_slots_fast, shifted, slots_to_mask,
                                   spread_slots)
from repro.core.words import WordFormat
from repro.service import ChurnSpec, ChurnWorkload, SessionService
from repro.service.admission import AdmissionController
from repro.service.qos import DEFAULT_CLASSES, QosClass
from repro.telemetry import Telemetry
from repro.topology.builders import concentrated_mesh, mesh, ring, torus
from repro.topology.graph import Link
from repro.topology.mapping import Mapping, round_robin
from repro.topology.routing import k_shortest_paths, k_shortest_routes


def _allocator(topo, table_size=16, frequency_hz=500e6, **kw):
    return SlotAllocator(topo, table_size=table_size,
                         frequency_hz=frequency_hz, **kw)


class TestBasicAllocation:
    def test_single_channel(self):
        topo = mesh(1, 1, nis_per_router=2)
        mapping = Mapping({"a": "ni0_0_0", "b": "ni0_0_1"})
        alloc = _allocator(topo).allocate(
            [ChannelSpec("c", "a", "b", 100 * MB)], mapping)
        assert "c" in alloc.channels
        alloc.validate()

    def test_slots_shift_along_path(self):
        topo = mesh(2, 1, nis_per_router=1)
        mapping = Mapping({"a": "ni0_0_0", "b": "ni1_0_0"})
        alloc = _allocator(topo).allocate(
            [ChannelSpec("c", "a", "b", 100 * MB)], mapping)
        ca = alloc.channel("c")
        for link, shift in zip(ca.path.links, ca.path.link_shifts):
            for slot in ca.slots:
                link_slot = shifted(slot, shift, 16)
                assert alloc.link_masks[link.key] >> link_slot & 1
                assert Allocation.holder_of(alloc.channels.values(),
                                            link.key, 1 << link_slot
                                            ) == (link_slot, "c")

    def test_zero_throughput_still_gets_one_slot(self):
        topo = mesh(1, 1, nis_per_router=2)
        mapping = Mapping({"a": "ni0_0_0", "b": "ni0_0_1"})
        alloc = _allocator(topo).allocate(
            [ChannelSpec("c", "a", "b", 0.0)], mapping)
        assert alloc.channel("c").n_slots == 1

    def test_throughput_slot_count(self):
        # 500 MHz, 32-bit, table 16: one slot guarantees
        # 8 B / (16*3 cycles) * 500 MHz = 83.3 MB/s.
        topo = mesh(1, 1, nis_per_router=2)
        mapping = Mapping({"a": "ni0_0_0", "b": "ni0_0_1"})
        alloc = _allocator(topo).allocate(
            [ChannelSpec("c", "a", "b", 200 * MB)], mapping)
        assert alloc.channel("c").n_slots == 3

    def test_latency_requirement_adds_slots(self):
        topo = mesh(1, 1, nis_per_router=2)
        mapping = Mapping({"a": "ni0_0_0", "b": "ni0_0_1"})
        alloc = _allocator(topo).allocate(
            [ChannelSpec("c", "a", "b", 10 * MB, max_latency_ns=40.0)],
            mapping)
        bounds = analyse(alloc)["c"]
        assert bounds.latency_ns <= 40.0

    def test_infeasible_latency_raises(self):
        topo = mesh(4, 1, nis_per_router=1)
        mapping = Mapping({"a": "ni0_0_0", "b": "ni3_0_0"})
        # Path traversal alone exceeds 10 ns at 500 MHz.
        with pytest.raises(AllocationError):
            _allocator(topo).allocate(
                [ChannelSpec("c", "a", "b", 10 * MB, max_latency_ns=10.0)],
                mapping)

    def test_capacity_exhaustion_raises(self):
        topo = mesh(1, 1, nis_per_router=2)
        mapping = Mapping({"a": "ni0_0_0", "b": "ni0_0_1"})
        # Each channel needs > half the table; two cannot fit.
        channels = [ChannelSpec(f"c{i}", "a", "b", 700 * MB)
                    for i in range(2)]
        with pytest.raises(AllocationError):
            _allocator(topo).allocate(channels, mapping)

    def test_error_carries_channel_name(self):
        topo = mesh(1, 1, nis_per_router=2)
        mapping = Mapping({"a": "ni0_0_0", "b": "ni0_0_1"})
        channels = [ChannelSpec(f"c{i}", "a", "b", 700 * MB)
                    for i in range(2)]
        with pytest.raises(AllocationError) as exc:
            _allocator(topo).allocate(channels, mapping)
        assert exc.value.channel is not None

    @pytest.mark.parametrize("spec, hog_slots, detail", [
        (ChannelSpec("v", "a", "b", 1 * MB, max_latency_ns=5.0), (),
         "latency below path traversal time"),
        (ChannelSpec("v", "a", "b", 400 * MB), range(12),
         "4 free slots < 5 needed"),
        (ChannelSpec("v", "a", "b", 1 * MB, max_latency_ns=48.0),
         range(10), "free slots cannot satisfy gap <= 6"),
    ])
    def test_infeasible_reason_text(self, spec, hog_slots, detail):
        """The three per-candidate failure kinds, pinned literally:
        ``reason`` reaches campaign records' ``error`` field."""
        topo = mesh(1, 1, nis_per_router=2)
        mapping = Mapping({"a": "ni0_0_0", "b": "ni0_0_1"})
        allocator = _allocator(topo)
        alloc = allocator.allocate([], mapping)
        path, = allocator.shortest_candidates("ni0_0_0", "ni0_0_1")
        if hog_slots:
            alloc.commit(ChannelAllocation(
                ChannelSpec("hog", "a", "b", 1 * MB), path,
                tuple(hog_slots), 16))
        with pytest.raises(AllocationError) as exc:
            allocator.extend(alloc, [spec], mapping)
        reason = f"Path(ni0_0_0 -> r0_0 -> ni0_0_1): {detail}"
        assert exc.value.reason == reason
        assert str(exc.value) == (
            f"cannot allocate channel 'v' "
            f"({spec.throughput_bytes_per_s / 1e6:.3g} MB/s, latency "
            f"{spec.max_latency_ns} ns): {reason}")
        assert exc.value.channel == "v"

    def test_duplicate_channel_names_rejected(self):
        topo = mesh(1, 1, nis_per_router=2)
        mapping = Mapping({"a": "ni0_0_0", "b": "ni0_0_1"})
        channels = [ChannelSpec("c", "a", "b", 1 * MB)] * 2
        with pytest.raises(ConfigurationError):
            _allocator(topo).allocate(channels, mapping)

    def test_same_ni_endpoints_rejected(self):
        topo = mesh(1, 1, nis_per_router=1)
        mapping = Mapping({"a": "ni0_0_0", "b": "ni0_0_0"})
        with pytest.raises(ConfigurationError):
            _allocator(topo).allocate(
                [ChannelSpec("c", "a", "b", 1 * MB)], mapping)

    @pytest.mark.parametrize("field, value", [
        ("throughput_bytes_per_s", float("nan")),
        ("throughput_bytes_per_s", float("inf")),
        ("throughput_bytes_per_s", float("-inf")),
        ("throughput_bytes_per_s", -1.0),
        ("max_latency_ns", float("nan")),
        ("max_latency_ns", float("inf")),
        ("max_latency_ns", 0.0),
    ])
    def test_non_finite_requirement_is_refused_where_it_is_built(
            self, field, value):
        """NaN and inf used to pass the ``< 0`` / ``<= 0`` checks and
        escape ``route_quotes`` as a builtin ``ValueError`` (NaN) or
        ``OverflowError`` (inf); a NaN key also never hit the cache."""
        kwargs = {"throughput_bytes_per_s": 1 * MB, "max_latency_ns": 100.0,
                  field: value}
        with pytest.raises(ConfigurationError, match=field):
            ChannelSpec("c", "a", "b", **kwargs)


class TestDeterminismAndOrdering:
    def _workload(self, topo, n=12, seed=3):
        rng = random.Random(seed)
        ips = [f"ip{i}" for i in range(10)]
        mapping = round_robin(ips, topo)
        channels = []
        for i in range(n):
            src, dst = rng.sample(ips, 2)
            while mapping.ni_of(src) == mapping.ni_of(dst):
                src, dst = rng.sample(ips, 2)
            channels.append(ChannelSpec(
                f"c{i}", src, dst, rng.uniform(10, 120) * MB,
                application=f"app{i % 3}"))
        return channels, mapping

    def test_identical_runs_identical_results(self):
        topo = mesh(3, 2, nis_per_router=1)
        channels, mapping = self._workload(topo)
        a1 = _allocator(topo, table_size=24).allocate(channels, mapping)
        a2 = _allocator(topo, table_size=24).allocate(channels, mapping)
        assert {n: c.slots for n, c in a1.channels.items()} == \
            {n: c.slots for n, c in a2.channels.items()}

    def test_order_options_all_validate(self):
        topo = mesh(3, 2, nis_per_router=1)
        channels, mapping = self._workload(topo)
        for order in ("tightness", "throughput", "input"):
            alloc = _allocator(
                topo, table_size=24,
                options=AllocatorOptions(order=order)).allocate(
                    channels, mapping)
            alloc.validate()

    def test_unknown_order_rejected(self):
        with pytest.raises(ConfigurationError):
            AllocatorOptions(order="random")


class TestIncrementalReconfiguration:
    def test_extend_preserves_existing_reservations(self):
        topo = mesh(2, 2, nis_per_router=1)
        mapping = round_robin([f"ip{i}" for i in range(4)], topo)
        allocator = _allocator(topo)
        first = [ChannelSpec("a", "ip0", "ip1", 50 * MB,
                             application="app1")]
        alloc = allocator.allocate(first, mapping)
        before = alloc.channel("a").slots
        allocator.extend(alloc, [ChannelSpec("b", "ip2", "ip3", 50 * MB,
                                             application="app2")], mapping)
        assert alloc.channel("a").slots == before
        alloc.validate()

    def test_release_application_frees_slots(self):
        topo = mesh(2, 2, nis_per_router=1)
        mapping = round_robin([f"ip{i}" for i in range(4)], topo)
        allocator = _allocator(topo)
        channels = [
            ChannelSpec("a", "ip0", "ip1", 50 * MB, application="app1"),
            ChannelSpec("b", "ip2", "ip3", 50 * MB, application="app2"),
        ]
        alloc = allocator.allocate(channels, mapping)
        released = alloc.release_application("app1")
        assert released == ("a",)
        assert "a" not in alloc.channels
        alloc.validate()
        # The freed slots are reusable.
        allocator.extend(alloc, [ChannelSpec(
            "a2", "ip0", "ip1", 50 * MB, application="app3")], mapping)
        alloc.validate()

    def test_commit_rolls_back_cleanly_on_conflict(self):
        topo = mesh(1, 1, nis_per_router=2)
        mapping = Mapping({"a": "ni0_0_0", "b": "ni0_0_1"})
        allocator = _allocator(topo, table_size=4)
        alloc = allocator.allocate(
            [ChannelSpec("c1", "a", "b", 1 * MB)], mapping)
        taken = alloc.channel("c1")
        clash = ChannelAllocation(
            spec=ChannelSpec("c2", "a", "b", 1 * MB),
            path=taken.path, slots=taken.slots, table_size=4)
        with pytest.raises(AllocationError):
            alloc.commit(clash)
        assert "c2" not in alloc.channels
        alloc.validate()

    def test_refused_commit_keeps_the_text_and_writes_nothing(self):
        """A clash on the third link of four: every link is checked
        before any is written, and the refusal is the per-slot one —
        the lowest clashing slot, in route order."""
        topo = mesh(3, 1, nis_per_router=1)
        allocator = _allocator(topo, table_size=8)
        alloc = Allocation(topo, 8, 500e6, WordFormat())
        held = allocator.shortest_candidates("ni1_0_0", "ni2_0_0")[0]
        # ('r1_0', 'r2_0') carries "a" in slots 1 and 5 (shift 1).
        alloc.commit(ChannelAllocation(ChannelSpec("a", "x", "y", 1 * MB),
                                       held, (0, 4), 8))
        path = allocator.shortest_candidates("ni0_0_0", "ni2_0_0")[0]
        assert path.link_shifts == (0, 1, 2, 3)

        def snapshot():
            return (dict(alloc.link_masks), dict(alloc.channels),
                    alloc.channels_digest)

        before = snapshot()
        clash = ChannelAllocation(ChannelSpec("b", "x", "y", 1 * MB), path,
                                  (3, 7), 8)
        with pytest.raises(AllocationError) as exc:
            alloc.commit(clash)
        assert str(exc.value) == "slot 1 already reserved by 'a'"
        assert (exc.value.channel, exc.value.reason) == ("b", "slot conflict")
        assert snapshot() == before
        alloc.validate()

    @pytest.mark.parametrize("slots", [(1, 2.5), (2.0,), (0, True)])
    def test_a_slot_that_is_not_an_int_is_refused(self, slots):
        """``ChannelAllocation(spec, path, (1, 2.5))`` used to construct,
        quote a fractional wait and fail in ``commit`` with a builtin
        ``TypeError``."""
        topo = mesh(2, 1, nis_per_router=1)
        path = _allocator(topo, table_size=8).shortest_candidates(
            "ni0_0_0", "ni1_0_0")[0]
        with pytest.raises(AllocationError) as exc:
            ChannelAllocation(ChannelSpec("c", "x", "y", 1 * MB), path, slots,
                              8)
        assert str(exc.value) == \
            f"channel 'c' slot {slots[-1]!r} is not an integer"
        assert exc.value.channel == "c"

    @pytest.mark.parametrize("slots, named", [
        ((8,), 8), ((3, 8), 8), ((-1,), -1), ((-2, 9), -2)])
    def test_slot_outside_the_table_is_refused(self, slots, named):
        """Once reduced modulo the table size, committed and validated;
        then refused at the first commit.  Now the record cannot be
        built."""
        topo = mesh(2, 1, nis_per_router=1)
        path = _allocator(topo, table_size=8).shortest_candidates(
            "ni0_0_0", "ni1_0_0")[0]
        with pytest.raises(AllocationError) as exc:
            ChannelAllocation(ChannelSpec("c", "x", "y", 1 * MB), path,
                              slots, 8)
        assert str(exc.value) == \
            f"channel 'c' slot {named} outside table of size 8"
        assert (exc.value.channel, exc.value.reason) == \
            ("c", "slot outside table")

    @pytest.mark.parametrize("placed_in", [4, 16])
    def test_a_record_of_another_table_size_is_refused(self, placed_in):
        """Its link masks were derived modulo another size; ORed in,
        they would name slots this table does not have (or wrap them
        where this table would not)."""
        topo = mesh(2, 1, nis_per_router=1)
        alloc = Allocation(topo, 8, 500e6, WordFormat())
        path = _allocator(topo, table_size=8).shortest_candidates(
            "ni0_0_0", "ni1_0_0")[0]
        with pytest.raises(ConfigurationError) as exc:
            alloc.commit(ChannelAllocation(
                ChannelSpec("c", "x", "y", 1 * MB), path, (1, 3), placed_in))
        assert str(exc.value) == (
            f"channel 'c' was placed in a table of size {placed_in}, "
            f"this allocation's has 8")
        assert not alloc.channels and not any(alloc.link_masks.values())
        assert alloc.channels_digest == 0


class TestAllocationProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 10))
    def test_random_workloads_contention_free(self, seed, n_channels):
        """Any random feasible workload yields a valid, bounded allocation."""
        rng = random.Random(seed)
        topo = mesh(2, 2, nis_per_router=1)
        ips = [f"ip{i}" for i in range(8)]
        mapping = round_robin(ips, topo)
        channels = []
        for i in range(n_channels):
            src, dst = rng.sample(ips, 2)
            while mapping.ni_of(src) == mapping.ni_of(dst):
                src, dst = rng.sample(ips, 2)
            channels.append(ChannelSpec(
                f"c{i}", src, dst, rng.uniform(5, 80) * MB))
        try:
            alloc = _allocator(topo, table_size=16).allocate(
                channels, mapping)
        except AllocationError:
            return  # infeasible draws are acceptable — never wrong answers
        alloc.validate()
        bounds = analyse(alloc)
        for b in bounds.values():
            assert b.meets_throughput

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_release_then_reallocate_is_clean(self, seed):
        """Releasing any subset leaves a consistent, extendable state."""
        rng = random.Random(seed)
        topo = mesh(2, 2, nis_per_router=1)
        ips = [f"ip{i}" for i in range(8)]
        mapping = round_robin(ips, topo)
        channels = []
        for i in range(6):
            src, dst = rng.sample(ips, 2)
            while mapping.ni_of(src) == mapping.ni_of(dst):
                src, dst = rng.sample(ips, 2)
            channels.append(ChannelSpec(f"c{i}", src, dst, 30 * MB))
        allocator = _allocator(topo, table_size=16)
        try:
            alloc = allocator.allocate(channels, mapping)
        except AllocationError:
            return
        victims = rng.sample(sorted(alloc.channels), k=3)
        for name in victims:
            alloc.release(name)
        alloc.validate()
        # Only surviving channels hold slots.
        survivors = alloc.channels.values()
        for key, mask in alloc.link_masks.items():
            for slot in range(16):
                assert bool(mask >> slot & 1) == (Allocation.holder_of(
                    survivors, key, 1 << slot)[1] is not None)


class TestInjectionTable:
    """An NI's slot table is the owner row read off the channel records."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 24),
           size=st.sampled_from((4, 8, 16, 32)))
    def test_row_equals_the_records_slot_by_slot(self, seed, n, size):
        rng = random.Random(seed)
        topo = mesh(2, 2, nis_per_router=2)
        nis = list(topo.nis)
        ctrl = AdmissionController(_allocator(topo, table_size=size))
        allocation = ctrl.allocation
        for index in range(n):
            if allocation.channels and rng.random() < 0.3:
                ctrl.release(rng.choice(sorted(allocation.channels)))
                continue
            src, dst = rng.sample(nis, 2)
            try:
                ctrl.admit(ChannelSpec(f"s{index}", src, dst,
                                       rng.choice((20, 150, 400)) * MB),
                           src, dst)
            except AllocationError:
                pass
        for ni in nis:
            held = allocation.channels_from_ni(ni)
            expected = []
            for slot in range(size):
                owners = [ca.spec.name for ca in held if slot in ca.slots]
                assert len(owners) <= 1
                expected.append(owners[0] if owners else None)
            assert allocation.ni_injection_table(ni) == tuple(expected)

    @pytest.mark.parametrize("name", ["ni9_9_9", "r0_0"])
    def test_a_name_that_is_no_ni_is_refused(self, name):
        allocation = Allocation(mesh(2, 2, nis_per_router=1), 8, 500e6,
                                WordFormat())
        with pytest.raises(ConfigurationError, match=f"no NI '{name}'"):
            allocation.ni_injection_table(name)

    def test_a_slot_two_channels_claim_is_refused(self):
        """``commit`` never lets it happen; a record written around it
        is refused, naming the NI."""
        topo = mesh(1, 1, nis_per_router=3)
        allocation = Allocation(topo, 8, 500e6, WordFormat())
        for name, dest, slots in (("a", "ni0_0_1", (1, 5)),
                                  ("b", "ni0_0_2", (2, 5))):
            allocation.channels[name] = ChannelAllocation(
                ChannelSpec(name, "x", "y", 1.0),
                make_path(topo, "ni0_0_0", ["r0_0"], dest), slots, 8)
        with pytest.raises(AllocationError,
                           match="NI 'ni0_0_0' slot 5 is claimed by both "
                                 "'a' and 'b'"):
            allocation.ni_injection_table("ni0_0_0")


# -- one placement path --------------------------------------------------------

def _placed(fit):
    """``place``'s result as ``(path, slots)``, or ``None``."""
    return None if fit is None else (fit[0].path, fit[0].slots)


def _quoted(spec, path, size, fmt, frequency_hz=500e6):
    """The quote of ``spec`` on ``path``, path by path with no sharing:
    ``slots_for_channel``'s answer or its refusal's reason."""
    try:
        return slots_for_channel(spec, path, size, frequency_hz, fmt)
    except AllocationError as exc:
        return exc.reason


def _meets(spec, path, point):
    """Whether some slots on ``path`` could meet ``spec`` at ``point``."""
    return not isinstance(_quoted(spec, path, point.table_size, point.fmt,
                                  point.frequency_hz), str)


def _reference_fit(allocation, spec, paths, choose):
    """The placement loop before ``admit`` and ``extend`` shared one,
    kept as their oracle: free injection slots are read off the link
    tables one slot at a time, never through a rotated mask.  Returns
    ``((path, slots) | None, per-path reasons)``."""
    size = allocation.table_size
    failures = []
    for path in paths:
        try:
            n, gap = slots_for_channel(spec, path, size,
                                       allocation.frequency_hz,
                                       allocation.fmt)
        except AllocationError as exc:
            failures.append(f"{path!r}: {exc.reason}")
            continue
        free = {slot for slot in range(size)
                if not any(allocation.link_masks[link.key]
                           >> shifted(slot, shift, size) & 1
                           for link, shift in zip(path.links,
                                                  path.link_shifts))}
        if len(free) < n:
            failures.append(f"{path!r}: {len(free)} free slots < {n} needed")
            continue
        slots = choose(slots_to_mask(free, size), n, size, max_gap=gap)
        if slots is None:
            failures.append(
                f"{path!r}: free slots cannot satisfy gap <= {gap}")
            continue
        return (path, slots), failures
    return None, failures


class TestOnePlacementPath:
    """``admit``, ``extend`` and ``rebuild_excluding`` all place through
    ``place``; only the candidates and the chooser differ."""

    SIZE = 8

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(4, 28),
           fail=st.booleans())
    def test_admit_and_extend_commit_what_place_places(
            self, seed, n, fail):
        rng = random.Random(seed)
        topo = mesh(3, 2, nis_per_router=1)
        nis = list(topo.nis)
        mapping = Mapping({ni: ni for ni in nis})
        allocator = _allocator(topo, table_size=self.SIZE)
        ctrl = AdmissionController(allocator)
        online, offline = ctrl.allocation, Allocation(
            topo, self.SIZE, 500e6, WordFormat())
        if fail:
            dead = rng.choice(sorted(
                key for key in topo.iter_link_keys()
                if key[0].startswith("r") and key[1].startswith("r")))
            for allocation in (online, offline):
                allocation.set_failed(failed_links=[dead])
        for index in range(n):
            src, dst = rng.sample(nis, 2)
            spec = ChannelSpec(
                f"s{index}", src, dst, rng.choice((20, 150, 300, 500)) * MB,
                max_latency_ns=rng.choice((None, 20.0, 40.0, 80.0, 200.0)))
            self._check_admit(ctrl, spec, src, dst)
            self._check_extend(allocator, offline, spec, mapping)
        online.validate()
        offline.validate()

    def _check_admit(self, ctrl, spec, src, dst):
        allocator, allocation = ctrl.allocator, ctrl.allocation
        paths = allocator.shortest_candidates(src, dst)
        usable = [p for p in paths
                  if allocation.excluded_links.isdisjoint(p.link_keys())]
        placed = _placed(place(allocation.link_masks, spec, usable,
                               QuoteMemo(spec, allocator),
                               choose_slots_fast, self.SIZE))
        reference, _ = _reference_fit(allocation, spec, usable,
                                      choose_slots_fast)
        meeting = [p for p in paths if _meets(spec, p, allocator)]
        try:
            ca = ctrl.admit(spec, src, dst)
        except AllocationError as exc:
            assert placed is None and reference is None
            assert exc.reason == (
                "no route can meet the requirements" if not meeting
                else "every candidate route crosses failed fabric"
                if not any(allocation.excluded_links.isdisjoint(
                    p.link_keys()) for p in meeting)
                else "no candidate route has capacity")
        else:
            assert (ca.path, ca.slots) == placed == reference
            assert allocation.channels[spec.name] is ca

    def _check_extend(self, allocator, allocation, spec, mapping):
        try:
            paths = allocator._candidates(
                spec, mapping, allocation.excluded_links,
                allocation.link_masks)
        except AllocationError as exc:
            with pytest.raises(AllocationError) as refused:
                allocator.extend(allocation, [spec], mapping)
            assert refused.value.reason == exc.reason
            return
        reasons: list[str] = []
        placed = _placed(place(
            allocation.link_masks, spec, paths, QuoteMemo(spec, allocator),
            spread_slots, self.SIZE, reasons))
        reference, reference_reasons = _reference_fit(
            allocation, spec, paths, spread_slots)
        assert reasons == reference_reasons
        try:
            allocator.extend(allocation, [spec], mapping)
        except AllocationError as exc:
            assert placed is None and reference is None
            assert exc.reason == "; ".join(reference_reasons)
        else:
            ca = allocation.channels[spec.name]
            assert (ca.path, ca.slots) == placed == reference

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           frequency_hz=st.sampled_from((123.456e6, 333e6, 500e6, 1e9)),
           size=st.sampled_from((8, 16, 32)))
    def test_no_worse_than_agrees_with_both_float_formulas(
            self, data, frequency_hz, size):
        """The integer predicate against the two tolerance formulas it
        replaced: ``rebuild_excluding``'s (slot count, latency bound)
        and the session service's (throughput, latency bound)."""
        fmt = WordFormat()
        topo = mesh(3, 3, nis_per_router=1, pipeline_stages=1)
        paths = k_shortest_paths(topo, "ni0_0_0", "ni2_2_0", 4) + \
            k_shortest_paths(topo, "ni0_0_0", "ni1_0_0", 4)
        slot_sets = st.sets(st.integers(0, size - 1), min_size=1)
        spec = ChannelSpec("c", "a", "b", 1 * MB)
        old, new = (
            ChannelAllocation(spec, data.draw(st.sampled_from(paths)),
                              tuple(sorted(data.draw(slot_sets))), size)
            for _ in range(2))

        def latency(ca):
            return latency_bound_ns(ca.worst_wait_slots(), ca.path,
                                    frequency_hz, fmt)

        rebuild_formula = (new.n_slots >= old.n_slots
                           and latency(new) <= latency(old) * (1 + 1e-9))
        old_b, new_b = (channel_bounds(ca, frequency_hz, fmt)
                        for ca in (old, new))
        relocate_formula = (
            new_b.throughput_bytes_per_s
            >= old_b.throughput_bytes_per_s * (1 - 1e-9)
            and new_b.latency_ns <= old_b.latency_ns * (1 + 1e-9))
        assert new.no_worse_than(old) \
            == rebuild_formula == relocate_formula


# -- route geometry is computed once -------------------------------------------

BUILDERS = st.one_of(
    st.builds(lambda c, r, n, s: mesh(c, r, nis_per_router=n,
                                      pipeline_stages=s),
              st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
              st.integers(0, 2)),
    st.builds(lambda n, s: concentrated_mesh(2, 2, nis_per_router=n,
                                             pipeline_stages=s),
              st.integers(2, 3), st.integers(0, 2)),
    st.builds(lambda n, s: ring(n, pipeline_stages=s),
              st.integers(3, 8), st.integers(0, 2)),
    st.builds(lambda s: torus(3, 3, pipeline_stages=s), st.integers(0, 2)),
    # Up to nine routers in a row: the far pairs exceed the header's
    # seven hops and are filtered out.
    st.builds(lambda n, k, s: mesh(n, 1, nis_per_router=k, pipeline_stages=s),
              st.integers(2, 9), st.integers(1, 2), st.integers(0, 2)),
)


class TestRouteGeometryOnce:
    """One k-shortest search per router pair and one hop tuple per path
    serve every NI pair, every requirement and every allocator over the
    topology — with the answers the per-call library search and the
    per-quote arithmetic gave."""

    SIZE = 8

    @settings(max_examples=30, deadline=None)
    @given(topo=BUILDERS, seed=st.integers(0, 10_000))
    def test_candidates_and_quotes_equal_the_per_call_derivation(
            self, topo, seed):
        rng = random.Random(seed)
        nis = list(topo.nis)
        # Stages on NI links too: they shift every later hop of a path
        # but never reach the router graph.
        for ni in rng.sample(nis, len(nis) // 2):
            router = topo.attached_router(ni)
            topo.set_pipeline_stages(ni, router, rng.randint(1, 3))
            topo.set_pipeline_stages(router, ni, rng.randint(0, 2))
        allocator = _allocator(topo, table_size=self.SIZE)
        fmt = allocator.fmt
        pairs = [(a, b) for a in nis for b in nis if a != b]
        cached = {pair: allocator.shortest_candidates(*pair)
                  for pair in pairs}
        allocation = Allocation(topo, self.SIZE, 500e6, fmt)
        for index, (src, dst) in enumerate(pairs):
            # Searched per call, through networkx, on a graph rebuilt
            # from a sort of every link.
            reference = [
                p for p in library_k_shortest_paths(topo, src, dst,
                                                    PATH_CANDIDATES)
                if len(p.out_ports) <= fmt.max_hops]
            paths = cached[src, dst]
            assert [(p.source, p.dest, p.routers, p.links, p.link_shifts)
                    for p in paths] == [
                (src, dst, p.routers, p.links, p.link_shifts)
                for p in reference]
            assert allocator.shortest_candidates(src, dst) is paths
            spec = ChannelSpec(
                f"c{index}", src, dst, rng.uniform(5, 400) * MB,
                max_latency_ns=rng.choice((None, rng.uniform(15, 400))))
            quotes = allocator.route_quotes(spec)
            assert [quotes.quote(p) for p in paths] == [
                _quoted(spec, p, self.SIZE, fmt) for p in reference]
            # Unreduced shifts (pipelined paths outrun the 8-slot table)
            # place exactly what a slot-by-slot walk places.
            fit = place(allocation.link_masks, spec, paths, quotes,
                        choose_slots_fast, self.SIZE)
            walked, _ = _reference_fit(allocation, spec, reference,
                                       choose_slots_fast)
            assert _placed(fit) == walked
            if fit is not None:
                ca = fit[0]
                # The record's link masks and fingerprint, derived once
                # at construction, against the per-slot derivation.
                assert ca.link_occupancy == tuple(
                    (link.key, slots_to_mask(
                        {shifted(slot, shift, self.SIZE)
                         for slot in ca.slots}, self.SIZE))
                    for link, shift in zip(ca.path.links,
                                           ca.path.link_shifts))
                assert ca.fingerprint == hash(
                    (spec.name, ca.slots, ca.path.link_keys()))
                allocation.commit(ca)
        allocation.validate()

    def test_jittered_churn_searches_once_per_router_pair(self):
        """Count guard: searches are bounded by router pairs and quote
        memos by requirements, while the NI-pair paths assembled number
        in the hundreds, and a second service over the same allocator
        searches and quotes nothing."""
        topo = concentrated_mesh(4, 3, nis_per_router=4)
        rng = random.Random(19)
        classes = tuple(
            QosClass(f"{base.name}{index}",
                     throughput_mb_s=(base.throughput_mb_s
                                      * rng.uniform(0.7, 1.3)),
                     max_latency_ns=(None if base.max_latency_ns is None
                                     else base.max_latency_ns
                                     * rng.uniform(1.0, 1.3)),
                     weight=base.weight)
            for index in range(64) for base in DEFAULT_CLASSES)
        events = ChurnWorkload(
            ChurnSpec(n_sessions=1000, arrival_rate_per_s=18000.0,
                      classes=classes), topo, 19).events()
        assert len(events) == 2000
        tel = Telemetry()
        allocator = SlotAllocator(topo, table_size=32, frequency_hz=500e6)
        allocator.set_telemetry(tel)

        def serve():
            service = SessionService(topo, allocator=allocator,
                                     record_events=False)
            assert service.run(events).invariant["ok"]
            return service.admission

        def searches():
            return tel.value("allocator.kshortest_expansions")

        first = serve()
        requirements = {(q.throughput_mb_s, q.max_latency_ns)
                        for q in classes}
        assert 0 < first.path_misses == len(allocator.quote_memo) \
            <= len(requirements)
        assert first.path_hits + first.path_misses \
            == first.admits + first.rejects == 1000
        assembled = tel.value("allocator.kpath_cache", outcome="miss")
        assert 0 < searches() <= len(topo.routers) ** 2 < assembled
        before = searches()
        second = serve()
        assert second.path_misses == 0
        assert searches() == before
        assert tel.value("allocator.kpath_cache",
                         outcome="miss") == assembled

    def test_second_allocator_over_one_topology_searches_nothing(
            self, monkeypatch):
        """Geometry lives with the topology's revision: any allocator
        built over it later — another frequency, another table size —
        finds the routes and paths the first one left, and still quotes
        at its own operating point."""
        searched = []

        def counting(topo, *args, **kwargs):
            searched.append(args)
            return k_shortest_routes(topo, *args, **kwargs)

        monkeypatch.setattr("repro.core.allocation.k_shortest_routes",
                            counting)
        topo = concentrated_mesh(2, 2, nis_per_router=2)
        pairs = [(a, b) for a in topo.nis for b in topo.nis if a != b]
        tel = Telemetry()
        first = _allocator(topo)
        first.set_telemetry(tel)
        held = {pair: first.shortest_candidates(*pair) for pair in pairs}
        assert 0 < len(searched) <= len(topo.routers) ** 2
        expansions = tel.value("allocator.kshortest_expansions")
        assert expansions == len(searched)
        del searched[:]
        spec = ChannelSpec("c", "a", "b", 120 * MB, max_latency_ns=300.0)
        second = _allocator(topo, table_size=32, frequency_hz=250e6)
        second.set_telemetry(tel)
        for pair in pairs:
            assert second.shortest_candidates(*pair) is held[pair]
            assert second.shortest_candidates(*pair) == \
                tuple(k_shortest_paths(topo, *pair, PATH_CANDIDATES))
            ours, theirs = ([a.route_quotes(spec).quote(p)
                             for p in held[pair]] for a in (second, first))
            assert ours != theirs
        assert searched == []
        assert tel.value("allocator.kshortest_expansions") == expansions
        assert tel.value("allocator.kpath_cache",
                         outcome="miss") == len(pairs)

    def test_hop_budgets_keep_their_own_candidates(self):
        """Paths are filtered by the header's hop budget, so two formats
        over one topology must not read each other's."""
        topo = mesh(9, 1, nis_per_router=1)
        narrow = _allocator(topo)
        wide = _allocator(topo, fmt=WordFormat(data_width=64))
        assert (narrow.fmt.max_hops, wide.fmt.max_hops) == (7, 18)
        far = ("ni0_0_0", "ni8_0_0")
        near = ("ni0_0_0", "ni6_0_0")
        assert narrow.shortest_candidates(*far) == ()
        reached, = wide.shortest_candidates(*far)
        assert len(reached.out_ports) == 9
        assert narrow.shortest_candidates(*far) == ()
        assert wide.shortest_candidates(*near) == \
            narrow.shortest_candidates(*near) != ()
        assert _allocator(topo).shortest_candidates(*far) == ()
        assert _allocator(topo, fmt=WordFormat(data_width=64)
                          ).shortest_candidates(*far) == (reached,)

    def test_every_structural_write_starts_a_new_store(self):
        """After each writer a new allocator sees what one over a
        pickled copy of the topology (which rebuilds its geometry cold)
        sees, and the allocator from before the write is refused."""
        topo = mesh(2, 2, nis_per_router=1)
        mapping = Mapping({"a": "ni0_0_0", "b": "ni1_1_0"})
        spec = ChannelSpec("c", "a", "b", 50 * MB)
        pairs = [(a, b) for a in topo.nis for b in topo.nis if a != b]

        def candidates(over):
            allocator = _allocator(over)
            return allocator, {
                pair: [(p.routers, p.links, p.link_shifts)
                       for p in allocator.shortest_candidates(*pair)]
                for pair in pairs}

        def hub():
            topo.add_router("hub")
            topo.connect_bidir("r0_0", "hub")
            topo.connect_bidir("hub", "r1_1")

        diagonal = Link("r0_1", "r1_0", src_port=3, dst_port=3,
                        pipeline_stages=1)
        seen = []
        previous, _ = candidates(topo)
        for write in (hub,
                      lambda: topo.connect("r1_0", "r0_1"),
                      lambda: topo.set_pipeline_stages("r0_0", "hub", 2),
                      lambda: topo.connect("r0_1", "r1_0",
                                           pipeline_stages=1)):
            geometry = topo.geometry()
            write()
            assert topo.geometry() is not geometry
            with pytest.raises(ConfigurationError,
                               match="modified after this allocator"):
                previous.allocate([spec], mapping)
            previous, found = candidates(topo)
            assert found == candidates(
                pickle.loads(pickle.dumps(topo)))[1]
            assert found not in seen
            seen.append(found)
            previous.allocate([spec], mapping).validate()
        assert topo.link("r0_1", "r1_0") == diagonal

    def test_edited_topology_is_refused_not_quoted_stale(self):
        """An allocator's routes describe the fabric it was built on: a
        later edit is refused at ``extend`` and at controller
        construction instead of being scheduled with the old shifts."""
        topo = mesh(2, 1, nis_per_router=1)
        mapping = Mapping({"a": "ni0_0_0", "b": "ni1_0_0"})
        spec = ChannelSpec("c", "a", "b", 50 * MB)
        allocator = _allocator(topo)
        held, = allocator.shortest_candidates("ni0_0_0", "ni1_0_0")
        assert held.link_shifts == (0, 1, 2)
        allocator.allocate([spec], mapping).validate()
        topo.set_pipeline_stages("r0_0", "r1_0", 2)
        for use in (lambda: allocator.allocate([spec], mapping),
                    lambda: AdmissionController(allocator)):
            with pytest.raises(ConfigurationError,
                               match="modified after this allocator"):
                use()
        rebuilt = _allocator(topo)
        placed = rebuilt.allocate([spec], mapping).channel("c")
        assert placed.path.link_shifts == (0, 1, 4)
        AdmissionController(rebuilt)


class TestSharedRouteFacts:
    """A route's facts are derived once, when its :class:`Path` is built,
    and shared: a path holds no per-instance memo, its link keys are the
    links' own key tuples, and every NI pair over one router pair reads
    the route's one router tuple."""

    @staticmethod
    def _staged(topo, rng):
        """``topo`` with random pipeline stages on every link, router
        and NI links alike."""
        for key in list(topo.iter_link_keys()):
            topo.set_pipeline_stages(*key, rng.randint(0, 3))
        return topo

    @staticmethod
    def _all_paths(allocator):
        nis = allocator.topology.nis
        return [path for a in nis for b in nis if a != b
                for path in allocator.shortest_candidates(a, b)]

    def test_a_path_has_no_instance_dict(self):
        path = make_path(mesh(2, 1), "ni0_0_0", ["r0_0", "r1_0"], "ni1_0_0")
        assert not hasattr(path, "__dict__")

    @settings(max_examples=25, deadline=None)
    @given(topo=BUILDERS, seed=st.integers(0, 10_000))
    def test_facts_follow_the_shift_rule_from_shared_keys(self, topo, seed):
        """Shift rule (Sections III and V), recomputed in closed form: a
        flit is on link ``i`` after the ``i`` routers before it and every
        stage on links ``0 .. i-1``; it enters the destination NI after
        all routers and every stage of the route."""
        topo = self._staged(topo, random.Random(seed))
        allocator = _allocator(topo)
        by_router_pair = {}
        for path in self._all_paths(allocator):
            stages = [link.pipeline_stages for link in path.links]
            shifts = tuple(i + sum(stages[:i])
                           for i in range(len(path.links)))
            assert path.link_shifts == shifts
            assert path.arrival_shift == len(path.routers) + sum(stages)
            assert path.traversal_slots == path.arrival_shift + 1
            assert path.out_ports == tuple(
                link.src_port for link in path.links[1:])
            for i, key in enumerate(path.link_keys()):
                assert key is topo.link(*key).key is path.links[i].key
            pair = (path.routers[0], path.routers[-1])
            routes = by_router_pair.setdefault(pair, {})
            assert routes.setdefault(path.routers, path.routers) \
                is path.routers

    @pytest.mark.parametrize("round_trip", [
        lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy],
        ids=["pickle", "deepcopy"])
    def test_round_trips_keep_every_fact(self, round_trip):
        topo = self._staged(mesh(3, 2, nis_per_router=2), random.Random(5))
        paths = self._all_paths(_allocator(topo))
        copied_topo, copied_paths = round_trip((topo, paths))
        assert copied_paths == paths
        for before, after in zip(paths, copied_paths):
            assert hash(after) == hash(before)
            for fact in ("source", "dest", "routers", "links",
                         "link_shifts", "arrival_shift",
                         "out_ports", "traversal_slots"):
                assert getattr(after, fact) == getattr(before, fact)
            assert after.link_keys() == before.link_keys()
            for key, link in zip(after.link_keys(), after.links):
                assert key is link.key
        assert sorted(copied_topo.iter_link_keys()) == \
            sorted(topo.iter_link_keys())
        for key in topo.iter_link_keys():
            before, after = topo.link(*key), copied_topo.link(*key)
            assert after == before and hash(after) == hash(before)
            assert after.key == key
        rebuilt = self._all_paths(_allocator(copied_topo))
        assert rebuilt == paths
        assert [p.link_shifts for p in rebuilt] == \
            [p.link_shifts for p in paths]


# -- admission pays only for what it places ------------------------------------

def _outcome(check) -> str | None:
    """``None`` when ``check()`` passes, else its ``AllocationError``."""
    try:
        check()
    except AllocationError as exc:
        return str(exc)
    return None


class TestFastPathsHoldToTheirOracles:
    """The quote memo against the per-path arithmetic, and
    ``validate``'s mask pass against the per-slot derivation that backs
    it."""

    @settings(max_examples=60, deadline=None)
    @given(topo=BUILDERS, data=st.data())
    def test_the_memo_equals_the_per_path_arithmetic(self, topo, data):
        """Every memo entry is what ``slots_for_channel`` gives on each
        path that reads it, or that call's refusal reason; and paths of
        equal traversal time get one answer from it — the fact a memo
        keyed by traversal time, over every NI pair, rests on."""
        nis = sorted(topo.nis)
        assume(len(nis) >= 2)
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        # Random stages on every link, router and NI links alike.
        for key in sorted(topo.iter_link_keys()):
            topo.set_pipeline_stages(*key, rng.randint(0, 3))
        size = data.draw(st.sampled_from((8, 16)))
        allocator = _allocator(topo, table_size=size)
        fmt = allocator.fmt
        pairs = [(a, b) for a in nis for b in nis if a != b]
        paths = [path for pair in rng.sample(pairs, min(8, len(pairs)))
                 for path in allocator.shortest_candidates(*pair)]
        requirements = data.draw(st.lists(st.tuples(
            # 5 000 MB/s exceeds every table: refused on every route.
            st.sampled_from((0.0, 5.0, 60.0, 300.0, 5000.0)),
            # Below about 18 ns no route's traversal fits: refused too.
            st.one_of(st.none(), st.floats(1.0, 300.0))),
            min_size=1, max_size=4))
        for index, (rate, latency) in enumerate(requirements):
            spec = ChannelSpec(f"c{index}", "a", "b", rate * MB,
                               max_latency_ns=latency)
            memo = allocator.route_quotes(spec)
            by_traversal = {}
            for path in paths:
                expected = _quoted(spec, path, size, fmt)
                assert memo.quote(path) == expected
                assert by_traversal.setdefault(
                    path.traversal_slots, expected) == expected
            assert memo == by_traversal
            # Another channel of the requirement reads the same memo.
            assert allocator.route_quotes(ChannelSpec(
                "other", "x", "y", rate * MB, max_latency_ns=latency)) is memo

        calls: list[int] = []

        def counting(spec, path, *rest):
            calls.append(path.traversal_slots)
            return slots_for_channel(spec, path, *rest)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.core.placement.slots_for_channel",
                          counting)
            fresh = QuoteMemo(spec, allocator)
            for path in paths + paths:
                fresh.quote(path)
        # Once per traversal time, however many paths share it.
        assert sorted(calls) == sorted({p.traversal_slots for p in paths})

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_fast_validate_raises_iff_the_per_slot_derivation_does(
            self, data):
        size = 8
        topo = mesh(2, 2, nis_per_router=2)
        ctrl = AdmissionController(_allocator(topo, table_size=size))
        allocation, allocator = ctrl.allocation, ctrl.allocator
        ends = st.lists(st.sampled_from(sorted(topo.nis)), min_size=2,
                        max_size=2, unique=True)
        for index in range(data.draw(st.integers(0, 10))):
            src, dst = data.draw(ends)
            rate = data.draw(st.sampled_from((20, 100, 200))) * MB
            try:
                ctrl.admit(ChannelSpec(f"s{index}", src, dst, rate), src, dst)
            except AllocationError:
                pass
        masks = allocation.link_masks
        # Writes that bypass commit/release.  (A wrong owner name on a
        # correctly set bit cannot be written: a mask names nobody.)
        for _ in range(data.draw(st.integers(0, 3))):
            write = data.draw(st.sampled_from(
                ("reserve", "release", "add", "drop", "link")))
            key = data.draw(st.sampled_from(sorted(masks)))
            held = [s for s in range(size) if masks[key] >> s & 1]
            free = [s for s in range(size) if not masks[key] >> s & 1]
            names = sorted(allocation.channels)
            if write == "reserve" and free:
                masks[key] |= 1 << data.draw(st.sampled_from(free))
            elif write == "release" and held:
                masks[key] &= ~(1 << data.draw(st.sampled_from(held)))
            elif write == "add":
                src, dst = data.draw(ends)
                name = data.draw(st.sampled_from(names + ["ghost"]))
                ca = ChannelAllocation(
                    ChannelSpec(name, src, dst, 1 * MB),
                    allocator.shortest_candidates(src, dst)[0],
                    tuple(sorted(data.draw(st.sets(
                        st.integers(0, size - 1), min_size=1, max_size=3)))),
                    size)
                allocation.channels[
                    data.draw(st.sampled_from((name, "alias")))] = ca
                if data.draw(st.booleans()):  # and into its link masks
                    for link, mask in ca.link_occupancy:
                        masks[link] = masks.get(link, 0) | mask
            elif write == "drop" and names:
                del allocation.channels[data.draw(st.sampled_from(names))]
            elif write == "link":  # a link the topology lacks, or loses
                if data.draw(st.booleans()):
                    masks[("ghost", key[1])] = 0
                else:
                    del masks[key]
        derived = _outcome(allocation._derive_per_slot)
        assert _outcome(allocation.validate) == derived
        assert allocation._masks_agree() == (derived is None)
