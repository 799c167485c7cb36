"""Tests that tamper with the allocation under the composability checker.

The checker settles a clean transition in O(1) (an XOR digest folded at
``Allocation.commit`` / ``release``); these tests pin down what that
must still catch, when, and that the full rescan stays off the
per-event path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allocation import SlotAllocator
from repro.core.exceptions import AllocationError, ConfigurationError
from repro.core.placement import ChannelAllocation
from repro.core.slot_table import shifted
from repro.service import (DEFAULT_CLASSES, AdmissionController, ChurnSpec,
                           ChurnWorkload, CompositionInvariantChecker,
                           SessionService)
from repro.topology.builders import concentrated_mesh, mesh

NIS = ("ni0_0_0", "ni0_0_1", "ni1_0_0", "ni1_1_0", "ni0_1_1", "ni1_1_1")


@pytest.fixture(scope="module")
def small_mesh():
    return mesh(2, 2, nis_per_router=2)


@pytest.fixture(scope="module")
def sec7_mesh():
    return concentrated_mesh(4, 3, nis_per_router=4)


def _allocator(topology):
    return SlotAllocator(topology, table_size=32, frequency_hz=500e6)


def spec_of(name: str, index: int, qos_index: int = 2):
    src, dst = NIS[index % len(NIS)], NIS[(index + 1) % len(NIS)]
    return DEFAULT_CLASSES[qos_index].channel_spec(name, src, dst), src, dst


def checked_controller(topology, *, validate_every=512, running=3):
    """A controller with ``running`` admitted sessions and a checker
    that has seen each of them."""
    ctrl = AdmissionController(
        SlotAllocator(topology, table_size=16, frequency_hz=500e6))
    checker = CompositionInvariantChecker(ctrl.allocation,
                                          validate_every=validate_every)
    for index in range(running):
        ctrl.admit(*spec_of(f"s{index}", index))
        assert checker.check_transition(f"s{index}")
    return ctrl, checker


def free_injection_slots(allocation, path) -> tuple[int, ...]:
    """Injection slots free on every link of ``path``, read off the
    link tables one slot at a time."""
    size = allocation.table_size
    return tuple(
        slot for slot in range(size)
        if not any(allocation.link_masks[link.key]
                   >> shifted(slot, shift, size) & 1
                   for link, shift in zip(path.links, path.link_shifts)))


def moved(ctrl, ca: ChannelAllocation) -> ChannelAllocation:
    """``ca`` on the same route with one slot changed (``ca`` released)."""
    free = free_injection_slots(ctrl.allocation, ca.path)
    spare = next(slot for slot in free if slot not in ca.slots)
    return ChannelAllocation(
        spec=ca.spec, path=ca.path,
        slots=tuple(sorted((*ca.slots[1:], spare))),
        table_size=ca.table_size)


# -- (a) tampering through commit/release: reported on that transition -------

def tamper_replace(ctrl):
    ca = ctrl.allocation.release("s0")
    ctrl.allocation.commit(moved(ctrl, ca))
    return "disturbed running session 's0'"


def tamper_drop(ctrl):
    ctrl.allocation.release("s1")
    return "disturbed running session 's1'"


def tamper_add(ctrl):
    ctrl.admit(*spec_of("ghost", 4))
    return "materialised unexpected session 'ghost'"


@pytest.mark.parametrize("tamper",
                         [tamper_replace, tamper_drop, tamper_add])
def test_chokepoint_tampering_reported_on_that_transition(small_mesh,
                                                          tamper):
    ctrl, checker = checked_controller(small_mesh)
    ctrl.admit(*spec_of("new", 5))
    victim_message = tamper(ctrl)
    assert checker.check_transition("new") is False
    assert checker.violations == [f"transition on 'new' {victim_message}"]
    assert not checker.ok


def test_equal_but_replaced_record_is_not_a_false_alarm(small_mesh):
    ctrl, checker = checked_controller(small_mesh)
    ca = ctrl.allocation.release("s0")
    ctrl.allocation.commit(
        ChannelAllocation(spec=ca.spec, path=ca.path, slots=ca.slots,
                          table_size=ca.table_size))
    ctrl.admit(*spec_of("new", 5))
    assert checker.check_transition("new") is True
    assert checker.final_check()["ok"]


def test_healed_victim_stops_being_reported(small_mesh):
    """A disturbed session is expected as it was until its own next
    transition; closing it brings the digests back in step."""
    ctrl, checker = checked_controller(small_mesh)
    tamper_replace(ctrl)
    assert checker.check_transition("s2") is False
    ctrl.release("s0")
    assert checker.check_transition("s0") is True
    assert len(checker.violations) == 1


# -- (b) writes that bypass commit/release: the backstop ---------------------

def bypass_replace(ctrl):
    ca = ctrl.allocation.channels["s0"]
    other = ctrl.allocation.channels["s1"]
    ctrl.allocation.channels["s0"] = ChannelAllocation(
        spec=ca.spec, path=other.path, slots=other.slots,
        table_size=ca.table_size)
    return "disturbed running session 's0'"


def corrupt_table(ctrl):
    key = ctrl.allocation.channels["s0"].path.link_keys()[0]
    masks = ctrl.allocation.link_masks
    masks[key] |= (masks[key] + 1) & ~masks[key]  # the lowest free slot
    return "full validation failed"


@pytest.mark.parametrize("write", [bypass_replace, corrupt_table])
def test_bypassing_write_caught_by_next_cadence_boundary(small_mesh, write):
    ctrl, checker = checked_controller(small_mesh, validate_every=4)
    # running=3 left one transition before the first boundary.
    assert checker.check_transition("nobody") is True
    assert checker.full_validations == 1
    message = write(ctrl)
    verdicts = [checker.check_transition("nobody") for _ in range(4)]
    assert verdicts == [True, True, True, False]
    assert checker.full_validations == 2
    assert any(message in violation for violation in checker.violations)


@pytest.mark.parametrize("every", [0, float("nan"), 2.5, float("inf")])
def test_a_cadence_that_is_no_whole_count_is_refused(small_mesh, every):
    """``nan`` used to turn the backstop off (no comparison with it
    holds) and ``2.5`` to be accepted."""
    allocation = AdmissionController(
        SlotAllocator(small_mesh, table_size=16, frequency_hz=500e6)
    ).allocation
    with pytest.raises(ConfigurationError,
                       match="validate_every must be"):
        CompositionInvariantChecker(allocation, validate_every=every)


@pytest.mark.parametrize("write", [bypass_replace, corrupt_table])
def test_bypassing_write_always_caught_by_final_check(small_mesh, write):
    ctrl, checker = checked_controller(small_mesh, validate_every=10_000)
    message = write(ctrl)
    assert checker.check_transition("nobody") is True
    verdict = checker.final_check()
    assert verdict["ok"] is False
    assert any(message in violation for violation in verdict["violations"])


def test_bypassing_add_or_drop_shows_in_the_count_at_once(small_mesh):
    ctrl, checker = checked_controller(small_mesh, validate_every=10_000)
    del ctrl.allocation.channels["s1"]
    assert checker.check_transition("nobody") is False
    assert "disturbed running session 's1'" in checker.violations[0]


def test_undone_bypass_leaves_digest_out_of_step(small_mesh):
    """A direct write removed again through ``release`` leaves equal
    records and unequal digests; that is reported, not silently slow."""
    ctrl, checker = checked_controller(small_mesh, validate_every=10_000)
    spec, src, dst = spec_of("ghost", 4)
    path = ctrl.allocator.shortest_candidates(src, dst)[0]
    free = free_injection_slots(ctrl.allocation, path)
    ghost = ChannelAllocation(spec=spec, path=path, slots=free[:1],
                              table_size=16)
    ctrl.allocation.channels["ghost"] = ghost
    for key, mask in ghost.link_occupancy:
        ctrl.allocation.link_masks[key] |= mask
    ctrl.allocation.release("ghost")
    assert checker.check_transition("nobody") is False
    assert "out of step" in checker.violations[0]


# -- (c) differential: O(1) verdict == reference full rescan ------------------

class ReferenceChecker:
    """The O(active) per-transition rescan the digest replaced."""

    def __init__(self, allocation):
        self.allocation = allocation
        self.expected = dict(allocation.channels)
        self.violations: list[str] = []

    def check_transition(self, changed: str) -> bool:
        actual = self.allocation.channels
        clean = True
        for name, expected_ca in self.expected.items():
            if name == changed:
                continue
            current = actual.get(name)
            if (current is None or current.slots != expected_ca.slots
                    or current.path.link_keys()
                    != expected_ca.path.link_keys()):
                clean = False
                self.violations.append(
                    f"transition on {changed!r} disturbed running "
                    f"session {name!r}")
        if len(actual) - (changed in actual) \
                != len(self.expected) - (changed in self.expected):
            for name in actual:
                if name != changed and name not in self.expected:
                    clean = False
                    self.violations.append(
                        f"transition on {changed!r} materialised "
                        f"unexpected session {name!r}")
        if changed in actual:
            self.expected[changed] = actual[changed]
        else:
            self.expected.pop(changed, None)
        return clean


STEP = st.tuples(st.integers(0, 7),                 # session acted on
                 st.sampled_from(["none", "none", "none",
                                  "drop", "add", "replace"]),
                 st.integers(0, 7),                 # session tampered with
                 st.integers(0, 3))                 # QoS class of new records


@settings(max_examples=60, deadline=None)
@given(st.lists(STEP, min_size=1, max_size=40))
def test_digest_verdict_equals_reference_rescan(steps):
    ctrl = AdmissionController(SlotAllocator(
        mesh(2, 2, nis_per_router=2), table_size=16, frequency_hz=500e6))
    allocation = ctrl.allocation
    checker = CompositionInvariantChecker(allocation)
    reference = ReferenceChecker(allocation)

    def try_admit(index, qos_index):
        try:
            ctrl.admit(*spec_of(f"s{index}", index, qos_index))
        except AllocationError:
            pass

    for index, tamper, other, qos_index in steps:
        changed = f"s{index}"
        if changed in allocation.channels:
            ctrl.release(changed)
        else:
            try_admit(index, qos_index)
        victim = f"s{other}"
        if other != index and tamper != "none":
            held = victim in allocation.channels
            if held and tamper in ("drop", "replace"):
                allocation.release(victim)
            if (held and tamper == "replace") \
                    or (not held and tamper == "add"):
                try_admit(other, qos_index)
        assert (checker.check_transition(changed)
                == reference.check_transition(changed))
    assert checker.violations == reference.violations
    assert checker.final_check()["ok"] == (not reference.violations)


# -- (d) the rescan cannot creep back into the per-event path -----------------

def test_records_compared_scale_with_validations_not_events(sec7_mesh):
    events = ChurnWorkload(
        ChurnSpec(n_sessions=1000, arrival_rate_per_s=18000.0),
        sec7_mesh, 7).events()
    assert len(events) == 2000
    service = SessionService(sec7_mesh, allocator=_allocator(sec7_mesh),
                             record_events=False)
    report = service.run(events)
    checker = service.checker
    assert report.invariant["ok"]
    assert checker.transitions_checked > 1500
    assert report.totals["peak_active"] > 100
    assert checker.rescans == checker.transitions_checked // 512
    assert checker.records_compared <= (
        (checker.full_validations + 1) * report.totals["peak_active"])


# -- (e) route candidates are bound once per allocator ------------------------

def test_second_service_over_one_allocator_starts_warm(sec7_mesh):
    events = ChurnWorkload(ChurnSpec(n_sessions=150), sec7_mesh, 3).events()

    def serve(allocator=None):
        service = SessionService(
            sec7_mesh, allocator=allocator or _allocator(sec7_mesh))
        return service.run(events), service.admission

    shared = _allocator(sec7_mesh)
    first, first_admission = serve(shared)
    second, second_admission = serve(shared)
    fresh, _ = serve()
    assert first_admission.path_misses > 0
    assert second_admission.path_misses == 0
    assert second_admission.path_hits == (first_admission.path_hits
                                          + first_admission.path_misses)
    assert second.to_json() == fresh.to_json() == first.to_json()
