"""Unit and property tests for slot arithmetic and the slot choosers."""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.exceptions import AllocationError, ConfigurationError
from repro.core.connection import ChannelSpec
from repro.core.placement import QuoteMemo, place
import repro.core.slot_table as slot_table
from repro.core.slot_table import (_assign_near_ideal, _fill_gaps,
                                   _largest_gap, _nearest, choose_slots_fast,
                                   mask_to_slots,
                                   max_consecutive_gap, shifted,
                                   slots_to_mask, spread_slots,
                                   worst_case_wait_slots)
from repro.core.words import WordFormat


class TestShift:
    def test_wraps_modulo_size(self):
        assert shifted(7, 3, 8) == 2

    def test_zero_shift_identity(self):
        assert shifted(5, 0, 8) == 5

    def test_rejects_bad_size(self):
        with pytest.raises(ConfigurationError):
            shifted(0, 1, 0)


class TestGaps:
    def test_single_slot_gap_is_table_size(self):
        assert max_consecutive_gap([3], 8) == 8

    def test_adjacent_slots(self):
        assert max_consecutive_gap([0, 1, 2, 3, 4, 5, 6, 7], 8) == 1

    def test_wraparound_gap(self):
        # Slots 0 and 2 in size 8: gaps 2 and 6 (wrap).
        assert max_consecutive_gap([0, 2], 8) == 6

    def test_empty_reservation_rejected(self):
        with pytest.raises(AllocationError):
            max_consecutive_gap([], 8)

    def test_out_of_range_slot_rejected(self):
        with pytest.raises(ConfigurationError):
            max_consecutive_gap([9], 8)

    @pytest.mark.parametrize("measure", [max_consecutive_gap,
                                         worst_case_wait_slots])
    @pytest.mark.parametrize("slots", [[0.5], [1, 2.5], [2.0]])
    def test_fractional_slot_rejected(self, measure, slots):
        """``max_consecutive_gap([0.5], 4)`` used to return ``4`` and
        ``worst_case_wait_slots([1, 2.5], 4)`` a fractional ``2.5``."""
        with pytest.raises(ConfigurationError, match="is not an integer"):
            measure(slots, 4)

    @given(st.sets(st.integers(0, 15), min_size=1, max_size=16))
    def test_matches_brute_force_wait(self, slots):
        """The max gap equals the worst over arrival phases of the wait."""
        size = 16
        worst = 0
        for arrival in range(size):
            # A message arriving during slot `arrival` catches the next
            # reserved slot strictly after it.
            wait = next(d for d in range(1, size + 1)
                        if (arrival + d) % size in slots)
            worst = max(worst, wait)
        assert worst_case_wait_slots(slots, size) == worst


class TestIdealPositions:
    """On an empty table the spreading template is the choice itself."""

    def test_evenly_spread(self):
        assert spread_slots(slots_to_mask(range(16), 16), 4, 16) == \
            (0, 4, 8, 12)

    def test_rounding(self):
        assert spread_slots(slots_to_mask(range(8), 8), 3, 8) == (0, 3, 5)

    @pytest.mark.parametrize("n, size, name", [
        (3, 0, "slot table size"), (2, 4.5, "slot table size"),
        (2.5, 8, "slot count"), (float("nan"), 8, "slot count")])
    def test_a_template_that_is_not_whole_is_refused(self, n, size, name):
        """A template of ``(3, 0)`` used to raise ``ZeroDivisionError``."""
        with pytest.raises(ConfigurationError, match=f"{name} must be "):
            spread_slots(0, n, size)


class TestSpreadSlots:
    def test_exact_when_all_free(self):
        chosen = spread_slots(slots_to_mask(range(16), 16), 4, 16)
        assert chosen is not None
        assert max_consecutive_gap(chosen, 16) == 4

    def test_insufficient_free(self):
        assert spread_slots(slots_to_mask([1, 2], 16), 3, 16) is None

    def test_respects_max_gap_by_adding_slots(self):
        chosen = spread_slots(slots_to_mask(range(16), 16), 2, 16, max_gap=4)
        assert chosen is not None
        assert len(chosen) >= 4
        assert max_consecutive_gap(chosen, 16) <= 4

    def test_max_gap_infeasible(self):
        # Free slots clustered: a gap of 2 cannot be met.
        assert spread_slots(slots_to_mask([0, 1, 2], 16), 2, 16,
                            max_gap=4) is None

    @given(st.data())
    def test_properties(self, data):
        size = data.draw(st.integers(4, 32))
        free = data.draw(st.sets(st.integers(0, size - 1), min_size=1,
                                 max_size=size))
        n = data.draw(st.integers(1, len(free)))
        chosen = spread_slots(slots_to_mask(free, size), n, size)
        assert chosen is not None
        assert len(chosen) == n
        assert set(chosen) <= set(free)
        assert list(chosen) == sorted(set(chosen))

    @given(st.data())
    def test_gap_constraint_honoured_when_satisfied(self, data):
        size = data.draw(st.integers(4, 24))
        free = data.draw(st.sets(st.integers(0, size - 1), min_size=2,
                                 max_size=size))
        n = data.draw(st.integers(1, len(free)))
        max_gap = data.draw(st.integers(1, size))
        chosen = spread_slots(slots_to_mask(free, size), n, size,
                              max_gap=max_gap)
        if chosen is not None:
            assert max_consecutive_gap(chosen, size) <= max_gap
        else:
            # Verify infeasibility: even using *all* free slots the gap
            # constraint fails (spread_slots may add slots beyond n).
            assert max_consecutive_gap(free, size) > max_gap


# -- the nearest-by-min choosers the bit scans replaced ----------------------
#
# Test-local copies of the choosers as they stood before ``_nearest``
# walked outward from its target and before the choosers took the
# free-slot mask: a ``min`` over every candidate of a set, and the
# template offsets recomputed per anchor.


def ref_nearest(candidates, target, size):
    if not candidates:
        return None
    return min(candidates, key=lambda s: (
        min((s - target) % size, (target - s) % size), s))


def ref_assign(free_sorted, n, size, anchor):
    remaining = set(free_sorted)
    chosen = []
    for offset in slot_table._template(n, size)[2]:
        pick = ref_nearest(remaining, (anchor + offset) % size, size)
        if pick is None:
            return None
        remaining.discard(pick)
        chosen.append(pick)
    return tuple(sorted(chosen))


def ref_largest_gap(ordered, size):
    best_start, best_len = ordered[-1], size - ordered[-1] + ordered[0]
    for i in range(len(ordered) - 1):
        length = ordered[i + 1] - ordered[i]
        if length > best_len:
            best_start, best_len = ordered[i], length
    return best_start, best_len


def ref_fill_gaps(chosen, free_sorted, size, max_gap):
    slots = set(chosen)
    available = [s for s in free_sorted if s not in slots]
    while max_consecutive_gap(slots, size) > max_gap:
        if not available:
            return None
        start, length = ref_largest_gap(sorted(slots), size)
        pick = ref_nearest(set(available), (start + length // 2) % size,
                           size)
        available.remove(pick)
        slots.add(pick)
    return tuple(sorted(slots))


def ref_spread_slots(free, n, size, max_gap=None):
    free_sorted = sorted(set(free))
    if len(free_sorted) < n:
        return None
    best, best_gap = None, size + 1
    anchors = free_sorted if len(free_sorted) <= 64 else free_sorted[::2]
    for anchor in anchors:
        chosen = ref_assign(free_sorted, n, size, anchor)
        gap = max_consecutive_gap(chosen, size)
        if gap < best_gap:
            best, best_gap = chosen, gap
            if max_gap is None and gap <= (size + n - 1) // n:
                break
    if max_gap is not None and best_gap > max_gap:
        best = ref_fill_gaps(best, free_sorted, size, max_gap)
    return best


def ref_choose_slots_fast(free, n, size, max_gap=None):
    free_sorted = sorted(set(free))
    if len(free_sorted) < n:
        return None
    chosen = ref_assign(free_sorted, n, size, free_sorted[0])
    if max_gap is not None and max_consecutive_gap(chosen, size) > max_gap:
        chosen = ref_fill_gaps(chosen, free_sorted, size, max_gap)
    return chosen


def ref_first_fit(link_masks, candidates, ref_choose, size):
    """:func:`place` read slot by slot: a candidate's free injection
    slots are those no hop holds once shifted, handed to ``ref_choose``
    as a set."""
    for route, n_slots, max_gap in candidates:
        free = {slot for slot in range(size)
                if not any(link_masks[key] >> ((slot + shift) % size) & 1
                           for key, shift in zip(route.link_keys(),
                                                 route.link_shifts))}
        if len(free) < n_slots:
            continue
        slots = ref_choose(free, n_slots, size, max_gap)
        if slots is not None:
            return route, slots, len(free)
    return None


class _Route:
    """What a placement reads of a route: its link keys and shifts, and
    the traversal time its quote is kept under."""

    def __init__(self, hops, traversal_slots):
        self._keys = tuple(key for key, _ in hops)
        self.link_shifts = tuple(shift for _, shift in hops)
        self.traversal_slots = traversal_slots

    def link_keys(self):
        return self._keys


@st.composite
def placements(draw):
    """Random link occupancy and candidate routes over it."""
    size = draw(st.integers(1, 64))
    keys = [(f"a{i}", f"b{i}") for i in range(draw(st.integers(1, 4)))]
    link_masks = {key: draw(st.integers(0, (1 << size) - 1)) for key in keys}
    candidates = []
    for index in range(draw(st.integers(1, 4))):
        hops = tuple(draw(st.lists(
            st.tuples(st.sampled_from(keys), st.integers(0, 3 * size)),
            min_size=1, max_size=4)))
        candidates.append((_Route(hops, index),
                           draw(st.integers(1, size)),
                           draw(st.none() | st.integers(1, size))))
    return link_masks, candidates, size


class TestOutwardWalk:
    @given(st.data())
    def test_nearest_equals_min_by_cyclic_distance(self, data):
        size = data.draw(st.integers(1, 64))
        candidates = data.draw(st.sets(st.integers(0, size - 1)))
        target = data.draw(st.integers(0, size - 1))
        assert _nearest(slots_to_mask(candidates, size), target, size) == \
            ref_nearest(candidates, target, size)

    @pytest.mark.parametrize("size", [1, 2, 7, 8, 32, 64])
    def test_nearest_on_an_empty_mask_and_on_exact_ties(self, size):
        """Empty: ``None``.  Two slots ``size // 2`` away on either side
        of the target: the lower slot, as the ``(distance, slot)`` key
        ranks them."""
        for target in range(size):
            assert _nearest(0, target, size) is None
            pair = {(target - size // 2) % size, (target + size // 2) % size}
            assert _nearest(slots_to_mask(pair, size), target, size) == \
                ref_nearest(pair, target, size) == min(pair)

    @given(st.data())
    def test_choosers_equal_the_nearest_by_min_choosers(self, data):
        size = data.draw(st.integers(1, 64))
        free = data.draw(st.sets(st.integers(0, size - 1), min_size=1))
        n = data.draw(st.integers(1, len(free)))
        max_gap = data.draw(st.none() | st.integers(1, size))
        mask = slots_to_mask(free, size)
        assert spread_slots(mask, n, size, max_gap=max_gap) == \
            ref_spread_slots(free, n, size, max_gap)
        assert choose_slots_fast(mask, n, size, max_gap=max_gap) == \
            ref_choose_slots_fast(free, n, size, max_gap)

    @given(placements())
    def test_place_places_as_the_set_based_reference(self, placement):
        link_masks, candidates, size = placement
        spec = ChannelSpec("c", "a", "b", 1.0)
        # Each route its own traversal time, quoted in advance.
        quotes = QuoteMemo(spec, SimpleNamespace(
            table_size=size, frequency_hz=500e6, fmt=WordFormat()))
        quotes.update((route.traversal_slots, (n_slots, max_gap))
                      for route, n_slots, max_gap in candidates)
        routes = [route for route, _, _ in candidates]
        for choose, ref_choose in ((choose_slots_fast, ref_choose_slots_fast),
                                   (spread_slots, ref_spread_slots)):
            placed = place(link_masks, spec, routes, quotes, choose, size)
            reference = ref_first_fit(link_masks, candidates, ref_choose,
                                      size)
            assert (None if placed is None else
                    (placed[0].path, placed[0].slots, placed[1])) == \
                reference

    @pytest.mark.parametrize("chooser", [spread_slots, choose_slots_fast])
    @pytest.mark.parametrize("mask, top", [
        (1 | 1 << 40, 40), (1 | 1 << 32, 32), (1 << 32, 32)],
        ids=["0-and-40", "0-and-32", "32"])
    def test_free_slot_outside_the_table_is_refused(self, chooser, mask, top):
        """``choose_slots_fast([-1, 40], 2, 32)`` once returned
        ``(-1, 40)``, a reservation outside the table; a bit at or above
        the table size is refused."""
        with pytest.raises(ConfigurationError,
                           match=f"free slot {top} outside table of size 32"):
            chooser(mask, 2, 32)

    @pytest.mark.parametrize("chooser", [spread_slots, choose_slots_fast])
    def test_a_negative_slot_or_mask_is_refused(self, chooser):
        with pytest.raises(ConfigurationError,
                           match="slot -1 outside table of size 32"):
            slots_to_mask([-1, 3], 32)
        with pytest.raises(ConfigurationError,
                           match="free-slot mask -8 is negative"):
            chooser(-8, 2, 32)

    @pytest.mark.parametrize("chooser", [spread_slots, choose_slots_fast])
    def test_a_whole_float_count_reads_as_the_int(self, chooser):
        """``choose_slots_fast(free, 2.0, 4)`` used to raise a builtin
        ``TypeError`` from ``range``."""
        mask = slots_to_mask([0, 1, 3], 4)
        assert chooser(mask, 2.0, 4) == chooser(mask, 2, 4.0) == \
            chooser(mask, 2, 4)

    @pytest.mark.parametrize("chooser", [spread_slots, choose_slots_fast])
    @pytest.mark.parametrize("n, size, name", [
        (2, 4.5, "slot table size"), (1.5, 4, "slot count")])
    def test_a_fractional_count_is_refused(self, chooser, n, size, name):
        """``spread_slots(free, 2, 4.5)`` used to raise a builtin
        ``TypeError`` from ``range``."""
        with pytest.raises(ConfigurationError,
                           match=f"{name} must be a whole number"):
            chooser(0b1011, n, size)


# -- the chooser stops at its proven optimum -----------------------------------


def full_anchor_scan(free_mask, n, size, max_gap=None):
    """:func:`spread_slots` as it stood when it anchored at every free
    slot (every second one above 64) whenever a ``max_gap`` applied, on
    its own helpers: the oracle the early stop must equal."""
    if free_mask.bit_count() < n:
        return None
    best, best_gap = 0, size + 1
    optimal = (size + n - 1) // n
    anchors = mask_to_slots(free_mask)
    if len(anchors) > 64:
        anchors = anchors[::2]
    offsets = slot_table._template(n, size)[2]
    for anchor in anchors:
        chosen = _assign_near_ideal(free_mask, offsets, size, anchor)
        gap = _largest_gap(chosen, size)[1]
        if gap < best_gap:
            best, best_gap = chosen, gap
            if max_gap is None and gap <= optimal:
                break
    if max_gap is not None and best_gap > max_gap:
        best = _fill_gaps(best, free_mask, size, max_gap)
        if best is None:
            return None
    return mask_to_slots(best)


@st.composite
def _choices(draw, above_64=False):
    """A table size, a non-empty free mask in it, a slot count the mask
    can hold and a ``max_gap`` or none; ``above_64``: more than 64 free
    slots, so every second one anchors."""
    if above_64:
        size = draw(st.integers(65, 128))
        held = draw(st.sets(st.integers(0, size - 1), max_size=size - 65))
        mask = ((1 << size) - 1) & ~slots_to_mask(held, size)
    else:
        size = draw(st.integers(4, 64))
        mask = draw(st.integers(1, (1 << size) - 1))
    n = draw(st.integers(1, mask.bit_count()))
    return mask, n, size, draw(st.none() | st.integers(1, size))


class TestProvenOptimum:
    @settings(max_examples=400)
    @given(_choices())
    def test_equals_the_full_anchor_scan(self, choice):
        assert spread_slots(*choice) == full_anchor_scan(*choice)

    @settings(max_examples=60, deadline=None)
    @given(_choices(above_64=True))
    @example((((1 << 67) - 1) & ~(1 << 51), 37, 67, None)
             ).via("a best anchoring that only every free slot reaches")
    def test_equals_the_full_anchor_scan_above_64_free_slots(self, choice):
        """Above 64 free slots both anchor at every second one."""
        assert spread_slots(*choice) == full_anchor_scan(*choice)

    def test_an_optimal_first_anchoring_is_the_only_one(self):
        """16 free slots, 4 to choose under a ``max_gap`` of 4: anchored
        at slot 0 the template's largest gap is already 16 / 4, so no
        other anchoring is tried (the full scan tried all 16)."""
        mask = slots_to_mask(range(16), 16)
        with mock.patch.object(slot_table, "_assign_near_ideal",
                               wraps=_assign_near_ideal) as assign:
            chosen = spread_slots(mask, 4, 16, max_gap=4)
        assert chosen == (0, 4, 8, 12) == full_anchor_scan(mask, 4, 16, 4)
        assert assign.call_count == 1
