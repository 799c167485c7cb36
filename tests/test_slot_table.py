"""Unit and property tests for slot arithmetic and the slot choosers."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.exceptions import AllocationError, ConfigurationError
from repro.core.slot_table import (_largest_gap, _nearest,
                                   choose_slots_fast, ideal_positions,
                                   max_consecutive_gap, shifted,
                                   spread_slots, worst_case_wait_slots)


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
    def test_evenly_spread(self):
        assert ideal_positions(4, 16) == [0, 4, 8, 12]

    def test_rounding(self):
        assert ideal_positions(3, 8) == [0, 3, 5]

    def test_zero(self):
        assert ideal_positions(0, 8) == []


class TestSpreadSlots:
    def test_exact_when_all_free(self):
        chosen = spread_slots(range(16), 4, 16)
        assert chosen is not None
        assert max_consecutive_gap(chosen, 16) == 4

    def test_insufficient_free(self):
        assert spread_slots([1, 2], 3, 16) is None

    def test_respects_max_gap_by_adding_slots(self):
        chosen = spread_slots(range(16), 2, 16, max_gap=4)
        assert chosen is not None
        assert len(chosen) >= 4
        assert max_consecutive_gap(chosen, 16) <= 4

    def test_max_gap_infeasible(self):
        # Free slots clustered: a gap of 2 cannot be met.
        assert spread_slots([0, 1, 2], 2, 16, max_gap=4) is None

    @given(st.data())
    def test_properties(self, data):
        size = data.draw(st.integers(4, 32))
        free = data.draw(st.sets(st.integers(0, size - 1), min_size=1,
                                 max_size=size))
        n = data.draw(st.integers(1, len(free)))
        chosen = spread_slots(free, n, size)
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
        chosen = spread_slots(free, n, size, max_gap=max_gap)
        if chosen is not None:
            assert max_consecutive_gap(chosen, size) <= max_gap
        else:
            # Verify infeasibility: even using *all* free slots the gap
            # constraint fails (spread_slots may add slots beyond n).
            assert max_consecutive_gap(free, size) > max_gap


# -- the nearest-by-min choosers the outward walk replaced -------------------
#
# Test-local copies of the choosers as they stood before ``_nearest``
# walked outward from its target: a ``min`` over every candidate, and the
# template offsets recomputed per anchor.


def ref_nearest(candidates, target, size):
    if not candidates:
        return None
    return min(candidates, key=lambda s: (
        min((s - target) % size, (target - s) % size), s))


def ref_assign(free_sorted, n, size, anchor):
    remaining = set(free_sorted)
    chosen = []
    for offset in ideal_positions(n, size):
        pick = ref_nearest(remaining, (anchor + offset) % size, size)
        if pick is None:
            return None
        remaining.discard(pick)
        chosen.append(pick)
    return tuple(sorted(chosen))


def ref_fill_gaps(chosen, free_sorted, size, max_gap):
    slots = set(chosen)
    available = [s for s in free_sorted if s not in slots]
    while max_consecutive_gap(slots, size) > max_gap:
        if not available:
            return None
        start, length = _largest_gap(sorted(slots), size)
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


class TestOutwardWalk:
    @given(st.data())
    def test_nearest_equals_min_by_cyclic_distance(self, data):
        size = data.draw(st.integers(1, 64))
        candidates = data.draw(st.sets(st.integers(0, size - 1)))
        target = data.draw(st.integers(0, size - 1))
        assert _nearest(candidates, target, size) == \
            ref_nearest(candidates, target, size)

    @given(st.data())
    def test_choosers_equal_the_nearest_by_min_choosers(self, data):
        size = data.draw(st.integers(1, 64))
        free = data.draw(st.sets(st.integers(0, size - 1), min_size=1))
        n = data.draw(st.integers(1, len(free)))
        max_gap = data.draw(st.none() | st.integers(1, size))
        assert spread_slots(free, n, size, max_gap=max_gap) == \
            ref_spread_slots(free, n, size, max_gap)
        assert choose_slots_fast(free, n, size, max_gap=max_gap) == \
            ref_choose_slots_fast(free, n, size, max_gap)

    @pytest.mark.parametrize("chooser", [spread_slots, choose_slots_fast])
    @pytest.mark.parametrize("free", [[-1, 40], [0, 32], [-1, 3]])
    def test_free_slot_outside_the_table_is_refused(self, chooser, free):
        """``choose_slots_fast([-1, 40], 2, 32)`` used to return
        ``(-1, 40)``, a reservation outside the table."""
        with pytest.raises(ConfigurationError,
                           match=r"free slot -?\d+ outside table of "
                                 r"size 32"):
            chooser(free, 2, 32)

