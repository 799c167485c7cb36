"""The slot arithmetic of contention-free routing.

Every network interface regulates injection with a slot table of ``size``
slots; the table has the same size throughout the NoC (Section III of the
paper).  In hardware that table is a row — slot ``s`` names the channel
that injects in ``s`` — and so it is here: the slot-indexed owner tuple
:meth:`~repro.core.allocation.Allocation.ni_injection_table` reads off
the channel records.  A reservation of slot ``s`` at the NI's output
link implies slot ``(s + d) mod size`` on every downstream link, where
``d`` is the accumulated *slot shift*: one slot per router traversed (its
three-cycle flit cycle) and one per mesochronous link pipeline stage
(Section V allocates a slot for the link traversal).

This module provides:

* :func:`shifted` — the per-hop reservation shift;
* gap/wait analysis used by the latency bound (:mod:`repro.core.analysis`);
* :func:`spread_slots` — the equidistant slot-choice heuristic;
* bitmask slot arithmetic (:func:`slots_to_mask` / :func:`mask_to_slots` /
  :func:`rotate_mask` / :func:`shifted_mask`) and :func:`choose_slots_fast`
  — the integer-mask representation the allocation hot path and the online
  admission service (:mod:`repro.service`) use to intersect, commit and
  free per-link occupancy in a handful of machine ops instead of per-slot
  set operations.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.exceptions import AllocationError, ConfigurationError

__all__ = [
    "shifted",
    "worst_case_wait_slots",
    "max_consecutive_gap",
    "spread_slots",
    "ideal_positions",
    "slots_to_mask",
    "mask_to_slots",
    "rotate_mask",
    "shifted_mask",
    "choose_slots_fast",
]


def shifted(slot: int, shift: int, size: int) -> int:
    """Return ``(slot + shift) mod size``: the reservation ``shift`` hops on."""
    if size <= 0:
        raise ConfigurationError(f"slot table size must be positive, got {size}")
    return (slot + shift) % size


def slots_to_mask(slots: Iterable[int], size: int) -> int:
    """Pack a slot set into an integer bitmask (bit ``s`` = slot ``s``)."""
    mask = 0
    for s in slots:
        if not 0 <= s < size:
            raise ConfigurationError(f"slot {s} outside table of size {size}")
        mask |= 1 << s
    return mask


def mask_to_slots(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into its slot numbers, ascending."""
    out: list[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def rotate_mask(mask: int, shift: int, size: int) -> int:
    """Cyclic rotation such that bit ``s`` of the result is bit
    ``(s + shift) % size`` of ``mask``.

    This is the bitmask form of un-shifting a link occupancy back to
    injection slots: a link whose free slots are ``mask`` admits injection
    in exactly the slots of ``rotate_mask(mask, shift, size)`` when the
    link sits ``shift`` slots downstream of the NI.
    """
    if size <= 0:
        raise ConfigurationError(f"slot table size must be positive, got {size}")
    shift %= size
    if not shift:
        return mask
    full = (1 << size) - 1
    return ((mask >> shift) | (mask << (size - shift))) & full


def shifted_mask(mask: int, shift: int, size: int) -> int:
    """The bitmask form of :func:`shifted`: bit ``(s + shift) % size`` of
    the result is bit ``s`` of ``mask`` — injection slots carried
    ``shift`` hops on, the inverse of :func:`rotate_mask`.

    >>> mask_to_slots(shifted_mask(slots_to_mask([0, 6], 8), 3, 8))
    (1, 3)
    """
    return rotate_mask(mask, -shift, size)


def choose_slots_fast(free: Iterable[int], n: int, size: int,
                      max_gap: int | None = None) -> tuple[int, ...] | None:
    """Single-anchor variant of :func:`spread_slots` for the admission
    hot path.

    :func:`spread_slots` anchors its equidistant template at *every* free
    slot and keeps the best — optimal spreading, but O(|free|²·n), which
    dominates per-admission cost in the online service.  This variant
    anchors only at the first free slot (deterministic), then falls back
    to the same gap-filling step when a ``max_gap`` constraint is not yet
    met.  Slot choices may differ from :func:`spread_slots`, but every
    returned reservation honours the same constraints, so the quoted
    bounds remain guarantees.
    """
    free_sorted = _sorted_free(free, size)
    if n <= 0:
        raise AllocationError(f"cannot reserve {n} slots")
    if len(free_sorted) < n:
        return None
    chosen = _assign_near_ideal(free_sorted, ideal_positions(n, size), size,
                                free_sorted[0])
    if chosen is None:
        return None
    if max_gap is not None and max_consecutive_gap(chosen, size) > max_gap:
        chosen = _fill_gaps(chosen, free_sorted, size, max_gap)
    return chosen


def max_consecutive_gap(slots: Iterable[int], size: int) -> int:
    """Largest cyclic distance between consecutive reserved slots.

    For a single reserved slot the gap is ``size`` (a full table rotation);
    an empty reservation has no defined gap and raises.
    """
    ordered = sorted(set(slots))
    if not ordered:
        raise AllocationError("gap of an empty reservation is undefined")
    for s in ordered:
        if not 0 <= s < size:
            raise ConfigurationError(f"slot {s} outside table of size {size}")
    if len(ordered) == 1:
        return size
    gaps = [ordered[i + 1] - ordered[i] for i in range(len(ordered) - 1)]
    gaps.append(size - ordered[-1] + ordered[0])
    return max(gaps)


def worst_case_wait_slots(slots: Iterable[int], size: int) -> int:
    """Worst-case whole slots a just-missed message waits for injection.

    A message that becomes available an instant after slot ``s`` started can
    only use the *next* reserved slot; the worst case over all arrival
    instants equals the maximum cyclic gap between consecutive reserved
    slots.  This is the NI waiting-time term of the paper's latency bound
    (Section VII: "the latency follows directly from the waiting time in
    the NI plus the time required to traverse the path").

    >>> worst_case_wait_slots([0, 4], 8)   # evenly spread
    4
    >>> worst_case_wait_slots([0, 1], 8)   # bunched: long dry stretch
    7
    """
    return max_consecutive_gap(slots, size)


def ideal_positions(n: int, size: int) -> list[int]:
    """Equidistant slot positions for ``n`` reservations in a table.

    These are the targets of the spreading heuristic; they minimise the
    maximum gap (and hence the worst-case NI wait) when all are free.
    """
    if n <= 0:
        return []
    return [round(i * size / n) % size for i in range(n)]


def spread_slots(free: Iterable[int], n: int, size: int,
                 max_gap: int | None = None) -> tuple[int, ...] | None:
    """Choose ``n`` slots from ``free`` spread as evenly as possible.

    The heuristic anchors an equidistant template at each free slot, assigns
    every template position to the nearest remaining free slot, and keeps
    the anchoring with the smallest maximum gap.  If ``max_gap`` is given
    and the best choice of ``n`` slots still exceeds it, additional free
    slots are inserted into the largest gaps until the constraint holds or
    free slots run out.

    Returns the chosen slots sorted ascending, or ``None`` when no
    assignment with ``n`` (or, under ``max_gap``, more) slots exists.
    """
    free_sorted = _sorted_free(free, size)
    if n <= 0:
        raise AllocationError(f"cannot reserve {n} slots")
    if len(free_sorted) < n:
        return None

    best: tuple[int, ...] | None = None
    best_gap = size + 1
    offsets = ideal_positions(n, size)
    # Anchoring at every free slot is O(|free|^2 * n) in the worst case but
    # tables are small (typically 8..64 slots); measured cost is negligible
    # next to simulation.
    anchors = free_sorted if len(free_sorted) <= 64 else free_sorted[::2]
    for anchor in anchors:
        chosen = _assign_near_ideal(free_sorted, offsets, size, anchor)
        if chosen is None:
            continue
        gap = max_consecutive_gap(chosen, size)
        if gap < best_gap:
            best, best_gap = chosen, gap
            if max_gap is None and gap <= (size + n - 1) // n:
                break  # already optimal for n slots
    if best is None:
        return None

    if max_gap is not None and best_gap > max_gap:
        best = _fill_gaps(best, free_sorted, size, max_gap)
        if best is None:
            return None
    return best


def _sorted_free(free: Iterable[int], size: int) -> list[int]:
    """The distinct free slots, ascending; all must lie in the table.

    The choosers search ``range(size)`` only, so a slot outside it would
    otherwise read as missing capacity.
    """
    free_sorted = sorted(set(free))
    if free_sorted:
        for slot in (free_sorted[0], free_sorted[-1]):
            if not 0 <= slot < size:
                raise ConfigurationError(
                    f"free slot {slot} outside table of size {size}")
    return free_sorted


def _assign_near_ideal(free_sorted: list[int], offsets: list[int], size: int,
                       anchor: int) -> tuple[int, ...] | None:
    """Greedy nearest-free assignment of an equidistant template (its
    ``offsets`` from :func:`ideal_positions`) at ``anchor``."""
    remaining = set(free_sorted)
    chosen: list[int] = []
    for offset in offsets:
        target = (anchor + offset) % size
        pick = _nearest(remaining, target, size)
        if pick is None:
            return None
        remaining.discard(pick)
        chosen.append(pick)
    return tuple(sorted(chosen))


def _nearest(candidates: set[int], target: int, size: int) -> int | None:
    """Free slot with smallest cyclic distance to ``target`` (ties: earlier).

    Walks outward from the target, so the cost follows the distance to
    the pick, not the number of candidates; ``candidates`` must lie in
    ``range(size)``.
    """
    for distance in range(size // 2 + 1):
        first = (target - distance) % size
        second = (target + distance) % size
        if second < first:
            first, second = second, first
        if first in candidates:
            return first
        if second in candidates:
            return second
    return None


def _fill_gaps(chosen: tuple[int, ...], free_sorted: list[int], size: int,
               max_gap: int) -> tuple[int, ...] | None:
    """Insert extra free slots into the largest gaps until ``max_gap`` holds."""
    slots = set(chosen)
    available = [s for s in free_sorted if s not in slots]
    while max_consecutive_gap(slots, size) > max_gap:
        if not available:
            return None
        start, length = _largest_gap(sorted(slots), size)
        middle = (start + length // 2) % size
        pick = _nearest(set(available), middle, size)
        if pick is None:
            return None
        available.remove(pick)
        slots.add(pick)
    return tuple(sorted(slots))


def _largest_gap(ordered: list[int], size: int) -> tuple[int, int]:
    """Return ``(start_slot, gap_length)`` of the largest cyclic gap."""
    best_start, best_len = ordered[-1], size - ordered[-1] + ordered[0]
    for i in range(len(ordered) - 1):
        length = ordered[i + 1] - ordered[i]
        if length > best_len:
            best_start, best_len = ordered[i], length
    return best_start, best_len

