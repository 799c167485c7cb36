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
  set operations.  Both choosers take the free slots as that mask, find
  the free slot nearest a template position with two bit scans, and
  unpack only the slots they chose.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.exceptions import (AllocationError, ConfigurationError,
                                   require_whole)

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


def max_consecutive_gap(slots: Iterable[int], size: int) -> int:
    """Largest cyclic distance between consecutive reserved slots.

    For a single reserved slot the gap is ``size`` (a full table rotation);
    an empty reservation has no defined gap and raises.
    """
    ordered = sorted(set(slots))
    if not ordered:
        raise AllocationError("gap of an empty reservation is undefined")
    for s in ordered:
        if type(s) is not int:
            raise ConfigurationError(f"slot {s!r} is not an integer")
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
    return list(_template(n, size)[2])


#: ``(n, size)`` -> :func:`_template`'s triple; cleared when it reaches
#: ``_TEMPLATES_HELD`` entries.  A plain dict: under ``functools.lru_cache``
#: the ``pipeline`` benchmark's peak RSS sat ~0.4 MB higher.
_TEMPLATES: dict[tuple[int, int], tuple[int, int, tuple[int, ...]]] = {}
_TEMPLATES_HELD = 256


def _template(n: int, size: int) -> tuple[int, int, tuple[int, ...]]:
    """``(n, size, offsets)`` with both counts whole and the offsets of
    :func:`ideal_positions` — built once per distinct ``(n, size)``, so
    the check stays off the per-placement path."""
    template = _TEMPLATES.get((n, size))
    if template is None:
        n = require_whole("slot count", n, 1)
        size = require_whole("slot table size", size, 1)
        if len(_TEMPLATES) >= _TEMPLATES_HELD:
            _TEMPLATES.clear()
        template = _TEMPLATES[n, size] = (
            n, size, tuple(round(i * size / n) % size for i in range(n)))
    return template


def spread_slots(free_mask: int, n: int, size: int,
                 max_gap: int | None = None) -> tuple[int, ...] | None:
    """Choose ``n`` slots from the free-slot bitmask ``free_mask``
    (bit ``s`` = slot ``s`` free) spread as evenly as possible.

    The heuristic anchors an equidistant template at each free slot, assigns
    every template position to the nearest remaining free slot, and keeps
    the first anchoring with the smallest maximum gap — so it stops at the
    first whose largest gap is ``ceil(size / n)``, which no ``n`` slots
    beat.  If ``max_gap`` is given
    and the best choice of ``n`` slots still exceeds it, additional free
    slots are inserted into the largest gaps until the constraint holds or
    free slots run out.

    Returns the chosen slots sorted ascending, or ``None`` when no
    assignment with ``n`` (or, under ``max_gap``, more) slots exists.

    >>> spread_slots(slots_to_mask(range(16), 16), 4, 16)
    (0, 4, 8, 12)
    """
    n, size, offsets = _checked(free_mask, n, size)
    free = free_mask.bit_count()
    if free < n:
        return None
    best = 0
    best_gap = size + 1
    # n gaps sum to size, so no choice of n slots has a largest gap below
    # this; the first anchoring that reaches it is the one kept.
    optimal = (size + n - 1) // n
    # Anchoring at every free slot is O(|free|^2 * n) in the worst case but
    # tables are small (typically 8..64 slots); above 64 free slots every
    # second one anchors.
    anchors = free_mask
    while anchors:
        low = anchors & -anchors
        anchors ^= low
        if free > 64:
            anchors &= anchors - 1
        chosen = _assign_near_ideal(free_mask, offsets, size,
                                    low.bit_length() - 1)
        gap = _largest_gap(chosen, size)[1]
        if gap < best_gap:
            best, best_gap = chosen, gap
            if gap == optimal:
                break
    if max_gap is not None and best_gap > max_gap:
        best = _fill_gaps(best, free_mask, size, max_gap)
        if best is None:
            return None
    return mask_to_slots(best)


def choose_slots_fast(free_mask: int, n: int, size: int,
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
    n, size, offsets = _checked(free_mask, n, size)
    if free_mask.bit_count() < n:
        return None
    chosen = _assign_near_ideal(free_mask, offsets, size,
                                (free_mask & -free_mask).bit_length() - 1)
    if max_gap is not None and _largest_gap(chosen, size)[1] > max_gap:
        chosen = _fill_gaps(chosen, free_mask, size, max_gap)
        if chosen is None:
            return None
    return mask_to_slots(chosen)


def _checked(free_mask: int, n: int, size: int
             ) -> tuple[int, int, tuple[int, ...]]:
    """The chooser's entry checks; returns :func:`_template`'s triple.

    The choosers search ``range(size)`` only, so a free slot outside it
    would otherwise read as missing capacity.
    """
    if n <= 0:
        raise AllocationError(f"cannot reserve {n} slots")
    n, size, offsets = _template(n, size)
    if free_mask >> size:
        raise ConfigurationError(
            f"free-slot mask {free_mask} is negative" if free_mask < 0 else
            f"free slot {free_mask.bit_length() - 1} outside table of size "
            f"{size}")
    return n, size, offsets


def _assign_near_ideal(free_mask: int, offsets: tuple[int, ...], size: int,
                       anchor: int) -> int:
    """Greedy nearest-free assignment of an equidistant template (its
    ``offsets`` from :func:`_template`) at ``anchor``, as a mask.

    ``free_mask`` must hold at least ``len(offsets)`` slots.
    """
    chosen = 0
    for offset in offsets:
        bit = 1 << _nearest(free_mask, (anchor + offset) % size, size)
        free_mask ^= bit
        chosen |= bit
    return chosen


def _nearest(mask: int, target: int, size: int) -> int | None:
    """Set bit of ``mask`` with smallest cyclic distance to ``target``
    (ties: the lower slot), or ``None`` for an empty mask.

    Two bit scans: the lowest set bit above ``target`` (else, wrapping,
    the lowest of all) and the highest below it (else the highest of
    all); the nearer one wins.  ``mask`` must lie in ``range(size)``.
    """
    high = mask >> target
    if high & 1:
        return target
    if not mask:
        return None
    # Unwrapped: target < above < target + size, target - size < below
    # < target, so the two distances need no modulo.
    above = ((high & -high).bit_length() - 1 + target if high
             else (mask & -mask).bit_length() - 1 + size)
    low = mask & ((1 << target) - 1)
    below = low.bit_length() - 1 if low else mask.bit_length() - 1 - size
    up = above - target
    down = target - below
    if up < down:
        return above if above < size else above - size
    if down < up:
        return below if below >= 0 else below + size
    return min(above % size, below % size)


def _fill_gaps(chosen: int, free_mask: int, size: int,
               max_gap: int) -> int | None:
    """Insert extra free slots into the largest gaps until ``max_gap``
    holds; masks in, mask out (``None`` when free slots run out)."""
    available = free_mask & ~chosen
    while True:
        start, length = _largest_gap(chosen, size)
        if length <= max_gap:
            return chosen
        if not available:
            return None
        bit = 1 << _nearest(available, (start + length // 2) % size, size)
        available ^= bit
        chosen |= bit


def _largest_gap(mask: int, size: int) -> tuple[int, int]:
    """Return ``(start_slot, gap_length)`` of the largest cyclic gap
    between the set bits of a non-empty ``mask`` (ties: the wrapping
    gap, then the earliest)."""
    first = (mask & -mask).bit_length() - 1
    last = mask.bit_length() - 1
    best_start, best_len = last, size - last + first
    previous = first
    rest = mask ^ (1 << first)
    while rest:
        low = rest & -rest
        slot = low.bit_length() - 1
        if slot - previous > best_len:
            best_start, best_len = previous, slot - previous
        previous = slot
        rest ^= low
    return best_start, best_len
