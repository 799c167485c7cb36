"""TDM slot tables and the slot arithmetic of contention-free routing.

Every network interface regulates injection with a slot table of ``size``
slots; the table has the same size throughout the NoC (Section III of the
paper).  A reservation of slot ``s`` at the NI's output link implies slot
``(s + d) mod size`` on every downstream link, where ``d`` is the accumulated
*slot shift*: one slot per router traversed (its three-cycle flit cycle) and
one per mesochronous link pipeline stage (Section V allocates a slot for the
link traversal).

This module provides:

* :func:`shifted` / :func:`shifted_slots` — the per-hop reservation shift;
* :class:`SlotTable` — an ownership map from slot to channel, the NI
  injection table;
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

from collections.abc import Iterable, Iterator, Mapping

from repro.core.exceptions import AllocationError, ConfigurationError

__all__ = [
    "shifted",
    "shifted_slots",
    "SlotTable",
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


def shifted_slots(slots: Iterable[int], shift: int, size: int) -> frozenset[int]:
    """Shift a whole reservation set by ``shift`` slots (cyclically)."""
    return frozenset(shifted(s, shift, size) for s in slots)


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
    """The bitmask form of :func:`shifted_slots`: bit ``(s + shift) % size``
    of the result is bit ``s`` of ``mask`` — injection slots carried
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


class SlotTable:
    """Ownership map from TDM slot to channel name: the **injection
    table** of a network interface (slot → channel to inject in that
    slot).  Slot numbers are always in ``range(size)``.

    A link has no table of its own: its occupancy is the channels'
    reservations shifted onto it, one bitmask per link
    (:attr:`~repro.core.allocation.Allocation.link_masks`).

    >>> table = SlotTable(8)
    >>> table.reserve(2, "video")
    >>> table.reserve(6, "video")
    >>> table.owner(2)
    'video'
    >>> sorted(table.free_slots())
    [0, 1, 3, 4, 5, 7]
    >>> table.utilisation()
    0.25
    """

    __slots__ = ("_size", "_owners", "_row")

    def __init__(self, size: int,
                 reservations: Mapping[int, str] | None = None):
        if size <= 0:
            raise ConfigurationError(
                f"slot table size must be positive, got {size}")
        self._size = size
        self._owners: dict[int, str] = {}
        self._row: tuple[str | None, ...] | None = None
        if reservations:
            for slot, owner in reservations.items():
                self.reserve(slot, owner)

    # -- basic queries ------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of slots in the table (the TDM period)."""
        return self._size

    def owner(self, slot: int) -> str | None:
        """Channel owning ``slot``, or ``None`` when the slot is free."""
        self._check_slot(slot)
        return self._owners.get(slot)

    def owner_row(self) -> tuple[str | None, ...]:
        """The whole ownership map as a flat slot-indexed tuple.

        This is the compiled form the simulation hot paths index
        (``row[slot % size]`` replaces a bounds-checked dict lookup per
        slot); the tuple is cached and rebuilt only after a mutation,
        so a steady-state schedule pays for it once.

        >>> table = SlotTable(4)
        >>> table.reserve(1, "audio")
        >>> table.owner_row()
        (None, 'audio', None, None)
        """
        if self._row is None:
            owners = self._owners
            self._row = tuple(owners.get(s) for s in range(self._size))
        return self._row

    def is_free(self, slot: int) -> bool:
        """True when no channel has reserved ``slot``."""
        self._check_slot(slot)
        return slot not in self._owners

    def free_slots(self) -> frozenset[int]:
        """All currently unreserved slots."""
        return frozenset(range(self._size)).difference(self._owners)

    def reserved_slots(self, owner: str | None = None) -> frozenset[int]:
        """Slots reserved by ``owner`` (or by anyone if ``owner`` is None)."""
        if owner is None:
            return frozenset(self._owners)
        return frozenset(s for s, o in self._owners.items() if o == owner)

    def utilisation(self) -> float:
        """Fraction of slots reserved."""
        return len(self._owners) / self._size

    def __iter__(self) -> Iterator[tuple[int, str | None]]:
        for slot in range(self._size):
            yield slot, self._owners.get(slot)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SlotTable):
            return NotImplemented
        return self._size == other._size and self._owners == other._owners

    def __repr__(self) -> str:
        cells = ",".join(self._owners.get(s, "-") or "-"
                         for s in range(self._size))
        return f"SlotTable[{cells}]"

    # -- mutation -----------------------------------------------------------

    def reserve(self, slot: int, owner: str) -> None:
        """Reserve ``slot`` for ``owner``; raises if already taken."""
        self._check_slot(slot)
        if not owner:
            raise ConfigurationError("slot owner must be a non-empty name")
        current = self._owners.get(slot)
        if current is not None and current != owner:
            raise AllocationError(
                f"slot {slot} already reserved by {current!r}",
                channel=owner, reason="slot conflict")
        self._owners[slot] = owner
        self._row = None

    def reserve_all(self, slots: Iterable[int], owner: str) -> None:
        """Reserve several slots atomically (rolls back on conflict)."""
        taken: list[int] = []
        try:
            for slot in slots:
                before = self._owners.get(slot)
                self.reserve(slot, owner)
                if before is None:
                    taken.append(slot)
        except AllocationError:
            for slot in taken:
                del self._owners[slot]
            self._row = None
            raise

    def release(self, slot: int) -> None:
        """Free one slot (idempotent)."""
        self._check_slot(slot)
        self._owners.pop(slot, None)
        self._row = None

    def release_owner(self, owner: str) -> None:
        """Free every slot held by ``owner``."""
        for slot in [s for s, o in self._owners.items() if o == owner]:
            del self._owners[slot]
            self._row = None

    def copy(self) -> "SlotTable":
        """Independent copy (used for what-if allocation)."""
        return SlotTable(self._size, dict(self._owners))

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable representation."""
        return {"size": self._size,
                "reservations": {str(s): o for s, o in self._owners.items()}}

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "SlotTable":
        """Inverse of :meth:`to_dict`."""
        size = int(data["size"])  # type: ignore[arg-type]
        raw = data.get("reservations", {})
        return SlotTable(size, {int(k): str(v)
                                for k, v in raw.items()})  # type: ignore[union-attr]

    # -- internals ----------------------------------------------------------

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self._size:
            raise ConfigurationError(
                f"slot {slot} outside table of size {self._size}")
