"""The placement loop and its result: fit one channel onto the first
route that can carry it, and the record of what it was granted.

Every placement — offline extension (:class:`~repro.core.allocation.
SlotAllocator`), degraded-mode rerouting (:meth:`~repro.core.allocation.
Allocation.rebuild_excluding`) and online admission (:class:`~repro.
service.admission.AdmissionController`) — runs :func:`place` over
candidate routes, reading each route's slot count and gap constraint
from the requirement's :class:`QuoteMemo`, the one place a requirement
becomes slot arithmetic.  Only the candidate routes and the slot
chooser differ between them.

The module sits below the allocation: it reads link occupancy as the
``link_masks`` dictionary and returns the finished
:class:`ChannelAllocation`, which each caller commits itself.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from repro.core.connection import ChannelSpec
from repro.core.exceptions import AllocationError
from repro.core.path import Path
from repro.core.requirements import slots_for_channel
from repro.core.slot_table import (rotate_mask, shifted_mask, slots_to_mask,
                                   worst_case_wait_slots)

__all__ = ["ChannelAllocation", "QuoteMemo", "place"]


@dataclass(frozen=True)
class ChannelAllocation:
    """The route and injection slots granted to one channel in a slot
    table of ``table_size`` slots — the result of a placement.

    The table has one size throughout the NoC, so a reservation of
    injection slot ``s`` is slot ``(s + d) % table_size`` on a link
    ``d`` slot shifts downstream: once route and slots are chosen, the
    per-link masks are fixed.  Construction checks the record and
    derives them, and the fingerprint, once.
    """

    spec: ChannelSpec
    path: Path
    slots: tuple[int, ...]
    table_size: int
    #: ``(link key, link mask)`` per traversed link, in route order: the
    #: injection-slot mask carried each hop's slot shift on.  The one
    #: per-link derivation: commit ORs these masks in, release clears
    #: them, validation and the fabric rollup read them.
    link_occupancy: tuple[tuple[tuple[str, str], int], ...] = field(
        init=False, compare=False, repr=False)
    #: In-process hash of what composability protects: the channel's
    #: name, its slot tuple and the links it traverses.  Two records
    #: with the same name, slots and route share a fingerprint, so an
    #: equal-but-replaced record reads as undisturbed.  String hashes
    #: vary with ``PYTHONHASHSEED``: the value is only comparable inside
    #: one process and is never serialised.
    fingerprint: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        name = self.spec.name
        slots = self.slots
        if not slots:
            raise AllocationError(
                f"channel {name!r} allocated zero slots", channel=name)
        # One pass: every slot an int, each above the one before it.
        ascending = type(slots) is tuple
        previous = None
        for slot in slots:
            if type(slot) is not int:
                raise AllocationError(
                    f"channel {name!r} slot {slot!r} is not an integer",
                    channel=name)
            if previous is not None and slot <= previous:
                ascending = False
            previous = slot
        if not ascending:
            raise AllocationError(
                f"channel {name!r} slots must be sorted and unique",
                channel=name)
        size = self.table_size
        if slots[0] < 0 or slots[-1] >= size:
            raise AllocationError(
                f"channel {name!r} slot "
                f"{slots[0] if slots[0] < 0 else slots[-1]} outside table "
                f"of size {size}",
                channel=name, reason="slot outside table")
        injection = slots_to_mask(slots, size)
        # A list, not a generator expression: a generator per record
        # raised churn_warm's peak RSS by 0.45 MB (~1 %).
        links = []
        for key, shift in zip(self.path.link_keys(), self.path.link_shifts):
            links.append((key, shifted_mask(injection, shift, size)))
        object.__setattr__(self, "link_occupancy", tuple(links))
        object.__setattr__(self, "fingerprint",
                           hash((name, slots, self.path.link_keys())))

    @property
    def n_slots(self) -> int:
        """Number of slots held per table rotation."""
        return len(self.slots)

    def worst_wait_slots(self) -> int:
        """Worst-case whole-slot injection wait (max cyclic gap)."""
        return worst_case_wait_slots(self.slots, self.table_size)

    def no_worse_than(self, before: ChannelAllocation) -> bool:
        """True when this reservation's bounds are no worse than
        ``before``'s: no fewer slots, and no more worst-case wait plus
        traversal slots.

        Integer-exact: at a fixed operating point the guaranteed
        throughput is monotone in the slot count and the latency bound
        in that slot sum, so no tolerance is involved.
        """
        return (self.n_slots >= before.n_slots
                and self.worst_wait_slots() + self.path.traversal_slots
                <= before.worst_wait_slots() + before.path.traversal_slots)

    def reserved_before(self, slot: int) -> int:
        """How many of this channel's injection slots occur before the
        absolute ``slot``, counting from slot 0 of the run."""
        rotations, phase = divmod(slot, self.table_size)
        return rotations * len(self.slots) + bisect_left(self.slots, phase)


class QuoteMemo(dict):
    """The quotes of one requirement at one operating point: a route's
    ``traversal_slots`` maps to the ``(n_slots, max_gap)`` that
    :func:`~repro.core.requirements.slots_for_channel` gives the
    requirement on it, or to the refusal's ``AllocationError.reason``.

    The arithmetic reads a route only through its traversal time, and a
    refusal's reason names no route, so every route of one traversal
    time — whatever its endpoints — shares one entry, made the first
    time :meth:`quote` meets that time.  Nothing here depends on
    occupancy: one memo serves every allocation at the operating point
    (``table_size``, ``frequency_hz``, ``fmt``) that ``point`` carries.
    """

    __slots__ = ("spec", "table_size", "frequency_hz", "fmt")

    def __init__(self, spec: ChannelSpec, point) -> None:
        super().__init__()
        #: the first channel of the requirement; only its throughput and
        #: latency are read
        self.spec = spec
        self.table_size = point.table_size
        self.frequency_hz = point.frequency_hz
        self.fmt = point.fmt

    def quote(self, path: Path) -> tuple[int, int | None] | str:
        """``(n_slots, max_gap)`` of the requirement on ``path``, or the
        reason no slots on it can meet the requirement."""
        quote = self.get(path.traversal_slots)
        if quote is None:
            try:
                quote = slots_for_channel(self.spec, path, self.table_size,
                                          self.frequency_hz, self.fmt)
            except AllocationError as exc:
                quote = exc.reason
            self[path.traversal_slots] = quote
        return quote


def place(link_masks: dict[tuple[str, str], int], spec: ChannelSpec,
          paths, quotes: QuoteMemo, choose, size: int,
          failures: list[str] | None = None
          ) -> tuple[ChannelAllocation, int] | None:
    """Place ``spec`` on the first of ``paths`` that can carry it.

    The only placement loop: per route, the slot count and gap
    constraint are read from ``quotes`` (the requirement's
    :class:`QuoteMemo`), every traversed link's occupancy mask is
    rotated back by the link's slot shift and ORed (the whole
    contention check is one OR per link), the free popcount is held
    against the slot count, and ``choose`` —
    :func:`~repro.core.slot_table.spread_slots` offline,
    :func:`~repro.core.slot_table.choose_slots_fast` online — picks
    slots under the gap constraint.  Returns the channel's
    :class:`ChannelAllocation` in a table of ``size`` slots and the
    width of its route's free intersection, or ``None``; nothing is
    committed.  Handed a ``failures`` list, it appends one reason per
    rejected route, in route order — the text of
    ``AllocationError.reason`` and of a ``dropped`` verdict.  ``choose``
    reads the free intersection as the mask itself.

    The NI's link holds slots 0 and 4 and the router's output link,
    one slot downstream, holds slot 2, so injection slots 0, 1 and 4
    are taken:

    >>> from types import SimpleNamespace
    >>> from repro.core.path import make_path
    >>> from repro.core.slot_table import choose_slots_fast
    >>> from repro.core.words import WordFormat
    >>> from repro.topology.builders import mesh
    >>> path = make_path(mesh(1, 1, nis_per_router=2), "ni0_0_0", ["r0_0"],
    ...                  "ni0_0_1")
    >>> point = SimpleNamespace(table_size=8, frequency_hz=500e6,
    ...                         fmt=WordFormat())
    >>> link_masks = {("ni0_0_0", "r0_0"): 0b10001,
    ...               ("r0_0", "ni0_0_1"): 0b00100}
    >>> spec = ChannelSpec("c", "a", "b", 1.0)
    >>> quotes = QuoteMemo(spec, point)
    >>> ca, width = place(link_masks, spec, [path], quotes,
    ...                   choose_slots_fast, 8)
    >>> ca.slots, width
    ((2,), 5)
    >>> ca.link_occupancy
    ((('ni0_0_0', 'r0_0'), 4), (('r0_0', 'ni0_0_1'), 8))
    >>> quotes
    {2: (1, None)}
    """
    full = (1 << size) - 1
    for path in paths:
        quote = quotes.quote(path)
        if isinstance(quote, str):
            if failures is not None:
                failures.append(f"{path!r}: {quote}")
            continue
        n_slots, max_gap = quote
        busy = 0
        for key, shift in zip(path.link_keys(), path.link_shifts):
            busy |= rotate_mask(link_masks[key], shift, size)
            if busy == full:
                break
        mask = full ^ busy
        width = mask.bit_count()
        if width < n_slots:
            if failures is not None:
                failures.append(f"{path!r}: {width} free slots < "
                                f"{n_slots} needed")
            continue
        slots = choose(mask, n_slots, size, max_gap=max_gap)
        if slots is None:
            if failures is not None:
                failures.append(f"{path!r}: free slots cannot "
                                f"satisfy gap <= {max_gap}")
            continue
        return ChannelAllocation(spec, path, slots, size), width
    return None
