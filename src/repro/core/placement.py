"""The placement loop: fit one channel onto the first route that can carry it.

Every placement — offline extension (:class:`~repro.core.allocation.
SlotAllocator`), degraded-mode rerouting (:meth:`~repro.core.allocation.
Allocation.rebuild_excluding`) and online admission (:class:`~repro.
service.admission.AdmissionController`) — runs :func:`first_fit` over
:class:`RouteCandidate`\\ s built in one place (:func:`quote_routes`).
Only the candidate routes and the slot chooser differ between them.

The module sits below the allocation record: it reads link occupancy as
the ``link_masks`` dictionary and returns what it found, so each caller
builds and commits the :class:`~repro.core.allocation.ChannelAllocation`
itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.connection import ChannelSpec
from repro.core.exceptions import AllocationError
from repro.core.path import Path
from repro.core.requirements import slots_for_channel
from repro.core.slot_table import rotate_mask

__all__ = ["RouteCandidate", "RouteQuotes", "quote_routes", "first_fit"]


@dataclass(frozen=True, slots=True)
class RouteCandidate:
    """One admissible route of a requirement, with its slot arithmetic.

    Nothing here depends on occupancy or on a particular allocation:
    links are named by key, so one record serves every allocation
    compatible with the allocator that quoted it.
    """

    path: Path
    n_slots: int
    max_gap: int | None
    #: ``(link key, slot shift)`` per traversed link (``Path.hops``).
    hops: tuple[tuple[tuple[str, str], int], ...]
    #: Traversed link keys, for the degraded-mode exclusion check.
    link_keys: frozenset[tuple[str, str]]


def quote_routes(point, spec: ChannelSpec, paths,
                 failures: list[str] | None = None):
    """Lazily turn ``paths`` into the :class:`RouteCandidate` of ``spec``
    on each — the one place a (path, requirement) pair becomes slot
    arithmetic, at the operating point (``table_size``,
    ``frequency_hz``, ``fmt``) that ``point`` carries.

    The arithmetic reads a path only through its traversal time, and a
    refusal's reason names no path, so it runs once per distinct
    ``traversal_slots`` among the paths the consumer reaches.

    A path whose traversal alone breaks the latency requirement yields
    nothing; handed a ``failures`` list, its reason is appended the
    moment the consumer reaches it, so :func:`first_fit`'s own reasons
    interleave in candidate order.
    """
    size = point.table_size
    # traversal slots -> (n_slots, max_gap), or the refusal's reason
    by_traversal: dict[int, tuple[int, int | None] | str] = {}
    for path in paths:
        traversal = path.traversal_slots
        quote = by_traversal.get(traversal)
        if quote is None:
            try:
                quote = slots_for_channel(spec, path, size,
                                          point.frequency_hz, point.fmt)
            except AllocationError as exc:
                quote = exc.reason
            by_traversal[traversal] = quote
        if isinstance(quote, str):
            if failures is not None:
                failures.append(f"{path!r}: {quote}")
            continue
        yield RouteCandidate(path=path, n_slots=quote[0], max_gap=quote[1],
                             hops=path.hops, link_keys=path.link_key_set)


class RouteQuotes:
    """The :class:`RouteCandidate`\\ s of one (endpoints, requirement),
    quoted only as far as a placement has read them.

    Iterating yields them in candidate order, continuing
    :func:`quote_routes` where the furthest earlier iteration stopped: a
    route is quoted once however many admissions read the entry, and a
    route no placement reaches is never quoted.  Truth is "some route
    can meet the requirement".
    """

    __slots__ = ("_quotes", "_pending")

    def __init__(self, pending) -> None:
        self._quotes: list[RouteCandidate] = []
        #: the :func:`quote_routes` generator, ``None`` once drained
        self._pending = pending

    def __iter__(self):
        if self._pending is None:
            return iter(self._quotes)
        return self._continued()

    def _continued(self):
        quotes = self._quotes
        index = 0
        while True:
            if index == len(quotes):
                pending = self._pending
                quote = None if pending is None else next(pending, None)
                if quote is None:
                    self._pending = None
                    return
                quotes.append(quote)
            yield quotes[index]
            index += 1

    def __bool__(self) -> bool:
        return next(iter(self), None) is not None


def first_fit(link_masks: dict[tuple[str, str], int], candidates, choose,
              size: int, failures: list[str] | None = None
              ) -> tuple[RouteCandidate, tuple[int, ...], int] | None:
    """The first candidate route that can carry its requirement.

    The only placement loop: per :class:`RouteCandidate`, every
    traversed link's occupancy mask is rotated back by the link's slot
    shift and ORed (the whole contention check is one OR per link), the
    free popcount is held against the slot count, and ``choose`` —
    :func:`~repro.core.slot_table.spread_slots` offline,
    :func:`~repro.core.slot_table.choose_slots_fast` online — picks
    slots under the gap constraint.  Returns the winning candidate, the
    injection slots chosen on it and the width of its free
    intersection, or ``None``; nothing is committed.  Handed a
    ``failures`` list, it appends one reason per rejected candidate —
    the text of ``AllocationError.reason`` and of a ``dropped`` verdict.
    ``choose`` reads the free intersection as the mask itself.

    The NI's link holds slots 0 and 4 and the router's output link,
    one slot downstream, holds slot 2, so injection slots 0, 1 and 4
    are taken:

    >>> from types import SimpleNamespace
    >>> from repro.core.path import make_path
    >>> from repro.core.slot_table import choose_slots_fast
    >>> from repro.core.words import WordFormat
    >>> from repro.topology.builders import single_router
    >>> path = make_path(single_router(2), "ni0_0_0", ["r0_0"], "ni0_0_1")
    >>> point = SimpleNamespace(table_size=8, frequency_hz=500e6,
    ...                         fmt=WordFormat())
    >>> link_masks = {("ni0_0_0", "r0_0"): 0b10001,
    ...               ("r0_0", "ni0_0_1"): 0b00100}
    >>> quotes = quote_routes(point, ChannelSpec("c", "a", "b", 1.0), [path])
    >>> _, slots, width = first_fit(link_masks, quotes, choose_slots_fast, 8)
    >>> slots, width
    ((2,), 5)
    """
    full = (1 << size) - 1
    for cand in candidates:
        busy = 0
        for key, shift in cand.hops:
            busy |= rotate_mask(link_masks[key], shift, size)
            if busy == full:
                break
        mask = full ^ busy
        width = mask.bit_count()
        if width < cand.n_slots:
            if failures is not None:
                failures.append(f"{cand.path!r}: {width} free slots < "
                                f"{cand.n_slots} needed")
            continue
        slots = choose(mask, cand.n_slots, size, max_gap=cand.max_gap)
        if slots is None:
            if failures is not None:
                failures.append(f"{cand.path!r}: free slots cannot "
                                f"satisfy gap <= {cand.max_gap}")
            continue
        return cand, slots, width
    return None
