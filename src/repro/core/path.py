"""Source-routed paths and their slot arithmetic.

aelite uses source routing: the injecting NI writes the sequence of router
output ports into the packet header, and each router's HPU consumes one
entry.  A :class:`Path` records the traversed routers and links, and knows
the *slot shift* of every link: the number of TDM slots between injection
and the flit's appearance on that link.

Shift rules (Sections III and V of the paper):

* the NI's output link (link 0) carries the flit in its injection slot
  (shift 0);
* traversing a router takes one flit cycle, so the link after a router is
  used one slot later than the link before it;
* each mesochronous link pipeline stage adds one further slot, *after* the
  link it sits on is traversed (the stage re-aligns the flit into the next
  slot before presenting it to the following element).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.exceptions import ConfigurationError, TopologyError
from repro.core.words import WordFormat, encode_path

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.topology.graph import Link, Topology

__all__ = ["Path", "make_path"]


@dataclass(frozen=True, slots=True)
class Path:
    """An end-to-end route from a source NI to a destination NI.

    ``links`` has ``len(routers) + 1`` entries: NI -> R0, R0 -> R1, ...,
    R_last -> NI.  Construction validates the chaining and derives the
    route's slot arithmetic once: every fault check, rebuild,
    fingerprint and route candidate reads it, and the link keys it
    holds are the links' own :attr:`~repro.topology.graph.Link.key`
    tuples, not copies.
    """

    source: str
    dest: str
    routers: tuple[str, ...]
    links: tuple["Link", ...]
    #: Slot shift of each link relative to the injection slot:
    #: ``link_shifts[i]`` is the number of slots after injection at
    #: which a flit occupies ``links[i]``.
    link_shifts: tuple[int, ...] = field(
        init=False, compare=False, repr=False)
    #: Slots from injection until the flit enters the destination NI:
    #: the flit traverses the final link at ``link_shifts[-1]``, and any
    #: pipeline stages on that link add further slots; delivery
    #: completes at the end of that slot.
    arrival_shift: int = field(init=False, compare=False, repr=False)
    _keys: tuple[tuple[str, str], ...] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        links = self.links
        if len(links) != len(self.routers) + 1:
            raise ConfigurationError(
                f"path needs {len(self.routers) + 1} links for "
                f"{len(self.routers)} routers, got {len(links)}")
        expected = [self.source, *self.routers, self.dest]
        # One pass checks the chaining and sums the shifts: +1 for the
        # router after each link but the last, plus any pipeline stages
        # sitting on it.
        shifts = []
        shift = 0
        for i, link in enumerate(links):
            if link.src != expected[i] or link.dst != expected[i + 1]:
                raise ConfigurationError(
                    f"link {i} of path {self.source}->{self.dest} is {link}, "
                    f"expected {expected[i]} -> {expected[i + 1]}")
            shifts.append(shift)
            shift += 1 + link.pipeline_stages
        keys = tuple([link.key for link in links])
        object.__setattr__(self, "link_shifts", tuple(shifts))
        # The last link's stages delay delivery, but no router follows.
        object.__setattr__(self, "arrival_shift", shift - 1)
        object.__setattr__(self, "_keys", keys)

    # -- geometry -----------------------------------------------------------

    @property
    def out_ports(self) -> tuple[int, ...]:
        """Router output ports in traversal order — the header source route."""
        return tuple(l.src_port for l in self.links[1:])

    def header_path_field(self, fmt: WordFormat) -> int:
        """Encode the source route for a packet header."""
        return encode_path(self.out_ports, fmt)

    # -- slot arithmetic ----------------------------------------------------

    @property
    def traversal_slots(self) -> int:
        """Whole slots from the start of injection to complete delivery.

        ``arrival_shift`` slots of shifting plus the delivery slot itself.
        """
        return self.arrival_shift + 1

    def traversal_cycles(self, fmt: WordFormat) -> int:
        """Path traversal time in cycles (excludes NI waiting time)."""
        return self.traversal_slots * fmt.flit_size

    # -- misc ---------------------------------------------------------------

    def link_keys(self) -> tuple[tuple[str, str], ...]:
        """Dictionary keys of all traversed links, in order: each is the
        link's own :attr:`~repro.topology.graph.Link.key`."""
        return self._keys

    def __repr__(self) -> str:
        hops = " -> ".join([self.source, *self.routers, self.dest])
        return f"Path({hops})"


def make_path(topo: "Topology", source_ni: str,
              routers: Sequence[str], dest_ni: str) -> Path:
    """Build a :class:`Path` through ``routers`` using topology port data.

    Raises :class:`TopologyError` when any required link is missing.
    """
    if not routers:
        raise TopologyError(
            f"a path from {source_ni!r} to {dest_ni!r} needs at least one router")
    nodes = [source_ni, *routers, dest_ni]
    links = []
    for a, b in zip(nodes, nodes[1:]):
        links.append(topo.link(a, b))
    # ``tuple`` of a tuple is that tuple: a cached route is shared by
    # every path over it.
    return Path(source=source_ni, dest=dest_ni,
                routers=tuple(routers), links=tuple(links))
