"""NoC topology graph: routers, network interfaces, and directed links.

The topology is the structural substrate everything else builds on: the
allocator reserves slots on its links, the simulators instantiate one model
per node, and the synthesis model sums areas over its routers and link
pipeline stages.

Conventions
-----------
* Nodes are identified by unique string names.  Builders in
  :mod:`repro.topology.builders` use ``r{x}_{y}`` for mesh routers and
  ``ni{x}_{y}_{k}`` for their NIs, but any names work.
* Links are **directed**; a bidirectional cable is two links.
* Each link records the output-port index at its source and the input-port
  index at its destination.  Ports are numbered in connection order, giving
  a deterministic port map that the header encoding relies on.
* ``pipeline_stages`` on a link counts mesochronous link pipeline stages
  (Section V of the paper); each stage adds one TDM slot to the traversal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from repro.core.exceptions import TopologyError, require_whole

__all__ = ["NodeKind", "Link", "Topology", "RouteGeometry", "hop_distances"]


class NodeKind(enum.Enum):
    """The two node types of an aelite network."""

    ROUTER = "router"
    NI = "ni"


@dataclass(frozen=True)
class Link:
    """A directed physical link.

    Attributes
    ----------
    src, dst:
        Node names of the driving and receiving element.
    src_port:
        Output-port index at the source (0 for an NI, which has a single
        network-facing port).
    dst_port:
        Input-port index at the destination.
    pipeline_stages:
        Number of mesochronous link pipeline stages on this link; each one
        delays the flit by exactly one TDM slot (three cycles).
    """

    src: str
    dst: str
    src_port: int
    dst_port: int
    pipeline_stages: int = 0
    #: Dictionary key ``(src, dst)`` identifying this link: one tuple
    #: per link, shared by every path and record that names the link.
    key: tuple[str, str] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (self.src, self.dst))

    def __repr__(self) -> str:
        stages = f" +{self.pipeline_stages}ps" if self.pipeline_stages else ""
        return (f"Link({self.src}[p{self.src_port}] -> "
                f"{self.dst}[p{self.dst_port}]{stages})")


def hop_distances(adjacency: Mapping[str, Iterable[str]],
                  source: str) -> dict[str, int]:
    """Breadth-first hop counts from ``source`` to every node it reaches
    over ``adjacency`` (node -> neighbours), in discovery order."""
    dist = {source: 0}
    level = [source]
    while level:
        reached = []
        for node in level:
            for neighbour in adjacency[node]:
                if neighbour not in dist:
                    dist[neighbour] = dist[node] + 1
                    reached.append(neighbour)
        level = reached
    return dist


class RouteGeometry:
    """What route searches derive from a topology's structure.

    Owned by the :class:`Topology` for one :attr:`~Topology.revision`
    and dropped whole by the next structural write, so everything built
    over one topology object at one revision shares it and nothing in it
    can describe an older fabric.

    Attributes
    ----------
    succ, pred:
        Router -> its downstream / upstream routers in name order (NIs
        left out).  Read-only.
    neighbours:
        The two merged: the adjacency with link direction ignored.
        Read-only.
    routes:
        ``k -> (src router, dst router) ->`` the first ``k`` routes of
        :func:`~repro.topology.routing.k_shortest_routes` on the whole
        fabric, as router-name tuples that every path over the route
        shares, filled by whoever searches first.
    paths:
        ``(k, header hop budget) -> (src NI, dst NI) ->`` those routes as
        header-encodable :class:`~repro.core.path.Path` tuples.
    """

    __slots__ = ("succ", "pred", "neighbours", "routes", "paths")

    def __init__(self, topo: "Topology"):
        routers = topo.routers
        is_router = frozenset(routers).__contains__
        self.succ = MappingProxyType(
            {r: tuple(filter(is_router, topo.successors(r)))
             for r in routers})
        self.pred = MappingProxyType(
            {r: tuple(filter(is_router, topo.predecessors(r)))
             for r in routers})
        self.neighbours = MappingProxyType(
            {r: tuple(sorted({*self.succ[r], *self.pred[r]}))
             for r in routers})
        self.routes: dict[int, dict] = {}
        self.paths: dict[tuple[int, int], dict] = {}


class Topology:
    """Mutable NoC structure with validation and convenience queries."""

    def __init__(self, name: str = "noc"):
        self.name = name
        self._nodes: dict[str, dict[str, object]] = {}
        self._succ: dict[str, dict[str, Link]] = {}
        self._pred: dict[str, dict[str, Link]] = {}
        self._next_out_port: dict[str, int] = {}
        self._next_in_port: dict[str, int] = {}
        self._revision = 0
        self._geometry: RouteGeometry | None = None
        # sorted views of this revision, built on first read
        self._routers: tuple[str, ...] | None = None
        self._nis: tuple[str, ...] | None = None
        self._links: tuple[Link, ...] | None = None

    # -- construction -------------------------------------------------------

    def add_router(self, name: str, **attrs: object) -> None:
        """Add a router node; extra attributes (e.g. mesh coords) are kept."""
        self._add_node(name, NodeKind.ROUTER, attrs)

    def add_ni(self, name: str, **attrs: object) -> None:
        """Add a network-interface node."""
        self._add_node(name, NodeKind.NI, attrs)

    def _add_node(self, name: str, kind: NodeKind,
                  attrs: Mapping[str, object]) -> None:
        if not name:
            raise TopologyError("node name must be non-empty")
        if name in self._nodes:
            raise TopologyError(f"duplicate node name {name!r}")
        self._nodes[name] = dict(kind=kind, **attrs)
        self._succ[name] = {}
        self._pred[name] = {}
        self._next_out_port[name] = 0
        self._next_in_port[name] = 0
        self._modified()

    def connect(self, src: str, dst: str, *, pipeline_stages: int = 0) -> Link:
        """Add a directed link, auto-assigning the next free port numbers."""
        self._require_node(src)
        self._require_node(dst)
        if src == dst:
            raise TopologyError(f"self-loop on {src!r} is not allowed")
        if dst in self._succ[src]:
            raise TopologyError(f"link {src!r} -> {dst!r} already exists")
        if pipeline_stages < 0:
            raise TopologyError("pipeline_stages must be >= 0")
        stages = require_whole("pipeline_stages", pipeline_stages, 0)
        if self.kind(src) is NodeKind.NI and self.kind(dst) is NodeKind.NI:
            raise TopologyError(
                f"NIs may not be directly connected ({src!r} -> {dst!r})")
        link = Link(src=src, dst=dst,
                    src_port=self._take_out_port(src),
                    dst_port=self._take_in_port(dst),
                    pipeline_stages=stages)
        self._store(link)
        return link

    def connect_bidir(self, a: str, b: str, *,
                      pipeline_stages: int = 0) -> tuple[Link, Link]:
        """Add links in both directions and return ``(a->b, b->a)``."""
        return (self.connect(a, b, pipeline_stages=pipeline_stages),
                self.connect(b, a, pipeline_stages=pipeline_stages))

    def set_pipeline_stages(self, src: str, dst: str, stages: int) -> Link:
        """Replace the pipeline-stage count of an existing link."""
        old = self.link(src, dst)
        if stages < 0:
            raise TopologyError("pipeline_stages must be >= 0")
        stages = require_whole("pipeline_stages", stages, 0)
        new = Link(src=old.src, dst=old.dst, src_port=old.src_port,
                   dst_port=old.dst_port, pipeline_stages=stages)
        self._store(new)
        return new

    def _store(self, link: Link) -> None:
        self._succ[link.src][link.dst] = link
        self._pred[link.dst][link.src] = link
        self._modified()

    def _modified(self) -> None:
        self._revision += 1
        self._geometry = None
        self._routers = self._nis = self._links = None

    def _take_out_port(self, node: str) -> int:
        if self.kind(node) is NodeKind.NI:
            if self._next_out_port[node] > 0:
                raise TopologyError(
                    f"NI {node!r} already has a network-facing output link")
            self._next_out_port[node] = 1
            return 0
        port = self._next_out_port[node]
        self._next_out_port[node] = port + 1
        return port

    def _take_in_port(self, node: str) -> int:
        if self.kind(node) is NodeKind.NI:
            if self._next_in_port[node] > 0:
                raise TopologyError(
                    f"NI {node!r} already has a network-facing input link")
            self._next_in_port[node] = 1
            return 0
        port = self._next_in_port[node]
        self._next_in_port[node] = port + 1
        return port

    # -- queries ------------------------------------------------------------

    @property
    def revision(self) -> int:
        """Count of structural writes so far.  What was derived from the
        topology at one revision (its :meth:`geometry`, an allocator's
        view of it) is stale at the next."""
        return self._revision

    def geometry(self) -> RouteGeometry:
        """The :class:`RouteGeometry` of this revision: built on the
        first read after a structural write, the same object until the
        next one."""
        geometry = self._geometry
        if geometry is None:
            geometry = self._geometry = RouteGeometry(self)
        return geometry

    def __getstate__(self) -> dict[str, object]:
        # Derived, and the geometry holds read-only views that do not
        # pickle: a copy rebuilds them on its first read.
        return {**self.__dict__, "_geometry": None, "_routers": None,
                "_nis": None, "_links": None}

    def kind(self, name: str) -> NodeKind:
        """Node kind of ``name``."""
        self._require_node(name)
        return self._nodes[name]["kind"]  # type: ignore[return-value]

    def node_attrs(self, name: str) -> Mapping[str, object]:
        """All attributes stored on a node (includes ``kind``), as a
        read-only view."""
        self._require_node(name)
        return MappingProxyType(self._nodes[name])

    def _of_kind(self, kind: NodeKind) -> tuple[str, ...]:
        return tuple(sorted(n for n, attrs in self._nodes.items()
                            if attrs["kind"] is kind))

    @property
    def routers(self) -> tuple[str, ...]:
        """All router names, sorted for determinism (sorted once per
        revision)."""
        if self._routers is None:
            self._routers = self._of_kind(NodeKind.ROUTER)
        return self._routers

    @property
    def nis(self) -> tuple[str, ...]:
        """All NI names, sorted for determinism (sorted once per
        revision)."""
        if self._nis is None:
            self._nis = self._of_kind(NodeKind.NI)
        return self._nis

    @property
    def links(self) -> tuple[Link, ...]:
        """All directed links, sorted by ``(src, dst)`` (sorted once per
        revision)."""
        if self._links is None:
            self._links = tuple(sorted(
                (link for out in self._succ.values()
                 for link in out.values()), key=lambda l: l.key))
        return self._links

    def link(self, src: str, dst: str) -> Link:
        """The link ``src -> dst``; raises :class:`TopologyError` if absent."""
        try:
            return self._succ[src][dst]
        except KeyError:
            raise TopologyError(f"no link {src!r} -> {dst!r}") from None

    def has_link(self, src: str, dst: str) -> bool:
        """True when a directed link ``src -> dst`` exists."""
        return dst in self._succ.get(src, ())

    def successors(self, name: str) -> tuple[str, ...]:
        """Downstream neighbours, sorted."""
        self._require_node(name)
        return tuple(sorted(self._succ[name]))

    def predecessors(self, name: str) -> tuple[str, ...]:
        """Upstream neighbours, sorted."""
        self._require_node(name)
        return tuple(sorted(self._pred[name]))

    def require_router(self, name: str) -> None:
        """Raise :class:`TopologyError` unless ``name`` is a router."""
        if self.kind(name) is not NodeKind.ROUTER:
            raise TopologyError(f"{name!r} is not a router")

    def arity(self, router: str) -> int:
        """Port count of a router: ``max(#inputs, #outputs)``."""
        self.require_router(router)
        return max(len(self._pred[router]), len(self._succ[router]))

    def attached_router(self, ni: str) -> str:
        """The router an NI is cabled to (validated to be unique)."""
        if self.kind(ni) is not NodeKind.NI:
            raise TopologyError(f"{ni!r} is not an NI")
        succ = list(self._succ[ni])
        if len(succ) != 1:
            raise TopologyError(
                f"NI {ni!r} must have exactly one outgoing link, has {len(succ)}")
        return succ[0]

    def nis_of_router(self, router: str) -> tuple[str, ...]:
        """All NIs attached to ``router``, sorted."""
        self.require_router(router)
        return tuple(sorted(n for n in self._pred[router]
                            if self.kind(n) is NodeKind.NI))

    def neighbor_on_port(self, router: str, out_port: int) -> str:
        """Inverse of :meth:`out_port`: which node hangs off a given port."""
        self._require_node(router)
        for link in self._succ[router].values():
            if link.src_port == out_port:
                return link.dst
        raise TopologyError(f"router {router!r} has no output port {out_port}")

    def iter_link_keys(self) -> Iterator[tuple[str, str]]:
        """Iterate directed link keys, sorted."""
        for link in self.links:
            yield link.key

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raises :class:`TopologyError`.

        * every NI has exactly one outgoing and one incoming link, both to
          a router;
        * the router subgraph is weakly connected (if there are >= 2
          routers);
        * every router has at least one input and one output.
        """
        for ni in self.nis:
            out = list(self._succ[ni])
            inc = list(self._pred[ni])
            if len(out) != 1 or len(inc) != 1:
                raise TopologyError(
                    f"NI {ni!r} needs exactly one link each way, has "
                    f"{len(out)} out / {len(inc)} in")
            if self.kind(out[0]) is not NodeKind.ROUTER or \
                    self.kind(inc[0]) is not NodeKind.ROUTER:
                raise TopologyError(f"NI {ni!r} must attach to a router")
        routers = self.routers
        if len(routers) >= 2 and len(hop_distances(
                self.geometry().neighbours, routers[0])) < len(routers):
            raise TopologyError("router network is not connected")
        for r in routers:
            if not self._pred[r] or not self._succ[r]:
                raise TopologyError(f"router {r!r} has a dangling side")

    # -- internals ----------------------------------------------------------

    def _require_node(self, name: str) -> None:
        if name not in self._nodes:
            raise TopologyError(f"unknown node {name!r}")

    def __repr__(self) -> str:
        return (f"Topology({self.name!r}: {len(self.routers)} routers, "
                f"{len(self.nis)} NIs, {len(self.links)} links)")
