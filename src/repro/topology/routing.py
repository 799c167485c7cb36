"""Path selection for source routing.

Provides deterministic XY routing for meshes (the classic dimension-ordered
route, which is what the Æthereal tool flow defaults to), generic k-shortest
path enumeration for arbitrary topologies, and a congestion-aware variant
that weighs links by their current slot occupancy so the allocator can steer
later channels around crowded regions.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping

import networkx as nx

from repro.core.exceptions import TopologyError
from repro.core.path import Path, make_path
from repro.topology.builders import router_coords
from repro.topology.graph import Topology

__all__ = [
    "xy_route",
    "xy_path",
    "k_shortest_routes",
    "k_shortest_paths",
    "weighted_shortest_path",
    "merge_load_aware",
]


def xy_route(topo: Topology, src_router: str, dst_router: str) -> list[str]:
    """Dimension-ordered (X then Y) router sequence on a mesh.

    Requires the builder-stored ``x``/``y`` coordinates and the mesh links
    to exist; raises :class:`TopologyError` otherwise.
    """
    sx, sy = router_coords(topo, src_router)
    dx, dy = router_coords(topo, dst_router)
    route = [src_router]
    x, y = sx, sy
    while x != dx:
        x += 1 if dx > x else -1
        nxt = f"r{x}_{y}"
        if not topo.has_link(route[-1], nxt):
            raise TopologyError(
                f"XY routing expects mesh link {route[-1]!r} -> {nxt!r}")
        route.append(nxt)
    while y != dy:
        y += 1 if dy > y else -1
        nxt = f"r{x}_{y}"
        if not topo.has_link(route[-1], nxt):
            raise TopologyError(
                f"XY routing expects mesh link {route[-1]!r} -> {nxt!r}")
        route.append(nxt)
    return route


def xy_path(topo: Topology, src_ni: str, dst_ni: str) -> Path:
    """End-to-end XY-routed path between two NIs."""
    src_router = topo.attached_router(src_ni)
    dst_router = topo.attached_router(dst_ni)
    routers = xy_route(topo, src_router, dst_router)
    return make_path(topo, src_ni, routers, dst_ni)


def k_shortest_routes(topo: Topology, src_router: str, dst_router: str,
                      k: int, *,
                      exclude_links: frozenset[tuple[str, str]] | set |
                      None = None) -> list[list[str]]:
    """Up to ``k`` loop-free shortest router sequences between two routers.

    Routes are ordered by hop count with ties broken by the router name
    sequence.  networkx's enumeration order among equal-cost paths depends
    on ``PYTHONHASHSEED``, so the tie group straddling the ``k``-th route is
    collected in full (up to a generous cap) and sorted before truncation —
    this is what makes allocations, and everything derived from them
    (reports, admission decisions), reproducible across processes.

    The result depends on the two routers alone, not on which of their NIs
    asks; ``exclude_links`` names directed link keys that must not be
    traversed, hidden behind a view so the shared router graph is never
    edited.  Disconnected endpoints raise :class:`TopologyError`.

    >>> from repro.topology.builders import mesh
    >>> k_shortest_routes(mesh(2, 2, nis_per_router=1), "r0_0", "r1_1", 2)
    [['r0_0', 'r0_1', 'r1_1'], ['r0_0', 'r1_0', 'r1_1']]
    """
    if k < 1:
        raise TopologyError(f"k must be >= 1, got {k}")
    if src_router == dst_router:
        return [[src_router]]
    rg = topo.router_graph()
    if exclude_links:
        rg = nx.restricted_view(rg, (), exclude_links)
    routes: list[list[str]] = []
    cap = max(32, 4 * k)
    try:
        generator: Iterator[list[str]] = nx.shortest_simple_paths(
            rg, src_router, dst_router)
        for routers in generator:
            if len(routes) >= k and len(routers) > len(routes[k - 1]):
                break  # past the tie group of the k-th path
            routes.append(routers)
            if len(routes) >= cap:
                break
    except nx.NetworkXNoPath:
        raise TopologyError(
            f"no router path from {src_router!r} to {dst_router!r}")
    routes.sort(key=lambda r: (len(r), r))
    return routes[:k]


def k_shortest_paths(topo: Topology, src_ni: str, dst_ni: str,
                     k: int = 4, *,
                     exclude_links: frozenset[tuple[str, str]] | set |
                     None = None) -> list[Path]:
    """Up to ``k`` loop-free shortest router paths between two NIs:
    :func:`k_shortest_routes` between the routers the NIs hang off, each
    route attached to the two NIs (same order).

    ``exclude_links`` names directed link keys that must not be traversed
    (the fault-injection layer passes the failed set); a search whose NI
    attachment link is excluded, or whose endpoints are disconnected on the
    surviving graph, raises :class:`TopologyError` like any unroutable pair.

    >>> from repro.topology.builders import mesh
    >>> topo = mesh(2, 2, nis_per_router=1)
    >>> [p.routers for p in k_shortest_paths(topo, "ni0_0_0",
    ...                                      "ni1_1_0", 2)]
    [('r0_0', 'r0_1', 'r1_1'), ('r0_0', 'r1_0', 'r1_1')]
    >>> [p.routers for p in k_shortest_paths(
    ...     topo, "ni0_0_0", "ni1_1_0", 2,
    ...     exclude_links=frozenset({("r0_0", "r0_1")}))]
    [('r0_0', 'r1_0', 'r1_1')]
    """
    src_router = topo.attached_router(src_ni)
    dst_router = topo.attached_router(dst_ni)
    if exclude_links and ((src_ni, src_router) in exclude_links
                          or (dst_router, dst_ni) in exclude_links):
        raise TopologyError(
            f"NI attachment link of {src_ni!r} or {dst_ni!r} is "
            "excluded; no surviving route exists")
    return [make_path(topo, src_ni, routers, dst_ni)
            for routers in k_shortest_routes(
                topo, src_router, dst_router, k,
                exclude_links=exclude_links)]


def weighted_shortest_path(topo: Topology, src_ni: str, dst_ni: str,
                           link_weight: Callable[[tuple[str, str]], float]
                           ) -> Path:
    """Shortest path under a caller-supplied per-link weight.

    ``link_weight`` maps a directed link key to a non-negative cost; the
    allocator passes current slot occupancy so loaded links are avoided.
    """
    src_router = topo.attached_router(src_ni)
    dst_router = topo.attached_router(dst_ni)
    if src_router == dst_router:
        return make_path(topo, src_ni, [src_router], dst_ni)
    rg = topo.router_graph()

    def weight(u: str, v: str, _d: Mapping[str, object]) -> float:
        return 1.0 + link_weight((u, v))

    try:
        routers = nx.shortest_path(rg, src_router, dst_router, weight=weight)
    except nx.NetworkXNoPath:
        raise TopologyError(
            f"no router path from {src_router!r} to {dst_router!r}")
    return make_path(topo, src_ni, routers, dst_ni)


def merge_load_aware(paths: list[Path], weighted: Path) -> list[Path]:
    """Merge a load-aware route into a candidate list, in place.

    The load-aware path is prepended if it is not already among the
    candidates; otherwise the matching candidate is (stably) moved to the
    front — either way the least-congested route is tried first.
    """
    keys = {p.link_keys() for p in paths}
    if weighted.link_keys() not in keys:
        paths.insert(0, weighted)
    else:
        paths.sort(key=lambda p: p.link_keys() != weighted.link_keys())
    return paths
