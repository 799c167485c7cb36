"""Path selection for source routing.

Provides deterministic XY routing for meshes (the classic dimension-ordered
route, which is what the Æthereal tool flow defaults to), generic k-shortest
path enumeration for arbitrary topologies, and a congestion-aware variant
that weighs links by their current slot occupancy so the allocator can steer
later channels around crowded regions.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

from repro.core.exceptions import TopologyError
from repro.core.path import Path, make_path
from repro.topology.builders import router_coords
from repro.topology.graph import Topology, hop_distances

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
    """The first ``k`` loop-free router sequences between two routers,
    ordered by hop count with ties broken by the router name sequence.

    The enumeration is exact — one breadth-first pass from the
    destination for hop distances, then for each route length, shortest
    first, a depth-first walk in name order that never steps where the
    destination is out of reach in the hops left — and that order is what
    makes allocations, and everything derived from them (reports,
    admission decisions), reproducible across processes.

    The result depends on the two routers alone, not on which of their NIs
    asks; ``exclude_links`` names directed link keys that must not be
    traversed (the topology's shared geometry is read, never written).
    Disconnected endpoints raise :class:`TopologyError`.

    >>> from repro.topology.builders import mesh
    >>> k_shortest_routes(mesh(2, 2, nis_per_router=1), "r0_0", "r1_1", 2)
    [['r0_0', 'r0_1', 'r1_1'], ['r0_0', 'r1_0', 'r1_1']]
    """
    if k < 1:
        raise TopologyError(f"k must be >= 1, got {k}")
    topo.require_router(src_router)
    topo.require_router(dst_router)
    if src_router == dst_router:
        return [[src_router]]
    geometry = topo.geometry()
    succ, pred = geometry.succ, geometry.pred
    if exclude_links:
        succ = {u: [v for v in vs if (u, v) not in exclude_links]
                for u, vs in succ.items()}
        pred = {v: [u for u in us if (u, v) not in exclude_links]
                for v, us in pred.items()}
    to_dst = hop_distances(pred, dst_router)
    if src_router not in to_dst:
        raise TopologyError(
            f"no router path from {src_router!r} to {dst_router!r}")
    routes: list[list[str]] = []
    route = [src_router]

    def walk(hops_left: int) -> bool:
        """Collect, in name order, the routes that extend ``route`` to
        the destination in exactly ``hops_left`` hops; True once ``k``
        are held."""
        for nxt in succ[route[-1]]:
            # One hop is spent stepping there: the destination must be
            # within the rest (an unreachable router never is).
            if to_dst.get(nxt, hops_left) >= hops_left or nxt in route:
                continue
            if nxt == dst_router:
                if hops_left == 1:
                    routes.append([*route, nxt])
                    if len(routes) == k:
                        return True
                continue
            route.append(nxt)
            full = walk(hops_left - 1)
            route.pop()
            if full:
                return True
        return False

    # A loop-free route visits each router once: at most len(succ) - 1 hops.
    for hops in range(to_dst[src_router], len(succ)):
        if walk(hops):
            break
    return routes


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
    geometry = topo.geometry()
    # Bidirectional Dijkstra.  Which of several equal-cost routes wins is
    # decided by the visiting order — directions alternate, equal
    # distances leave the heap in the order they entered it, neighbours
    # are relaxed in name order — and early in an allocation most links
    # weigh exactly 1.0, so that order picks the candidate the allocator
    # tries first: it is part of every allocation's identity.
    neighbours = (geometry.succ, geometry.pred)
    settled: tuple[dict[str, float], ...] = ({}, {})
    seen = ({src_router: 0}, {dst_router: 0})
    parent = ({src_router: None}, {dst_router: None})
    fringe = ([(0, 0, src_router)], [(0, 1, dst_router)])
    pushed = 2
    best = meeting = None
    side = 1
    while fringe[0] and fringe[1]:
        side = 1 - side
        dist, _, node = heappop(fringe[side])
        if node in settled[side]:
            continue
        settled[side][node] = dist
        if node in settled[1 - side]:
            routers = [meeting]
            while (step := parent[0][routers[-1]]) is not None:
                routers.append(step)
            routers.reverse()
            while (step := parent[1][routers[-1]]) is not None:
                routers.append(step)
            return make_path(topo, src_ni, routers, dst_ni)
        for near in neighbours[side][node]:
            length = dist + (1.0 + link_weight(
                (node, near) if side == 0 else (near, node)))
            if near in settled[side]:
                if length < settled[side][near]:
                    raise TopologyError(
                        "contradictory paths found: negative link weight?")
            elif near not in seen[side] or length < seen[side][near]:
                seen[side][near] = length
                heappush(fringe[side], (length, pushed, near))
                pushed += 1
                parent[side][near] = node
                if near in seen[1 - side]:
                    through = length + seen[1 - side][near]
                    if best is None or best > through:
                        best, meeting = through, near
    raise TopologyError(
        f"no router path from {src_router!r} to {dst_router!r}")


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
