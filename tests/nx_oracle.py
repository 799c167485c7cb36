"""networkx as the test-local oracle of ``repro.topology``'s own searches.

``src/repro`` keeps its graph in plain dicts and searches it itself;
these are the library searches it replaced, kept where only tests
import them.  Every graph is built the way ``Topology.router_graph()``
built it — routers, then router-to-router links, both in sorted order —
because networkx's choice among equal-cost answers follows insertion
order.
"""

from __future__ import annotations

import networkx as nx

from repro.core.exceptions import TopologyError
from repro.core.path import make_path


def router_digraph(topo) -> nx.DiGraph:
    """The router subgraph of ``topo`` as a networkx digraph."""
    rg = nx.DiGraph()
    rg.add_nodes_from(topo.routers)
    for link in topo.links:
        if rg.has_node(link.src) and rg.has_node(link.dst):
            rg.add_edge(link.src, link.dst, link=link)
    return rg


def library_k_shortest_routes(topo, src_router, dst_router, k,
                              exclude_links=None):
    """``k_shortest_routes`` as it read while it searched through
    ``nx.shortest_simple_paths``: the tie group straddling the ``k``-th
    route collected up to a cap, sorted, truncated.  Returns the routes
    and whether the cap cut the collection short (the answer is then not
    the documented order)."""
    if src_router == dst_router:
        return [[src_router]], False
    rg = router_digraph(topo)
    if exclude_links:
        rg = nx.restricted_view(rg, (), exclude_links)
    routes: list[list[str]] = []
    cap = max(32, 4 * k)
    try:
        for routers in nx.shortest_simple_paths(rg, src_router, dst_router):
            if len(routes) >= k and len(routers) > len(routes[k - 1]):
                break  # past the tie group of the k-th path
            routes.append(routers)
            if len(routes) >= cap:
                break
    except nx.NetworkXNoPath:
        raise TopologyError(
            f"no router path from {src_router!r} to {dst_router!r}")
    routes.sort(key=lambda r: (len(r), r))
    return routes[:k], len(routes) >= cap


def library_k_shortest_paths(topo, src_ni, dst_ni, k):
    """``k_shortest_paths`` over :func:`library_k_shortest_routes`."""
    routes, capped = library_k_shortest_routes(
        topo, topo.attached_router(src_ni), topo.attached_router(dst_ni), k)
    assert not capped
    return [make_path(topo, src_ni, routers, dst_ni) for routers in routes]
