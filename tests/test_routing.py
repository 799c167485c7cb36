"""The topology's own graph searches against networkx, the oracle.

``repro.topology`` enumerates k-shortest routes, runs its bidirectional
Dijkstra and measures hop distances on plain dicts; here each is held,
answer for answer and order for order, to the library call it replaced
(:mod:`nx_oracle`), on random digraphs — connected or not, links
connected in random order, random exclusions — and on the builder
families the allocator tests draw.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

from nx_oracle import library_k_shortest_routes, router_digraph
from repro.core.allocation import PATH_CANDIDATES
from repro.core.connection import MB, ChannelSpec
from repro.core.exceptions import TopologyError
from repro.topology.builders import mesh
from repro.topology.graph import Topology
from repro.topology.mapping import communication_clustered, router_distances
from repro.topology.routing import (k_shortest_routes,
                                    weighted_shortest_path)
from test_allocation import BUILDERS

#: Names whose string order is not their numeric order.
NAMES = ("a", "b", "r1", "r10", "r2", "x_0", "x_00")

#: Ties are the common case: equal weights, zero, and the allocator's
#: own "failed fabric" weight.
WEIGHTS = (0, 0.125, 0.5, 4.0, 1e9)


@st.composite
def digraphs(draw) -> tuple[Topology, frozenset]:
    """Up to seven routers, any set of directed links connected in drawn
    order, one NI per router; plus a subset of the links to exclude."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=2, unique=True))
    pairs = [(u, v) for u in names for v in names if u != v]
    links = draw(st.lists(st.sampled_from(pairs), unique=True))
    topo = Topology("random")
    for name in names:
        topo.add_router(name)
    for src, dst in links:
        topo.connect(src, dst)
    for name in names:
        topo.add_ni(f"ni_{name}")
        topo.connect_bidir(f"ni_{name}", name)
    excluded = draw(st.frozensets(st.sampled_from(links))) if links \
        else frozenset()
    return topo, excluded


def _ordered(routes):
    return sorted(routes, key=lambda route: (len(route), route))


class TestKShortestRoutes:
    @settings(max_examples=150, deadline=None)
    @given(drawn=digraphs(), k=st.integers(1, 6))
    def test_equals_the_first_k_of_every_simple_path(self, drawn, k):
        topo, excluded = drawn
        graph = router_digraph(topo)
        graph.remove_edges_from(excluded)
        before = topo.revision
        for src in topo.routers:
            assert k_shortest_routes(topo, src, src, k,
                                     exclude_links=excluded) == [[src]]
            for dst in topo.routers:
                if src == dst:
                    continue
                expected = _ordered(
                    nx.all_simple_paths(graph, src, dst))[:k]
                if expected:
                    assert k_shortest_routes(
                        topo, src, dst, k,
                        exclude_links=excluded) == expected
                else:
                    with pytest.raises(TopologyError,
                                       match="no router path"):
                        k_shortest_routes(topo, src, dst, k,
                                          exclude_links=excluded)
        assert topo.revision == before

    @settings(max_examples=30, deadline=None)
    @given(topo=BUILDERS, seed=st.integers(0, 10_000))
    def test_builder_families_equal_the_library_search(self, topo, seed):
        rng = random.Random(seed)
        keys = [link.key for link in topo.links]
        excluded = frozenset(rng.sample(keys, rng.randint(0, min(3, len(keys)))))
        compared = 0
        for src in topo.routers:
            for dst in topo.routers:
                for cut in (None, excluded):
                    try:
                        expected, capped = library_k_shortest_routes(
                            topo, src, dst, PATH_CANDIDATES, cut)
                    except TopologyError:
                        with pytest.raises(TopologyError):
                            k_shortest_routes(topo, src, dst,
                                              PATH_CANDIDATES,
                                              exclude_links=cut)
                        continue
                    if not capped:
                        compared += 1
                        assert k_shortest_routes(
                            topo, src, dst, PATH_CANDIDATES,
                            exclude_links=cut) == expected
        assert compared >= len(topo.routers) ** 2

    def test_order_holds_past_tie_groups_of_32(self):
        """252 equal shortest routes cross a 6x6 mesh corner to corner;
        the library search sorted whichever 32 it met first."""
        topo = mesh(6, 6)
        routes = k_shortest_routes(topo, "r0_0", "r5_5", 4)
        every = _ordered(nx.all_shortest_paths(router_digraph(topo),
                                               "r0_0", "r5_5"))
        assert len(every) == 252
        assert routes == every[:4]
        assert routes[3][4:9] == ["r0_4", "r1_4", "r2_4", "r3_4", "r3_5"]
        library, capped = library_k_shortest_routes(topo, "r0_0", "r5_5", 4)
        assert capped and library != routes

    def test_k_must_be_positive(self):
        with pytest.raises(TopologyError, match="k must be >= 1"):
            k_shortest_routes(mesh(2, 2), "r0_0", "r1_1", 0)


class TestWeightedShortestPath:
    """Not just an equal-cost route: the one the library's bidirectional
    Dijkstra settles on, because the allocator tries it first."""

    @staticmethod
    def _check(topo, weights):
        graph = router_digraph(topo)

        def weight(u, v, _data):
            return 1.0 + weights[u, v]

        for src in topo.nis:
            for dst in topo.nis:
                if src == dst:
                    continue
                ends = (topo.attached_router(src), topo.attached_router(dst))
                try:
                    expected = nx.shortest_path(graph, *ends, weight=weight)
                except nx.NetworkXNoPath:
                    with pytest.raises(TopologyError,
                                       match="no router path"):
                        weighted_shortest_path(topo, src, dst,
                                               weights.__getitem__)
                    continue
                path = weighted_shortest_path(topo, src, dst,
                                              weights.__getitem__)
                assert list(path.routers) == expected
                assert (path.source, path.dest) == (src, dst)

    @settings(max_examples=150, deadline=None)
    @given(drawn=digraphs(), data=st.data())
    def test_random_digraphs(self, drawn, data):
        topo, _ = drawn
        self._check(topo, {link.key: data.draw(st.sampled_from(WEIGHTS))
                           for link in topo.links})

    @settings(max_examples=30, deadline=None)
    @given(topo=BUILDERS, seed=st.integers(0, 10_000))
    def test_builder_families(self, topo, seed):
        rng = random.Random(seed)
        self._check(topo, {link.key: rng.choice(WEIGHTS)
                           for link in topo.links})

    def test_negative_weight_is_still_diagnosed(self):
        """Relaxing back onto a settled router with a shorter distance
        is the library's (and the port's) sign of a negative weight."""
        topo = mesh(3, 1, nis_per_router=1)
        weights = {link.key: 0.0 for link in topo.links}
        weights["r1_0", "r0_0"] = -5.0
        for error, search in (
                (ValueError, lambda: nx.shortest_path(
                    router_digraph(topo), "r0_0", "r2_0",
                    weight=lambda u, v, _data: 1.0 + weights[u, v])),
                (TopologyError, lambda: weighted_shortest_path(
                    topo, "ni0_0_0", "ni2_0_0", weights.__getitem__))):
            with pytest.raises(error, match="negative"):
                search()


def _items(distances):
    return [(src, list(row.items())) for src, row in distances.items()]


class TestDistancesAndConnectivity:
    @settings(max_examples=150, deadline=None)
    @given(drawn=digraphs())
    def test_equal_the_library_breadth_first_searches(self, drawn):
        """In the directed reading (dict order included: name order is
        the library's insertion order) and the direction-blind one;
        ``validate()`` refuses exactly the fabrics that are not weakly
        connected."""
        topo, _ = drawn
        graph = router_digraph(topo)
        assert _items(router_distances(topo)) == _items({
            router: nx.single_source_shortest_path_length(graph, router)
            for router in topo.routers})
        assert router_distances(topo, directed=False) == dict(
            nx.all_pairs_shortest_path_length(graph.to_undirected()))
        if nx.is_weakly_connected(graph):
            topo.validate()
        else:
            with pytest.raises(TopologyError, match="not connected"):
                topo.validate()

    @settings(max_examples=30, deadline=None)
    @given(topo=BUILDERS)
    def test_clustering_places_by_the_direction_blind_distances(self, topo):
        """``communication_clustered`` puts a channel's second endpoint
        on the router nearest the first by those distances (dict order
        included where every link has its reverse)."""
        assume(len(topo.nis) >= 2)
        dist = dict(nx.all_pairs_shortest_path_length(
            router_digraph(topo).to_undirected()))
        assert _items(router_distances(topo, directed=False)) == _items(dist)
        ips = [f"ip{i}" for i in range(len(topo.nis))]
        channels = [ChannelSpec("c", ips[0], ips[-1], 10 * MB)]
        # One IP per NI: the uniform capacity is one.
        mapping = communication_clustered(ips, channels, topo)
        first, second = (topo.attached_router(mapping.ni_of(ip))
                         for ip in (ips[0], ips[-1]))
        taken = mapping.ni_of(ips[0])
        assert dist[first][second] == min(
            dist[first][topo.attached_router(ni)]
            for ni in topo.nis if ni != taken)
