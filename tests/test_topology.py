"""Unit tests for the topology graph, builders, mapping and routing."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.core.allocation import SlotAllocator
from repro.core.connection import MB, ChannelSpec
from repro.core.exceptions import TopologyError
from repro.core.path import make_path
from repro.core.words import WordFormat
from repro.topology.builders import (concentrated_mesh, custom, line, mesh,
                                     ring, router_coords, single_router,
                                     torus)
from repro.topology.graph import Link, NodeKind, Topology
from repro.topology.mapping import (Mapping, communication_clustered,
                                    round_robin, traffic_balanced)
from repro.topology.routing import (k_shortest_paths, k_shortest_routes,
                                    merge_load_aware,
                                    weighted_shortest_path, xy_path,
                                    xy_route)


class TestTopologyGraph:
    def test_connect_assigns_sequential_ports(self):
        topo = Topology()
        topo.add_router("r0")
        topo.add_router("r1")
        topo.add_router("r2")
        l1 = topo.connect("r0", "r1")
        l2 = topo.connect("r0", "r2")
        assert (l1.src_port, l2.src_port) == (0, 1)

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_router("r0")
        with pytest.raises(TopologyError):
            topo.add_ni("r0")

    def test_duplicate_link_rejected(self):
        topo = Topology()
        topo.add_router("a")
        topo.add_router("b")
        topo.connect("a", "b")
        with pytest.raises(TopologyError):
            topo.connect("a", "b")

    def test_self_loop_rejected(self):
        topo = Topology()
        topo.add_router("a")
        with pytest.raises(TopologyError):
            topo.connect("a", "a")

    def test_ni_to_ni_rejected(self):
        topo = Topology()
        topo.add_ni("n0")
        topo.add_ni("n1")
        with pytest.raises(TopologyError):
            topo.connect("n0", "n1")

    def test_ni_single_port(self):
        topo = Topology()
        topo.add_ni("n")
        topo.add_router("r0")
        topo.add_router("r1")
        topo.connect("n", "r0")
        with pytest.raises(TopologyError):
            topo.connect("n", "r1")

    def test_arity(self):
        topo = mesh(2, 2, nis_per_router=1)
        # Corner router: 2 mesh neighbours + 1 NI = arity 3.
        assert topo.arity("r0_0") == 3

    def test_attached_router(self):
        topo = mesh(2, 1, nis_per_router=2)
        assert topo.attached_router("ni0_0_1") == "r0_0"

    def test_nis_of_router(self):
        topo = mesh(2, 1, nis_per_router=2)
        assert topo.nis_of_router("r1_0") == ("ni1_0_0", "ni1_0_1")

    def test_neighbor_on_port_inverse(self):
        topo = mesh(2, 2, nis_per_router=1)
        for link in topo.links:
            if topo.kind(link.src) is NodeKind.ROUTER:
                assert topo.neighbor_on_port(link.src,
                                             link.src_port) == link.dst

    def test_validation_catches_dangling_ni(self):
        topo = Topology()
        topo.add_router("r")
        topo.add_ni("n")
        topo.connect("n", "r")  # missing reverse direction
        with pytest.raises(TopologyError):
            topo.validate()

    @pytest.mark.parametrize("build", [
        lambda: mesh(2, 2, nis_per_router=1),
        lambda: concentrated_mesh(2, 2, nis_per_router=4),
        lambda: torus(3, 3, nis_per_router=1),
        lambda: ring(4, nis_per_router=2)],
        ids=["mesh", "concentrated_mesh", "torus", "ring"])
    def test_roundtrip_keeps_the_mesh(self, build):
        """Coordinates survive a pickled or deep copy of every builder's
        topology, and with them XY routing and the design pruner's
        bisection bound."""
        from repro.campaign.spec import WorkloadSpec
        from repro.design.prune import prune_candidate
        topo = build()
        use_case, mapping = WorkloadSpec(
            n_channels=6, n_ips=len(topo.nis)).build(topo, 3)
        first, last = topo.nis[0], topo.nis[-1]
        verdict = prune_candidate(topo, use_case, mapping, table_size=4,
                                  frequency_hz=10e6)
        assert verdict.reasons  # a verdict with something to lose
        for clone in (pickle.loads(pickle.dumps(topo)),
                      copy.deepcopy(topo)):
            for router in topo.routers:
                assert router_coords(clone, router) == \
                    router_coords(topo, router)
            assert xy_path(clone, first, last) == \
                xy_path(topo, first, last)
            assert prune_candidate(clone, use_case, mapping, table_size=4,
                                   frequency_hz=10e6) == verdict

    def test_set_pipeline_stages(self):
        topo = mesh(2, 1, nis_per_router=1)
        updated = topo.set_pipeline_stages("r0_0", "r1_0", 3)
        assert updated.pipeline_stages == 3
        assert topo.link("r0_0", "r1_0").pipeline_stages == 3


class TestRouterGraphMemo:
    """`geometry()` is built once per revision, shared and read-only:
    it can neither go stale nor be edited."""

    SRC, DST = "ni0_0_0", "ni1_1_0"

    def test_built_once_until_a_write(self):
        topo = mesh(2, 2, nis_per_router=1)
        assert topo.geometry() is topo.geometry()

    def test_new_router_and_links_are_seen_after_a_read(self):
        topo = mesh(2, 2, nis_per_router=1)
        before = topo.geometry()
        assert len(k_shortest_paths(topo, self.SRC, self.DST, 4)) == 2
        topo.add_router("hub")
        topo.connect_bidir("r0_0", "hub")
        topo.connect_bidir("hub", "r1_1")
        after = topo.geometry()
        assert after is not before
        assert after.succ["hub"] == ("r0_0", "r1_1") == after.pred["hub"]
        assert "hub" in after.succ["r0_0"] and "hub" in after.neighbours["r1_1"]
        assert "hub" not in before.succ and "hub" not in before.succ["r0_0"]
        routes = [p.routers for p in
                  k_shortest_paths(topo, self.SRC, self.DST, 4)]
        assert ("r0_0", "hub", "r1_1") in routes and len(routes) == 3

    def test_set_pipeline_stages_is_seen_after_a_read(self):
        topo = mesh(2, 1, nis_per_router=1)
        before = topo.geometry()
        first, = k_shortest_paths(topo, "ni0_0_0", "ni1_0_0", 4)
        assert first.link_shifts == (0, 1, 2)
        topo.set_pipeline_stages("r0_0", "r1_0", 2)
        assert topo.geometry() is not before
        assert topo.link("r0_0", "r1_0").pipeline_stages == 2
        second, = k_shortest_paths(topo, "ni0_0_0", "ni1_0_0", 4)
        assert second.link_shifts == (0, 1, 4)

    def test_returned_graph_is_frozen(self):
        geometry = mesh(2, 2, nis_per_router=1).geometry()
        for adjacency in (geometry.succ, geometry.pred, geometry.neighbours):
            assert adjacency["r0_0"] == ("r0_1", "r1_0")
            for edit in (lambda: adjacency.pop("r0_0"),
                         lambda: adjacency.update(x=()),
                         lambda: adjacency.__setitem__("r0_0", ("r1_1",)),
                         lambda: adjacency.__delitem__("r0_0"),
                         lambda: adjacency["r0_0"].remove("r0_1"),
                         lambda: adjacency["r0_0"].__setitem__(0, "r1_1")):
                with pytest.raises((TypeError, AttributeError)):
                    edit()
            assert adjacency["r0_0"] == ("r0_1", "r1_0")

    def test_excluded_search_writes_nothing(self):
        topo = mesh(2, 2, nis_per_router=1)
        full = [p.routers for p in
                k_shortest_paths(topo, self.SRC, self.DST, 4)]
        held = SlotAllocator(topo, table_size=8, frequency_hz=500e6
                             ).shortest_candidates(self.SRC, self.DST)
        geometry = topo.geometry()
        assert [p.routers for p in held] == full
        stored = repr((geometry.routes, geometry.paths))
        assert "r0_1" in stored
        cut = frozenset({("r0_0", "r0_1")})
        assert [p.routers for p in k_shortest_paths(
            topo, self.SRC, self.DST, 4, exclude_links=cut)] == [
                ("r0_0", "r1_0", "r1_1")]
        assert topo.geometry() is geometry
        assert "r0_1" in geometry.succ["r0_0"]
        assert repr((geometry.routes, geometry.paths)) == stored
        assert [p.routers for p in
                k_shortest_paths(topo, self.SRC, self.DST, 4)] == full
        assert k_shortest_routes(topo, "r0_0", "r1_1", 4) == [
            list(r) for r in full]

    def test_revision_moves_on_the_writers_only(self):
        topo = Topology()

        def bump(write) -> int:
            before = topo.revision
            write()
            return topo.revision - before

        assert topo.revision == 0
        assert bump(lambda: topo.add_router("a")) == 1
        assert bump(lambda: topo.add_router("b")) == 1
        assert bump(lambda: topo.add_ni("n")) == 1
        assert bump(lambda: topo.connect("a", "b")) == 1
        assert bump(lambda: topo.connect("b", "a", pipeline_stages=1)) == 1
        assert bump(lambda: topo.connect_bidir("n", "a")) == 2
        assert bump(lambda: topo.set_pipeline_stages("a", "b", 3)) == 1

        def reads_and_refused_writes():
            topo.validate()
            topo.geometry()
            topo.links, topo.routers, topo.nis
            k_shortest_paths(topo, "n", "n", 2,
                             exclude_links=frozenset({("a", "b")}))
            weighted_shortest_path(topo, "n", "n", lambda key: 1.0)
            for refused in (lambda: topo.add_router("a"),
                            lambda: topo.connect("a", "b"),
                            lambda: topo.connect("a", "nowhere"),
                            lambda: topo.set_pipeline_stages("a", "b", -1),
                            lambda: topo.set_pipeline_stages("a", "n2", 1)):
                with pytest.raises(TopologyError):
                    refused()

        assert bump(reads_and_refused_writes) == 0
        with pytest.raises(AttributeError):
            topo.revision = 0

    def test_a_copy_starts_cold_and_whole(self):
        """The geometry is derived: a pickled or deep-copied topology
        carries the structure and rebuilds the rest."""
        topo = mesh(2, 2, nis_per_router=1, pipeline_stages=1)
        topo.geometry()
        for clone in (pickle.loads(pickle.dumps(topo)),
                      copy.deepcopy(topo)):
            assert (clone.name, clone.routers, clone.nis, clone.links) == \
                (topo.name, topo.routers, topo.nis, topo.links)
            assert all(clone.node_attrs(n) == topo.node_attrs(n)
                       for n in topo.routers + topo.nis)
            assert clone.revision == topo.revision
            assert clone.geometry() is not topo.geometry()
            assert clone.geometry().succ == topo.geometry().succ


class TestUnknownEndpoints:
    """Every public entry refuses a name the topology does not hold with
    its own error, whatever container sits underneath."""

    def test_unknown_node_is_a_topology_error(self):
        topo = mesh(2, 2, nis_per_router=1)
        for ask in (
                lambda: k_shortest_routes(topo, "nope", "r0_0", 2),
                lambda: k_shortest_routes(topo, "r0_0", "nope", 2),
                lambda: k_shortest_routes(topo, "nope", "nope", 2),
                lambda: k_shortest_paths(topo, "nope", "ni0_0_0", 2),
                lambda: weighted_shortest_path(topo, "ni0_0_0", "nope",
                                               lambda key: 0.0),
                lambda: xy_route(topo, "r0_0", "nope"),
                lambda: xy_path(topo, "nope", "ni0_0_0"),
                lambda: router_coords(topo, "nope"),
                lambda: topo.neighbor_on_port("nope", 0),
                lambda: topo.successors("nope"),
                lambda: topo.predecessors("nope"),
                lambda: topo.arity("nope"),
                lambda: topo.nis_of_router("nope"),
                lambda: topo.attached_router("nope"),
                lambda: topo.kind("nope"),
                lambda: topo.node_attrs("nope"),
                lambda: topo.connect("r0_0", "nope"),
                lambda: topo.connect("nope", "r0_0")):
            with pytest.raises(TopologyError, match="unknown node 'nope'"):
                ask()
        for ask in (lambda: topo.link("nope", "r0_0"),
                    lambda: topo.set_pipeline_stages("nope", "r0_0", 1)):
            with pytest.raises(TopologyError, match="no link"):
                ask()
        assert not topo.has_link("nope", "r0_0")
        assert not topo.has_link("r0_0", "nope")

    def test_an_ni_is_not_a_route_endpoint(self):
        topo = mesh(2, 2, nis_per_router=1)
        for ask in (lambda: k_shortest_routes(topo, "ni0_0_0", "r1_1", 2),
                    lambda: k_shortest_routes(topo, "r0_0", "ni1_1_0", 2),
                    lambda: k_shortest_routes(topo, "ni0_0_0", "ni0_0_0", 2),
                    lambda: topo.arity("ni0_0_0"),
                    lambda: topo.nis_of_router("ni0_0_0")):
            with pytest.raises(TopologyError,
                               match="'ni\\d_\\d_0' is not a router"):
                ask()
        with pytest.raises(TopologyError, match="no output port 3"):
            topo.neighbor_on_port("r0_0", 3)


class TestBuilders:
    def test_mesh_counts(self):
        topo = mesh(4, 3, nis_per_router=4)
        assert len(topo.routers) == 12
        assert len(topo.nis) == 48
        # 17 mesh edges * 2 directions + 48 NIs * 2 directions.
        assert len(topo.links) == 17 * 2 + 48 * 2

    def test_concentrated_mesh_is_paper_topology(self):
        topo = concentrated_mesh(4, 3)
        assert len(topo.nis) == 48
        # Interior router: 4 neighbours + 4 NIs = arity 8.
        assert topo.arity("r1_1") == 8

    def test_line(self):
        topo = line(4)
        assert len(topo.routers) == 4
        assert topo.has_link("r0_0", "r1_0")
        assert not topo.has_link("r0_0", "r2_0")

    def test_ring_wraps(self):
        topo = ring(5)
        assert topo.has_link("r4_0", "r0_0")
        assert topo.has_link("r0_0", "r4_0")

    def test_ring_too_small(self):
        with pytest.raises(TopologyError):
            ring(2)

    def test_torus_wraps_both_dimensions(self):
        topo = torus(3, 3)
        assert topo.has_link("r2_0", "r0_0")
        assert topo.has_link("r0_2", "r0_0")

    def test_single_router(self):
        topo = single_router(3)
        assert len(topo.routers) == 1
        assert len(topo.nis) == 3

    def test_custom(self):
        topo = custom([("a", "b"), ("b", "a")],
                      [("n0", "a"), ("n1", "b")])
        assert topo.routers == ("a", "b")
        assert topo.attached_router("n0") == "a"
        with pytest.raises(TopologyError, match="no mesh coordinates"):
            router_coords(topo, "a")

    def test_router_coords(self):
        topo = mesh(3, 2)
        assert router_coords(topo, "r2_1") == (2, 1)

    def test_pipeline_stages_on_router_links_only(self):
        topo = mesh(2, 2, nis_per_router=1, pipeline_stages=2)
        assert topo.link("r0_0", "r1_0").pipeline_stages == 2
        assert topo.link("ni0_0_0", "r0_0").pipeline_stages == 0


class TestRouting:
    def test_xy_route_goes_x_first(self):
        topo = mesh(3, 3)
        route = xy_route(topo, "r0_0", "r2_2")
        assert route == ["r0_0", "r1_0", "r2_0", "r2_1", "r2_2"]

    def test_xy_path_endpoints(self):
        topo = mesh(3, 3, nis_per_router=1)
        path = xy_path(topo, "ni0_0_0", "ni2_2_0")
        assert path.source == "ni0_0_0"
        assert path.dest == "ni2_2_0"
        assert len(path.routers) == 5

    def test_k_shortest_ordered_by_length(self):
        topo = mesh(3, 3, nis_per_router=1)
        paths = k_shortest_paths(topo, "ni0_0_0", "ni2_2_0", k=3)
        lengths = [len(p.routers) for p in paths]
        assert lengths == sorted(lengths)
        assert lengths[0] == 5

    def test_same_router_path(self):
        topo = single_router(2)
        paths = k_shortest_paths(topo, "ni0_0_0", "ni0_0_1", k=4)
        assert len(paths) == 1
        assert len(paths[0].routers) == 1

    def test_weighted_path_avoids_load(self):
        topo = mesh(3, 1, nis_per_router=1)
        # Heavy weight on the direct link forces... a line has no detour,
        # so the path is unchanged — the call must still succeed.
        path = weighted_shortest_path(
            topo, "ni0_0_0", "ni2_0_0", lambda key: 10.0)
        assert len(path.routers) == 3

    def test_candidate_paths_include_load_aware_first(self):
        """The allocator's candidate flow, by hand: k-shortest plus one
        load-aware route, which leads whether or not it was already
        among them."""
        topo = mesh(3, 3, nis_per_router=1)
        shortest = k_shortest_paths(topo, "ni0_0_0", "ni2_2_0", k=2)
        calls = []

        def loaded(key):
            calls.append(key)
            return 10.0 if key in shortest[0].link_keys() else 0.0

        weighted = weighted_shortest_path(topo, "ni0_0_0", "ni2_2_0",
                                          loaded)
        assert calls  # weight function was consulted
        assert weighted.link_keys() != shortest[0].link_keys()
        merged = merge_load_aware(list(shortest), weighted)
        assert merged[0].link_keys() == weighted.link_keys()
        assert {p.link_keys() for p in shortest} <= {
            p.link_keys() for p in merged}
        assert len(merged) == len({p.link_keys() for p in merged})
        # Already a candidate: moved to the front, nothing duplicated.
        again = merge_load_aware(list(shortest), shortest[1])
        assert [p.link_keys() for p in again] == [
            shortest[1].link_keys(), shortest[0].link_keys()]

    def test_path_slot_shifts_with_stages(self):
        topo = mesh(2, 1, nis_per_router=1, pipeline_stages=1)
        path = xy_path(topo, "ni0_0_0", "ni1_0_0")
        # NI->r0 (shift 0), r0->r1 has 1 stage; r1->NI.
        assert path.link_shifts == (0, 1, 3)
        assert path.traversal_slots == 4

    def test_path_out_ports_match_topology(self):
        topo = mesh(2, 2, nis_per_router=1)
        path = xy_path(topo, "ni0_0_0", "ni1_1_0")
        nodes = [*path.routers, path.dest]
        for port, src, dst in zip(path.out_ports, path.routers, nodes[1:]):
            assert topo.link(src, dst).src_port == port

    def test_header_field_roundtrip(self):
        topo = mesh(3, 3, nis_per_router=1)
        path = xy_path(topo, "ni0_0_0", "ni2_2_0")
        fmt = WordFormat()
        field = path.header_path_field(fmt)
        assert field <= (1 << fmt.path_bits) - 1


class TestMapping:
    def _channels(self):
        return [ChannelSpec(f"c{i}", f"ip{i}", f"ip{(i + 1) % 6}",
                            (i + 1) * 10 * MB) for i in range(6)]

    def test_round_robin_covers_all(self):
        topo = mesh(2, 2, nis_per_router=1)
        mapping = round_robin([f"ip{i}" for i in range(6)], topo)
        assert len(mapping.ip_to_ni) == 6
        mapping.validate(topo)

    def test_traffic_balanced_spreads_load(self):
        topo = mesh(2, 1, nis_per_router=1)
        mapping = traffic_balanced([f"ip{i}" for i in range(6)],
                                   self._channels(), topo)
        counts = [list(mapping.ip_to_ni.values()).count(ni)
                  for ni in topo.nis]
        assert max(counts) - min(counts) <= 1

    def test_clustered_respects_capacity(self):
        topo = mesh(2, 2, nis_per_router=1)
        mapping = communication_clustered(
            [f"ip{i}" for i in range(8)], self._channels(), topo,
            max_ips_per_ni=2)
        for ni in topo.nis:
            assert list(mapping.ip_to_ni.values()).count(ni) <= 2

    def test_unmapped_ip_raises(self):
        mapping = Mapping({"a": "ni0_0_0"})
        from repro.core.exceptions import ConfigurationError
        with pytest.raises(ConfigurationError):
            mapping.ni_of("missing")

    def test_mapping_validate_unknown_ni(self):
        topo = single_router(1)
        mapping = Mapping({"a": "nowhere"})
        with pytest.raises(TopologyError):
            mapping.validate(topo)
