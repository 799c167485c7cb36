"""Integration tests across topologies and clocking variants.

Exercises the full flow (allocate → simulate → verify) on topologies
beyond the mesh fixtures: multi-stage pipelined links, rings, tori, and
a concentrated mesh under all three clocking schemes.
"""

from __future__ import annotations

import pytest

from repro.core.analysis import analyse
from repro.core.application import Application, UseCase
from repro.core.configuration import configure
from repro.core.connection import MB, ChannelSpec
from repro.core.timeline import static_lifetimes
from repro.simulation.backend import (FlitLevelBackend, SimRequest,
                                      check_lifetime_contention)
from repro.simulation.cyclesim import DetailedNetwork
from repro.simulation.traffic import ConstantBitRate
from repro.topology.builders import concentrated_mesh, mesh, ring, torus
from repro.topology.mapping import Mapping, round_robin
from test_flit_synchronous import assert_links_in_step


def _simple_use_case(ips, n_channels, rate=40 * MB, latency=None):
    channels = tuple(
        ChannelSpec(f"c{i}", ips[i % len(ips)],
                    ips[(i + len(ips) // 2) % len(ips)], rate,
                    max_latency_ns=latency, application="app")
        for i in range(n_channels))
    return UseCase("it", (Application("app", channels),))


def _traffic(config):
    return {name: ConstantBitRate.from_rate(
        ca.spec.throughput_bytes_per_s, config.frequency_hz, config.fmt,
        offset_cycles=i)
        for i, (name, ca) in enumerate(
            sorted(config.allocation.channels.items()))}


class TestMultiStageLinks:
    @pytest.mark.parametrize("stages", [2, 3])
    def test_multi_stage_mesochronous_links(self, stages):
        """Chains of link pipeline stages keep flit synchronicity."""
        topo = mesh(2, 1, nis_per_router=1, pipeline_stages=stages)
        ips = ["ipA", "ipB"]
        use_case = _simple_use_case(ips, 2, rate=60 * MB)
        mapping = Mapping({"ipA": "ni0_0_0", "ipB": "ni1_0_0"})
        config = configure(topo, use_case, table_size=8,
                           frequency_hz=500e6, mapping=mapping)
        traffic = _traffic(config)
        fres = FlitLevelBackend(config).run(
            SimRequest(n_slots=300, traffic=traffic))
        detailed = DetailedNetwork(config, clocking="mesochronous",
                                   traffic=traffic, horizon_slots=300,
                                   mesochronous_seed=5)
        dres = detailed.run()
        # Multi-stage chains must not change the logical schedule.
        for name in config.allocation.channels:
            f = [(d.message_id, d.latency_ns)
                 for d in fres.stats.channel(name).deliveries]
            d = {x.message_id: x.latency_ns
                 for x in dres.stats.channel(name).deliveries}
            assert len(d) > 5
            cycle_ns = 1e9 / config.frequency_hz
            for mid, latency in f:
                if mid in d:
                    assert abs(d[mid] - latency) <= cycle_ns
        # Every FIFO in every chain stays within the 4-word sizing.
        assert max(dres.fifo_max_occupancy.values()) <= 4

    def test_stage_count_raises_bound(self):
        """More stages -> strictly larger latency bound (1 slot each)."""
        bounds = []
        for stages in (1, 2, 3):
            topo = mesh(2, 1, nis_per_router=1, pipeline_stages=stages)
            use_case = _simple_use_case(["ipA", "ipB"], 1)
            mapping = Mapping({"ipA": "ni0_0_0", "ipB": "ni1_0_0"})
            config = configure(topo, use_case, table_size=8,
                               frequency_hz=500e6, mapping=mapping)
            bounds.append(analyse(config.allocation)["c0"].latency_ns)
        assert bounds[1] - bounds[0] == pytest.approx(6.0)  # one slot
        assert bounds[2] - bounds[1] == pytest.approx(6.0)


class TestAlternativeTopologies:
    def test_ring_allocates_and_simulates(self):
        topo = ring(5, nis_per_router=1)
        ips = [f"ip{i}" for i in range(5)]
        mapping = round_robin(ips, topo)
        use_case = _simple_use_case(ips, 5, rate=30 * MB)
        config = configure(topo, use_case, table_size=16,
                           frequency_hz=500e6, mapping=mapping)
        config.allocation.validate()
        check_lifetime_contention(static_lifetimes(config.allocation, 600),
                                  600, config.table_size)
        result = FlitLevelBackend(config).run(
            SimRequest(n_slots=600, traffic=_traffic(config)))
        for name in config.allocation.channels:
            assert result.stats.channel(name).deliveries

    def test_torus_wraparound_paths_used(self):
        topo = torus(3, 3, nis_per_router=1)
        mapping = Mapping({"a": "ni0_0_0", "b": "ni2_2_0"})
        use_case = UseCase("t", (Application("app", (
            ChannelSpec("c", "a", "b", 40 * MB, application="app"),)),))
        config = configure(topo, use_case, table_size=8,
                           frequency_hz=500e6, mapping=mapping)
        # On a 3x3 torus the wraparound makes this a 2-hop route,
        # against 4 hops on a mesh.
        assert config.allocation.channel("c").path.n_routers <= 3

    def test_concentrated_mesh_detailed_sync(self):
        """The paper's topology class runs end-to-end in the word-level
        model."""
        topo = concentrated_mesh(2, 2, nis_per_router=2)
        ips = [f"ip{i}" for i in range(8)]
        mapping = round_robin(ips, topo)
        use_case = _simple_use_case(ips, 6, rate=50 * MB)
        config = configure(topo, use_case, table_size=16,
                           frequency_hz=500e6, mapping=mapping)
        traffic = _traffic(config)
        detailed = DetailedNetwork(config, clocking="synchronous",
                                   traffic=traffic, horizon_slots=300)
        result = detailed.run()
        bounds = analyse(config.allocation)
        for name in config.allocation.channels:
            deliveries = result.stats.channel(name).deliveries
            assert deliveries
            worst = max(d.latency_ns for d in deliveries)
            assert worst <= bounds[name].latency_ns + 1e-9

    def test_concentrated_mesh_async_wrappers(self):
        # One stage per router-to-router link: the wrapper primes each
        # link with the hop cost the allocator charges, and an unstaged
        # one has no token count that matches it at full rate.
        topo = concentrated_mesh(2, 2, nis_per_router=2, pipeline_stages=1)
        ips = [f"ip{i}" for i in range(8)]
        mapping = round_robin(ips, topo)
        use_case = _simple_use_case(ips, 4, rate=40 * MB)
        config = configure(topo, use_case, table_size=16,
                           frequency_hz=500e6, mapping=mapping)
        detailed = DetailedNetwork(config, clocking="asynchronous",
                                   traffic=_traffic(config),
                                   horizon_slots=250,
                                   plesiochronous_ppm=1000.0)
        result = detailed.run()
        for name in config.allocation.channels:
            deliveries = result.stats.channel(name).deliveries
            assert deliveries
            ids = [d.message_id for d in deliveries]
            assert ids == sorted(ids)
        assert_links_in_step(detailed, result)
