"""Property tests for the IP-to-NI mapping heuristics.

The satellite contracts of the design subsystem:

* :func:`round_robin` and :func:`traffic_balanced` always produce
  ``Mapping.validate``-clean mappings on every builder family (mesh,
  concentrated mesh, torus, ring) across seeds;
* :func:`traffic_balanced` never does worse than :func:`round_robin`
  on total hop-weighted demand (guaranteed by construction: the better
  of the greedy-balanced and round-robin seeds is refined by
  improvement-only swaps).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.connection import MB, ChannelSpec
from repro.topology.builders import concentrated_mesh, mesh, ring, torus
from repro.topology.mapping import (Mapping, hop_weighted_demand,
                                    round_robin, router_distances,
                                    traffic_balanced)

TOPOLOGIES = {
    "mesh": lambda: mesh(3, 2, nis_per_router=2),
    "cmesh": lambda: concentrated_mesh(3, 3, nis_per_router=4),
    "torus": lambda: torus(3, 3, nis_per_router=1),
    "ring": lambda: ring(5, nis_per_router=2),
}


def _random_channels(rng: random.Random, ips: list[str],
                     n_channels: int) -> list[ChannelSpec]:
    channels = []
    for index in range(n_channels):
        src, dst = rng.sample(ips, 2)
        channels.append(ChannelSpec(
            f"c{index}", src, dst,
            rng.uniform(1.0, 200.0) * MB,
            application="app"))
    return channels


@pytest.mark.parametrize("family", sorted(TOPOLOGIES))
@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2009])
class TestMappingHeuristicProperties:
    def _setup(self, family, seed):
        topo = TOPOLOGIES[family]()
        rng = random.Random(seed)
        n_ips = rng.randint(2, 2 * len(topo.nis))
        ips = [f"ip{i}" for i in range(n_ips)]
        channels = _random_channels(rng, ips, rng.randint(1, 3 * n_ips)) \
            if n_ips >= 2 else []
        return topo, ips, channels

    def test_round_robin_validates(self, family, seed):
        topo, ips, _ = self._setup(family, seed)
        mapping = round_robin(ips, topo)
        mapping.validate(topo)
        assert set(mapping.ip_to_ni) == set(ips)

    def test_traffic_balanced_validates(self, family, seed):
        topo, ips, channels = self._setup(family, seed)
        mapping = traffic_balanced(ips, channels, topo)
        mapping.validate(topo)
        assert set(mapping.ip_to_ni) == set(ips)

    def test_traffic_balanced_never_worse_than_round_robin(
            self, family, seed):
        topo, ips, channels = self._setup(family, seed)
        distances = router_distances(topo)
        balanced = hop_weighted_demand(
            topo, traffic_balanced(ips, channels, topo), channels,
            distances=distances)
        rr = hop_weighted_demand(topo, round_robin(ips, topo), channels,
                                 distances=distances)
        assert balanced <= rr + 1e-6


class TestTrafficBalancedStructure:
    def test_deterministic(self):
        topo = mesh(3, 3, nis_per_router=2)
        rng = random.Random(13)
        ips = [f"ip{i}" for i in range(12)]
        channels = _random_channels(rng, ips, 20)
        first = traffic_balanced(ips, channels, topo)
        second = traffic_balanced(ips, channels, topo)
        assert first.ip_to_ni == second.ip_to_ni

    def test_counts_stay_balanced(self):
        """Swap-only refinement preserves the seeding phase's counts."""
        topo = mesh(2, 1, nis_per_router=1)
        rng = random.Random(3)
        ips = [f"ip{i}" for i in range(6)]
        channels = _random_channels(rng, ips, 8)
        mapping = traffic_balanced(ips, channels, topo)
        counts = [list(mapping.ip_to_ni.values()).count(ni)
                  for ni in topo.nis]
        assert max(counts) - min(counts) <= 1

    def test_no_channels_still_validates(self):
        """Weightless IPs have no demand to balance or refine."""
        topo = ring(4, nis_per_router=1)
        ips = [f"ip{i}" for i in range(8)]
        mapping = traffic_balanced(ips, [], topo)
        mapping.validate(topo)
        assert set(mapping.ip_to_ni) == set(ips)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n_ips=st.integers(min_value=2, max_value=20),
       n_channels=st.integers(min_value=1, max_value=30))
def test_hop_weighted_demand_nonnegative_and_stable(seed, n_ips,
                                                    n_channels):
    topo = mesh(3, 2, nis_per_router=2)
    rng = random.Random(seed)
    ips = [f"ip{i}" for i in range(n_ips)]
    channels = _random_channels(rng, ips, n_channels)
    mapping = round_robin(ips, topo)
    demand = hop_weighted_demand(topo, mapping, channels)
    assert demand >= 0.0
    assert demand == hop_weighted_demand(topo, mapping, channels)
    # Co-locating everything on one NI zeroes the metric.
    single = Mapping({ip: topo.nis[0] for ip in ips})
    assert hop_weighted_demand(topo, single, channels) == 0.0
