"""IP-to-NI mapping heuristics.

The paper's Section VII use case maps 70 IPs onto the 48 NIs of a 4x3
concentrated mesh.  The mapping determines which NI serialises each IP's
connections, and therefore how much slot-table pressure each NI link sees.
Three heuristics are provided, all deterministic:

* :func:`round_robin` — simplest possible; IPs are dealt to NIs in order;
* :func:`traffic_balanced` — greedy bin-packing by aggregate IP bandwidth,
  heaviest first onto the lightest NI (ties broken by name), followed by a
  deterministic hop-aware swap refinement; by construction the result is
  never worse than :func:`round_robin` on :func:`hop_weighted_demand`,
  which is what makes it a sound warm start for the design-space
  mapping optimizer (:mod:`repro.design.mapping_opt`);
* :func:`communication_clustered` — greedily co-locates heavily
  communicating IP pairs on nearby routers to shorten paths.

:func:`hop_weighted_demand` is the shared placement metric: the sum over
channels of required bandwidth times the router-hop distance between the
endpoints' NIs — a topology-independent proxy for how many link-slots a
mapping will consume.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.core.connection import ChannelSpec
from repro.core.exceptions import ConfigurationError, TopologyError
from repro.topology.graph import Topology, hop_distances

__all__ = ["Mapping", "round_robin", "traffic_balanced",
           "communication_clustered", "hop_weighted_demand",
           "router_distances"]


@dataclass(frozen=True)
class Mapping:
    """Immutable assignment of IP names to NI names."""

    ip_to_ni: Mapping[str, str] = field(default_factory=dict)

    def ni_of(self, ip: str) -> str:
        """NI hosting ``ip``; raises :class:`ConfigurationError` if unmapped."""
        try:
            return self.ip_to_ni[ip]
        except KeyError:
            raise ConfigurationError(f"IP {ip!r} is not mapped to any NI")

    def validate(self, topo: Topology) -> None:
        """Every target must be an NI of ``topo``."""
        ni_set = set(topo.nis)
        for ip, ni in self.ip_to_ni.items():
            if ni not in ni_set:
                raise TopologyError(
                    f"IP {ip!r} mapped to unknown NI {ni!r}")


def round_robin(ips: Sequence[str], topo: Topology) -> Mapping:
    """Deal IPs to NIs in sorted order, wrapping around."""
    nis = topo.nis
    if not nis:
        raise TopologyError("topology has no NIs to map onto")
    assignment = {ip: nis[i % len(nis)] for i, ip in enumerate(sorted(ips))}
    return Mapping(assignment)


def router_distances(topo: Topology, *, directed: bool = True
                     ) -> dict[str, dict[str, int]]:
    """All-pairs router-hop distances of the router subgraph, following
    link direction or (``directed=False``) ignoring it.

    Works on any builder family (torus wrap-around links included, since
    the distances come from the actual link graph, not coordinates).
    """
    geometry = topo.geometry()
    adjacency = geometry.succ if directed else geometry.neighbours
    return {router: hop_distances(adjacency, router) for router in adjacency}


def hop_weighted_demand(topo: Topology, mapping: Mapping,
                        channels: Iterable[ChannelSpec], *,
                        distances: dict[str, dict[str, int]] | None
                        = None) -> float:
    """Sum over channels of throughput times router-hop distance.

    The shared placement metric of the mapping heuristics and the
    design-space optimizer: every router hop a channel traverses costs
    one slot reservation on one more link, so bandwidth times hops is a
    direct (topology-independent) proxy for aggregate slot consumption.
    Channels whose endpoints share a router contribute zero.
    """
    dist = distances or router_distances(topo)
    total = 0.0
    for ch in channels:
        src_router = topo.attached_router(mapping.ni_of(ch.src_ip))
        dst_router = topo.attached_router(mapping.ni_of(ch.dst_ip))
        hops = dist[src_router].get(dst_router)
        if hops is None:
            raise TopologyError(
                f"channel {ch.name!r}: no router path from "
                f"{src_router!r} to {dst_router!r} under mapping")
        total += ch.throughput_bytes_per_s * hops
    return total


#: First-improvement sweeps :func:`_swap_refined` makes at most.
_SWAP_PASSES = 4


def _swap_refined(assignment: dict[str, str], topo: Topology,
                  channels: Sequence[ChannelSpec],
                  dist: dict[str, dict[str, int]]) -> dict[str, str]:
    """First-improvement swap pass minimising hop-weighted demand.

    Swapping two IPs' NIs preserves the per-NI IP counts of the start
    assignment, so whatever balance the seeding phase established
    survives.  Deterministic: IPs are visited in sorted order and only
    strictly improving swaps are taken.
    """
    router_of = {ni: topo.attached_router(ni) for ni in set(assignment.values())}
    incident: dict[str, list[ChannelSpec]] = defaultdict(list)
    for ch in channels:
        incident[ch.src_ip].append(ch)
        if ch.dst_ip != ch.src_ip:
            incident[ch.dst_ip].append(ch)

    def cost_around(ips_touched: tuple[str, str]) -> float:
        seen: set[str] = set()
        total = 0.0
        for ip in ips_touched:
            for ch in incident.get(ip, ()):
                if ch.name in seen:
                    continue
                seen.add(ch.name)
                hops = dist[router_of[assignment[ch.src_ip]]].get(
                    router_of[assignment[ch.dst_ip]])
                if hops is None:
                    # A swap must never make an endpoint pair
                    # unreachable (one-way custom topologies).
                    return float("inf")
                total += ch.throughput_bytes_per_s * hops
        return total

    mapped = sorted(assignment)
    for _ in range(_SWAP_PASSES):
        improved = False
        for i, ip_a in enumerate(mapped):
            for ip_b in mapped[i + 1:]:
                if assignment[ip_a] == assignment[ip_b]:
                    continue
                before = cost_around((ip_a, ip_b))
                assignment[ip_a], assignment[ip_b] = \
                    assignment[ip_b], assignment[ip_a]
                after = cost_around((ip_a, ip_b))
                if after < before - 1e-9:
                    improved = True
                else:
                    assignment[ip_a], assignment[ip_b] = \
                        assignment[ip_b], assignment[ip_a]
        if not improved:
            break
    return assignment


def traffic_balanced(ips: Sequence[str], channels: Iterable[ChannelSpec],
                     topo: Topology) -> Mapping:
    """Greedy bandwidth balance across NIs, refined for locality.

    Each IP's weight is the sum of the throughput of all channels it
    sources or sinks; IPs are placed heaviest-first onto the NI with the
    least accumulated weight.  The greedy assignment is then compared
    against :func:`round_robin` on :func:`hop_weighted_demand` (the
    better of the two is kept, ties favouring the balanced one) and
    polished with a deterministic swap-only improvement pass — so the
    result is **guaranteed** no worse than ``round_robin`` on
    hop-weighted demand, while per-NI IP counts stay those of the
    seeding phase.
    """
    nis = topo.nis
    if not nis:
        raise TopologyError("topology has no NIs to map onto")
    channel_list = list(channels)
    weight: dict[str, float] = defaultdict(float)
    for ch in channel_list:
        weight[ch.src_ip] += ch.throughput_bytes_per_s
        weight[ch.dst_ip] += ch.throughput_bytes_per_s
    load = {ni: 0.0 for ni in nis}
    assignment: dict[str, str] = {}
    ordered = sorted(ips, key=lambda ip: (-weight.get(ip, 0.0), ip))
    for ip in ordered:
        target = min(nis, key=lambda ni: (load[ni], ni))
        assignment[ip] = target
        load[target] += weight.get(ip, 0.0)
    if not channel_list:
        return Mapping(assignment)
    dist = router_distances(topo)
    rr = dict(round_robin(ips, topo).ip_to_ni)
    try:
        greedy_cost = hop_weighted_demand(topo, Mapping(assignment),
                                          channel_list, distances=dist)
        rr_cost = hop_weighted_demand(topo, Mapping(rr), channel_list,
                                      distances=dist)
    except TopologyError:
        # Some endpoint pair has no router path (one-way custom
        # topologies): skip the hop-aware refinement and keep the
        # pre-refinement behaviour — the allocator reports such
        # channels cleanly.
        return Mapping(assignment)
    start = assignment if greedy_cost <= rr_cost else rr
    return Mapping(_swap_refined(dict(start), topo, channel_list, dist))


def communication_clustered(ips: Sequence[str],
                            channels: Iterable[ChannelSpec],
                            topo: Topology) -> Mapping:
    """Co-locate communicating IPs on nearby routers.

    Channels are visited heaviest-first.  When one endpoint is already
    placed, the other is put on the free-est NI of the nearest router with
    spare capacity; when neither is placed, both are placed around the
    globally least-loaded router.  Every NI takes at most the uniform
    capacity that fits all IPs.
    """
    nis = topo.nis
    if not nis:
        raise TopologyError("topology has no NIs to map onto")
    all_ips = sorted(ips)
    capacity = -(-len(all_ips) // len(nis))  # ceil division
    count: dict[str, int] = {ni: 0 for ni in nis}
    assignment: dict[str, str] = {}
    dist = router_distances(topo, directed=False)

    def place(ip: str, near_router: str | None,
              avoid_ni: str | None = None) -> None:
        if ip in assignment:
            return
        candidates = [ni for ni in nis if count[ni] < capacity]
        if not candidates:
            raise ConfigurationError(
                f"cannot place IP {ip!r}: all NIs at capacity {capacity}")
        # Never share an NI with a communication partner when any other
        # NI is available: NI-local pairs cannot use the NoC at all.
        if avoid_ni is not None and len(candidates) > 1:
            candidates = [ni for ni in candidates if ni != avoid_ni]
        if near_router is None:
            target = min(candidates, key=lambda ni: (count[ni], ni))
        else:
            target = min(
                candidates,
                key=lambda ni: (dist[near_router][topo.attached_router(ni)],
                                count[ni], ni))
        assignment[ip] = target
        count[target] += 1

    ordered = sorted(channels,
                     key=lambda c: (-c.throughput_bytes_per_s, c.name))
    for ch in ordered:
        a_placed = ch.src_ip in assignment
        b_placed = ch.dst_ip in assignment
        if a_placed and b_placed:
            continue
        if a_placed:
            place(ch.dst_ip, topo.attached_router(assignment[ch.src_ip]),
                  avoid_ni=assignment[ch.src_ip])
        elif b_placed:
            place(ch.src_ip, topo.attached_router(assignment[ch.dst_ip]),
                  avoid_ni=assignment[ch.dst_ip])
        else:
            place(ch.src_ip, None)
            place(ch.dst_ip, topo.attached_router(assignment[ch.src_ip]),
                  avoid_ni=assignment[ch.src_ip])
    for ip in all_ips:
        place(ip, None)
    return Mapping(assignment)
