"""Seeded local-search mapping optimisation for design candidates.

The mapping heuristics in :mod:`repro.topology.mapping` are one-shot
constructions; a design-space search can afford to *improve* a mapping,
because a better placement lowers the hop-weighted slot demand and with
it the frequency (and therefore silicon) a candidate needs.  This module
provides a deterministic simulated-annealing optimizer over
swap/relocate moves on :class:`~repro.topology.mapping.Mapping`,
warm-started from :func:`~repro.topology.mapping.traffic_balanced`
(which is itself guaranteed no worse than ``round_robin`` on the same
metric, so the chain of warm starts never regresses).

The cost being annealed is lexicographic, folded into one scalar:

* **co-location** — a channel whose endpoints share an NI cannot use
  the NoC at all (the allocator rejects it), so every co-located
  channel costs more than any amount of hop demand;
* **NI-link overload** — an NI's injection/ejection link is the one
  resource a mapping cannot route around; bandwidth assigned to an NI
  beyond its link budget is weighted so that shedding one overloaded
  byte always pays for the extra hops of moving it anywhere else
  (without this term, pure hop minimisation piles communicating IPs
  onto one router's NIs and strangles their links);
* **hop-weighted demand** — bandwidth times router hops, the shared
  placement metric (:func:`~repro.topology.mapping.hop_weighted_demand`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.core.application import UseCase
from repro.core.connection import ChannelSpec
from repro.core.exceptions import ConfigurationError
from repro.core.words import WordFormat
from repro.topology.graph import Topology
from repro.topology.mapping import (Mapping, communication_clustered,
                                    router_distances, traffic_balanced)

__all__ = ["MappingSearchResult", "optimize_mapping"]

#: The annealing schedule.  ``ITERATIONS`` is a floor: runs scale to
#: ``ITERATIONS_PER_IP`` moves per mapped IP so large instances get
#: proportionate search effort, and the cooling is renormalised so the
#: total temperature decay is the same whatever the move count.
ITERATIONS = 600
ITERATIONS_PER_IP = 40
INITIAL_TEMPERATURE = 0.2
COOLING = 0.995
#: Move mix: *pull* one endpoint of a random channel onto the NIs at (or
#: next to) its partner's router — the targeted move that builds
#: communication clusters far faster than blind relocation — with
#: probability ``PULL_BIAS``, *relocate* one IP to a random NI with
#: ``RELOCATE_BIAS``, else *swap* two IPs.
PULL_BIAS = 0.4
RELOCATE_BIAS = 0.3
#: Repair passes over unplaceable channels, in case a relocation
#: re-collides another channel of the moved IP.
REPAIR_PASSES = 3


@dataclass(frozen=True)
class MappingSearchResult:
    """Outcome of one optimisation run."""

    mapping: Mapping
    start_cost: float
    final_cost: float
    colocated_channels: int
    moves_accepted: int
    moves_tried: int

    @property
    def improvement(self) -> float:
        """Relative cost reduction achieved by the search."""
        if self.start_cost <= 0:
            return 0.0
        return 1.0 - self.final_cost / self.start_cost


class _PlacementState:
    """Mutable assignment with incremental cost bookkeeping.

    NI-link pressure is tracked in *slots*, the granularity the
    allocator actually reserves: a channel of throughput ``t`` on a
    link of payload capacity ``budget`` costs
    ``max(1, ceil(t * table_size / budget))`` of the ``table_size``
    slots — the same arithmetic as
    :func:`repro.core.requirements.slots_for_throughput` and the
    serialisation bound in :mod:`repro.design.prune`, so a mapping the
    optimizer reports overload-free passes that prune check too.
    """

    def __init__(self, topology: Topology, channels: tuple[ChannelSpec, ...],
                 budget: float | None, table_size: int | None,
                 frequency_hz: float | None = None,
                 fmt: WordFormat | None = None):
        self.topology = topology
        self.channels = channels
        self.nis = list(topology.nis)
        self.budget = budget if table_size else None
        self.table_size = table_size or 0
        self.distances = router_distances(topology)
        self.router_of = {ni: topology.attached_router(ni)
                          for ni in self.nis}
        self.diameter = max((d for row in self.distances.values()
                             for d in row.values()), default=0)
        # Per-channel router-distance caps from latency requirements: a
        # requirement of L ns at frequency f allows at most the hop
        # count whose traversal-plus-one-slot floor still fits in L
        # (the same floor as prune check 4).  A placement beyond the
        # cap can never allocate, so it is penalised like co-location.
        self.max_hops: dict[str, int] = {}
        if frequency_hz:
            fmt = fmt or WordFormat()
            from repro.design.prune import min_traversal_slots
            from repro.topology.graph import NodeKind
            stages = min(
                (link.pipeline_stages for link in topology.links
                 if topology.kind(link.src) is NodeKind.ROUTER
                 and topology.kind(link.dst) is NodeKind.ROUTER),
                default=0)
            for ch in channels:
                if ch.max_latency_ns is None:
                    continue
                cap = 0
                for hops in range(self.diameter, -1, -1):
                    floor_ns = (1 + min_traversal_slots(hops, stages)) * \
                        fmt.flit_size / frequency_hz * 1e9
                    if floor_ns <= ch.max_latency_ns * (1 + 1e-9):
                        cap = hops
                        break
                self.max_hops[ch.name] = cap
        # Any co-located channel must outweigh any achievable hop
        # demand; any overloaded slot must outweigh the hops of moving
        # its bandwidth anywhere else on the chip.
        self.penalty = sum(ch.throughput_bytes_per_s for ch in channels) \
            * (2 * len(topology.routers) + 2) + 1.0
        self.slot_bytes = (self.budget / self.table_size
                           if self.budget else 0.0)
        self.overload_weight = 2.0 * (self.diameter + 1) * self.slot_bytes
        self.slot_demand: dict[str, int] = {}
        if self.budget:
            for ch in channels:
                self.slot_demand[ch.name] = max(1, math.ceil(
                    ch.throughput_bytes_per_s / self.slot_bytes - 1e-12))
        self.incident: dict[str, list[ChannelSpec]] = {}
        for ch in channels:
            self.incident.setdefault(ch.src_ip, []).append(ch)
            if ch.dst_ip != ch.src_ip:
                self.incident.setdefault(ch.dst_ip, []).append(ch)
        self.assignment: dict[str, str] = {}
        self.inj: dict[str, int] = {}
        self.ej: dict[str, int] = {}

    def reset(self, assignment: dict[str, str]) -> None:
        """Load a fresh assignment and rebuild the NI slot tallies."""
        self.assignment = dict(assignment)
        self.inj = {ni: 0 for ni in self.nis}
        self.ej = {ni: 0 for ni in self.nis}
        if not self.budget:
            return
        for ch in self.channels:
            slots = self.slot_demand[ch.name]
            self.inj[self.assignment[ch.src_ip]] += slots
            self.ej[self.assignment[ch.dst_ip]] += slots

    def apply(self, ip: str, target: str) -> None:
        """Move one IP, keeping the slot tallies in sync."""
        old = self.assignment[ip]
        if self.budget:
            for ch in self.incident.get(ip, ()):
                slots = self.slot_demand[ch.name]
                if ch.src_ip == ip:
                    self.inj[old] -= slots
                    self.inj[target] += slots
                if ch.dst_ip == ip:
                    self.ej[old] -= slots
                    self.ej[target] += slots
        self.assignment[ip] = target

    def _overload(self, nis_touched) -> float:
        if not self.budget:
            return 0.0
        total = 0
        for ni in nis_touched:
            total += max(0, self.inj[ni] - self.table_size)
            total += max(0, self.ej[ni] - self.table_size)
        return total * self.overload_weight

    def _channel_cost(self, ch: ChannelSpec) -> float:
        src_ni = self.assignment[ch.src_ip]
        dst_ni = self.assignment[ch.dst_ip]
        if src_ni == dst_ni:
            return self.penalty
        dist = self.distances[self.router_of[src_ni]][
            self.router_of[dst_ni]]
        total = ch.throughput_bytes_per_s * dist
        cap = self.max_hops.get(ch.name)
        if cap is not None and dist > cap:
            # Beyond the latency cap the channel can never allocate:
            # penalised like co-location, with the distance term kept
            # so the annealer still has a gradient toward the cap.
            total += self.penalty
        return total

    def cost_around(self, touched: tuple[str, ...],
                    nis_touched: set[str]) -> float:
        """Cost contribution of the channels/NIs a move touches."""
        seen: set[str] = set()
        total = self._overload(nis_touched)
        for ip in touched:
            for ch in self.incident.get(ip, ()):
                if ch.name in seen:
                    continue
                seen.add(ch.name)
                total += self._channel_cost(ch)
        return total

    def total_cost(self) -> float:
        """Full scalar cost of the current assignment."""
        return sum(self._channel_cost(ch) for ch in self.channels) + \
            self._overload(self.nis)

    def colocated(self) -> int:
        """Channels whose endpoints currently share an NI."""
        return sum(1 for ch in self.channels
                   if self.assignment[ch.src_ip] ==
                   self.assignment[ch.dst_ip])

    def repair_violations(self) -> None:
        """Deterministically relocate endpoints of unplaceable channels.

        Greedy first-improvement over the offenders (co-located or
        beyond their latency cap, sorted by name): the destination IP
        moves to the NI minimising the local cost over all NIs other
        than its partner's.  With >= 2 NIs co-location always clears;
        latency caps clear whenever some admissible NI exists.  Passes
        repeat in case a move re-collides another channel of the moved
        IP.
        """
        if len(self.nis) < 2:
            return
        for _ in range(REPAIR_PASSES):
            offenders = sorted(
                (ch for ch in self.channels
                 if self._channel_cost(ch) >= self.penalty),
                key=lambda ch: ch.name)
            if not offenders:
                return
            for ch in offenders:
                if self._channel_cost(ch) < self.penalty:
                    continue  # cleared by an earlier relocation
                src_ni = self.assignment[ch.src_ip]
                mover = ch.dst_ip if ch.dst_ip != ch.src_ip else ch.src_ip
                origin = self.assignment[mover]
                best_target, best_cost = None, float("inf")
                for target in self.nis:
                    if target == src_ni:
                        continue
                    touched = {origin, target}
                    self.apply(mover, target)
                    cost = self.cost_around((mover,), touched)
                    self.apply(mover, origin)
                    if cost < best_cost:
                        best_target, best_cost = target, cost
                if best_target is not None and best_target != origin:
                    self.apply(mover, best_target)


def optimize_mapping(topology: Topology, use_case: UseCase, *, seed: int,
                     warm_starts: list[Mapping] | None = None,
                     link_budget_bytes_per_s: float | None = None,
                     table_size: int | None = None,
                     frequency_hz: float | None = None,
                     fmt: WordFormat | None = None
                     ) -> MappingSearchResult:
    """Anneal an IP-to-NI mapping for one candidate topology.

    The warm start is the cheaper (after co-location repair) of
    :func:`~repro.topology.mapping.traffic_balanced` (spreads load) and
    :func:`~repro.topology.mapping.communication_clustered` (keeps
    traffic local) — the two heuristics fail in opposite regimes, and
    annealing recovers locality much more slowly than it repairs a few
    overloads.  ``link_budget_bytes_per_s`` is the payload capacity of
    one NI link at the candidate's frequency ceiling and ``table_size``
    its slot table; together they turn per-NI pressure into slot
    counts, and slots demanded beyond the table are penalised hard
    enough that spreading always wins over locality — the serialisation
    bound any feasible allocation must respect anyway.

    Deterministic: all randomness flows from ``random.Random(seed)``;
    the same topology, use case and seed always return the same
    mapping, which is what keeps design reports byte-stable.
    """
    channels = use_case.channels
    ips = list(use_case.ips)
    nis = list(topology.nis)
    if not nis:
        raise ConfigurationError("topology has no NIs to map onto")
    state = _PlacementState(topology, channels, link_budget_bytes_per_s,
                            table_size, frequency_hz, fmt)

    starts: list[dict[str, str]] = []
    if warm_starts:
        for candidate in warm_starts:
            candidate.validate(topology)
            starts.append(dict(candidate.ip_to_ni))
    else:
        starts.append(dict(
            traffic_balanced(ips, channels, topology).ip_to_ni))
        try:
            starts.append(dict(communication_clustered(
                ips, channels, topology).ip_to_ni))
        except ConfigurationError:
            pass
    best_start, best_start_cost = None, float("inf")
    for candidate in starts:
        state.reset(candidate)
        state.repair_violations()
        cost = state.total_cost()
        if cost < best_start_cost:
            best_start, best_start_cost = dict(state.assignment), cost
    assert best_start is not None
    state.reset(best_start)
    current = best_start_cost
    start_cost = current
    best_cost = current
    best = dict(best_start)

    rng = random.Random(seed)
    # Temperature lives on the scale of one *move*, not of the whole
    # objective: a move touches a handful of channels, so the mean
    # per-channel cost is the right yardstick for uphill acceptance.
    temperature = INITIAL_TEMPERATURE * \
        max(current / max(1, len(channels)), 1.0)
    accepted = 0
    iterations = (max(ITERATIONS, ITERATIONS_PER_IP * len(ips))
                  if len(ips) > 1 and len(nis) > 1 else 0)
    # Same total temperature decay whatever the move budget.
    cooling = COOLING ** (ITERATIONS / iterations) if iterations \
        else COOLING
    channel_list = list(channels)
    near_nis: dict[str, list[str]] = {}
    for ni in nis:
        router = state.router_of[ni]
        near = [other for other in nis
                if state.distances[router][state.router_of[other]] <= 1]
        near_nis[ni] = near

    def propose() -> tuple[list[tuple[str, str]], set[str]] | None:
        """Pick a move; returns ``(moves, touched_nis)`` or ``None``."""
        roll = rng.random()
        if channel_list and roll < PULL_BIAS:
            ch = rng.choice(channel_list)
            if ch.src_ip == ch.dst_ip:
                return None
            mover, anchor = ((ch.src_ip, ch.dst_ip)
                             if rng.random() < 0.5
                             else (ch.dst_ip, ch.src_ip))
            target = rng.choice(near_nis[state.assignment[anchor]])
            old = state.assignment[mover]
            if target == old:
                return None
            return [(mover, target)], {old, target}
        ip_a = rng.choice(ips)
        if roll < PULL_BIAS + RELOCATE_BIAS:
            target = rng.choice(nis)
            old = state.assignment[ip_a]
            if target == old:
                return None
            return [(ip_a, target)], {old, target}
        ip_b = rng.choice(ips)
        ni_a = state.assignment[ip_a]
        ni_b = state.assignment.get(ip_b, "")
        if ip_b == ip_a or ni_a == ni_b:
            return None
        return [(ip_a, ni_b), (ip_b, ni_a)], {ni_a, ni_b}

    for _ in range(iterations):
        move = propose()
        temperature *= cooling
        if move is None:
            continue
        moves, touched_nis = move
        touched_ips = tuple(ip for ip, _ in moves)
        undo = [(ip, state.assignment[ip]) for ip, _ in moves]
        before = state.cost_around(touched_ips, touched_nis)
        for ip, target in moves:
            state.apply(ip, target)
        delta = state.cost_around(touched_ips, touched_nis) - before
        if delta <= 0 or (temperature > 0 and
                          rng.random() < math.exp(-delta / temperature)):
            current += delta
            accepted += 1
            if current < best_cost:
                best_cost = current
                best = dict(state.assignment)
        else:
            for ip, ni in undo:
                state.apply(ip, ni)

    state.reset(best)
    state.repair_violations()
    final_cost = state.total_cost()
    if final_cost > start_cost:
        # The annealer never returns worse than its (repaired) start.
        state.reset(best_start)
        final_cost = start_cost
    mapping = Mapping(dict(state.assignment))
    return MappingSearchResult(
        mapping=mapping,
        start_cost=start_cost,
        final_cost=final_cost,
        colocated_channels=state.colocated(),
        moves_accepted=accepted,
        moves_tried=iterations)
