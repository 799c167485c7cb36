"""Generator for the Section VII use case.

The paper's evaluation workload: **200 connections, divided across four
applications**, with randomly chosen throughput in **10..500 MB/s** and
latency requirements in **35..500 ns**, over **70 IPs mapped to a 4x3
mesh with 4 NIs per router** (48 NIs), operated at 500 MHz.

The paper states the requirements are random within those ranges but not
how feasibility was ensured; two refinements make the generated instance
well-posed without leaving the stated ranges (documented in DESIGN.md):

* throughput is drawn **log-uniformly** (most connections are modest,
  a few are heavy — the realistic shape for MPSoC traffic; a uniform
  draw would demand ~5x the aggregate bandwidth the paper's 500 MHz
  network can carry);
* the latency requirement of a connection is drawn uniformly from the
  part of [35, 500] ns that its own path can possibly meet (a 5-hop
  connection physically cannot meet 35 ns at 500 MHz; the paper's
  tool flow would equally have rejected such a pairing).

Applications are placed in spatial clusters of routers — each of the
four applications occupies a quadrant of the mesh, IPs dealt round-robin
onto its NIs — mirroring how an SoC floorplan regionalises subsystems.

Everything is seeded and deterministic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.core.application import Application, UseCase
from repro.core.connection import MB, ChannelSpec
from repro.core.exceptions import (ConfigurationError,
                                   require_finite_positive, require_whole)
from repro.core.words import WordFormat
from repro.topology.builders import concentrated_mesh, router_coords
from repro.topology.graph import Topology
from repro.topology.mapping import Mapping
from repro.topology.routing import xy_path

__all__ = ["Section7Parameters", "Section7Instance", "generate_section7"]

#: Padding on a drawn latency requirement's feasibility floor, so the
#: allocator has room to satisfy several tight channels on shared links.
LATENCY_FEASIBILITY_MARGIN = 1.35
#: Share of an NI link's slot table the negotiated requirements may ask
#: for before the tightest channel on it is relaxed.
LINK_PRESSURE_BUDGET = 0.78
#: The drawn throughput range (MB/s), the paper's 10 to 500.
MIN_THROUGHPUT_MB_S = 10.0
MAX_THROUGHPUT_MB_S = 500.0
#: Lower end of the drawn latency range (ns), the paper's 35.
MIN_LATENCY_NS = 35.0


@dataclass(frozen=True)
class Section7Parameters:
    """Knobs of the use-case generator (paper values as defaults; the
    throughput range is :data:`MIN_THROUGHPUT_MB_S` to
    :data:`MAX_THROUGHPUT_MB_S`, the latency range starts at
    :data:`MIN_LATENCY_NS`)."""

    seed: int = 2009
    cols: int = 4
    rows: int = 3
    nis_per_router: int = 4
    n_ips: int = 70
    n_applications: int = 4
    connections_per_application: int = 50
    max_latency_ns: float = 500.0
    frequency_hz: float = 500e6
    table_size: int = 32

    def __post_init__(self) -> None:
        for name in ("cols", "rows", "nis_per_router", "n_ips",
                     "n_applications", "connections_per_application",
                     "table_size"):
            require_whole(name, getattr(self, name), 1)
        require_finite_positive("frequency_hz", self.frequency_hz)
        # Each application draws its endpoint pairs from its own IPs.
        if self.n_ips < 2 * self.n_applications:
            raise ConfigurationError(
                f"{self.n_ips} IPs cannot give each of "
                f"{self.n_applications} applications two")
        # A chained comparison, which NaN fails.
        if not MIN_LATENCY_NS <= self.max_latency_ns < math.inf:
            raise ConfigurationError("bad latency range")

    @property
    def n_connections(self) -> int:
        """Total connection count (200 with paper defaults)."""
        return self.n_applications * self.connections_per_application


@dataclass
class Section7Instance:
    """A generated use-case instance, ready for :func:`configure`."""

    parameters: Section7Parameters
    topology: Topology
    use_case: UseCase
    mapping: Mapping
    fmt: WordFormat = field(default_factory=WordFormat)

    @property
    def total_throughput_bytes_per_s(self) -> float:
        """Aggregate requested bandwidth."""
        return sum(ch.throughput_bytes_per_s
                   for ch in self.use_case.channels)


def generate_section7(params: Section7Parameters | None = None
                      ) -> Section7Instance:
    """Generate the paper's 200-connection evaluation workload."""
    params = params or Section7Parameters()
    fmt = WordFormat()
    rng = random.Random(params.seed)
    topo = concentrated_mesh(params.cols, params.rows,
                             nis_per_router=params.nis_per_router)

    ip_names = [f"ip{i:02d}" for i in range(params.n_ips)]
    app_ips = _partition_ips(ip_names, params.n_applications)
    mapping = _cluster_mapping(topo, app_ips, params)
    channels_by_app: dict[str, list[ChannelSpec]] = {}
    ni_load: dict[str, float] = {}
    for app_index, ips in enumerate(app_ips):
        name = f"app{app_index}"
        channels_by_app[name] = _generate_app_channels(
            name, ips, topo, mapping, params, fmt, rng, ni_load)
    _relax_for_feasibility(channels_by_app, topo, mapping, params, fmt)
    applications = tuple(
        Application(name, tuple(channels))
        for name, channels in channels_by_app.items())
    use_case = UseCase("section7", applications)
    return Section7Instance(parameters=params, topology=topo,
                            use_case=use_case, mapping=mapping, fmt=fmt)


def _partition_ips(ips: list[str], n_apps: int) -> list[list[str]]:
    """Deal IPs round-robin into application groups (sizes differ by 1)."""
    groups: list[list[str]] = [[] for _ in range(n_apps)]
    for index, ip in enumerate(ips):
        groups[index % n_apps].append(ip)
    return groups


def _cluster_mapping(topo: Topology, app_ips: list[list[str]],
                     params: Section7Parameters) -> Mapping:
    """Give each application a spatial cluster of routers.

    Routers are ordered by mesh position and sliced evenly; each
    application's IPs are dealt round-robin onto the NIs of its slice.
    """
    routers = list(topo.routers)
    n_apps = len(app_ips)
    per_app = math.ceil(len(routers) / n_apps)
    assignment: dict[str, str] = {}
    for app_index, ips in enumerate(app_ips):
        slice_routers = routers[app_index * per_app:
                                (app_index + 1) * per_app]
        if not slice_routers:
            slice_routers = routers[-per_app:]
        nis: list[str] = []
        for router in slice_routers:
            nis.extend(topo.nis_of_router(router))
        for index, ip in enumerate(ips):
            assignment[ip] = nis[index % len(nis)]
    return Mapping(assignment)


def _generate_app_channels(app_name: str, ips: list[str], topo: Topology,
                           mapping: Mapping, params: Section7Parameters,
                           fmt: WordFormat, rng: random.Random,
                           ni_load: dict[str, float]
                           ) -> list[ChannelSpec]:
    """Draw one application's connections within its IP set.

    ``ni_load`` tallies the estimated throughput slots on each NI's
    injection ("ni>" prefix) and ejection ("ni<" prefix) link across all
    applications, steering endpoint choice away from saturated NIs.
    """
    from repro.core.requirements import slots_for_throughput

    # Endpoint picking tries thousands of IP pairs; an IP never moves,
    # so every pair's router distance (None where both share an NI) and
    # every IP's NI load keys are resolved here, once.
    nis = [mapping.ni_of(ip) for ip in ips]
    coords = [router_coords(topo, topo.attached_router(ni)) for ni in nis]
    hops = [[None if ni_a == ni_b else abs(xa - xb) + abs(ya - yb)
             for ni_b, (xb, yb) in zip(nis, coords)]
            for ni_a, (xa, ya) in zip(nis, coords)]
    injects = [f"ni>{ni}" for ni in nis]
    ejects = [f"ni<{ni}" for ni in nis]
    channels: list[ChannelSpec] = []
    for index in range(params.connections_per_application):
        throughput_mb = _log_uniform(rng, MIN_THROUGHPUT_MB_S,
                                     MAX_THROUGHPUT_MB_S)
        slots = slots_for_throughput(
            throughput_mb * MB, params.table_size, params.frequency_hz,
            fmt)
        a, b = _pick_endpoints(hops, injects, ejects, rng, throughput_mb,
                               params, ni_load, slots)
        src, dst, inject, eject = ips[a], ips[b], injects[a], ejects[b]
        ni_load[inject] = ni_load.get(inject, 0.0) + slots
        ni_load[eject] = ni_load.get(eject, 0.0) + slots
        latency = _draw_latency(src, dst, topo, mapping, params, fmt, rng)
        channels.append(ChannelSpec(
            name=f"{app_name}_c{index:02d}",
            src_ip=src, dst_ip=dst,
            throughput_bytes_per_s=throughput_mb * MB,
            max_latency_ns=latency,
            application=app_name))
    return channels


def _pick_endpoints(hops: list[list[int | None]], injects: list[str],
                    ejects: list[str], rng: random.Random,
                    throughput_mb: float, params: Section7Parameters,
                    ni_load: dict[str, float], slots: int
                    ) -> tuple[int, int]:
    """Pick the indices of a source and a destination IP with
    bandwidth-aware locality and load steering.

    Heavy flows (above ~65 % of the range, log scale) are placed between
    IPs of the same router; moderate flows within one hop; light flows
    anywhere in the application.  This mirrors what a bandwidth-aware
    mapping flow (the paper reuses the Æthereal tools [16]) produces: the
    heavy streaming pipelines of an application are physically adjacent,
    while control traffic roams.  Without this, 200 random pairs at up to
    500 MB/s exceed any 4x3 mesh's cut capacity at 500 MHz.

    Candidates whose injection or ejection NI link would exceed a
    throughput budget (just over half the slot table, leaving headroom
    for latency-driven slots) are avoided; among admissible candidates
    the first sampled wins, keeping the draw random.  ``hops[a][b]`` is
    the router distance from IP ``a`` to IP ``b`` (``None`` on a shared
    NI); ``injects`` / ``ejects`` are each IP's ``ni_load`` keys.
    """
    span = (math.log(MAX_THROUGHPUT_MB_S) -
            math.log(MIN_THROUGHPUT_MB_S))
    position = (math.log(throughput_mb) -
                math.log(MIN_THROUGHPUT_MB_S)) / span
    if position > 0.65:
        max_hops = 0
    elif position > 0.35:
        max_hops = 1
    else:
        max_hops = 10_000
    budget = 0.55 * params.table_size
    fallback: tuple[int, int] | None = None
    fallback_cost = float("inf")
    n_ips = len(hops)

    # Escalating locality rings: prefer the flow's natural distance, but
    # rather place it further away than overload an NI link.
    for ring in (max_hops, max_hops + 2, 10_000):
        for _ in range(300):
            a, b = _sample_pair(rng, n_ips)
            distance = hops[a][b]
            if distance is None or distance > ring:
                continue
            cost = max(ni_load.get(injects[a], 0.0),
                       ni_load.get(ejects[b], 0.0)) + slots
            if cost <= budget:
                return a, b
            if cost < fallback_cost:
                fallback, fallback_cost = (a, b), cost
        if ring >= 10_000:
            break
    if fallback is None:
        raise ConfigurationError(
            "could not find endpoints on distinct NIs; the mapping is "
            "too concentrated")
    return fallback


def _sample_pair(rng: random.Random, n: int) -> tuple[int, int]:
    """Two distinct indices below ``n``, drawn exactly as
    ``rng.sample(range(n), 2)`` draws them, from two random numbers.

    CPython's ``sample`` takes a pair from a pool for ``n <= 21``: the
    second draw is below ``n - 1``, and drawing the first's slot takes
    the last element moved into it.  Above 21 it redraws a repeat.
    """
    first = rng.randrange(n)
    if n <= 21:
        second = rng.randrange(n - 1)
        return first, (n - 1 if second == first else second)
    second = rng.randrange(n)
    while second == first:
        second = rng.randrange(n)
    return first, second


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    """Log-uniform draw in [low, high]."""
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def _draw_latency(src: str, dst: str, topo: Topology, mapping: Mapping,
                  params: Section7Parameters, fmt: WordFormat,
                  rng: random.Random) -> float:
    """Uniform draw from the feasible part of the paper's latency range.

    The floor is the XY path's traversal time plus one slot of injection
    wait, padded by :data:`LATENCY_FEASIBILITY_MARGIN`.
    """
    path = xy_path(topo, mapping.ni_of(src), mapping.ni_of(dst))
    floor_cycles = (path.traversal_slots + 1) * fmt.flit_size
    floor_ns = floor_cycles / params.frequency_hz * 1e9 * \
        LATENCY_FEASIBILITY_MARGIN
    low = max(MIN_LATENCY_NS, floor_ns)
    if low > params.max_latency_ns:
        low = params.max_latency_ns
    return rng.uniform(low, params.max_latency_ns)


def _relax_for_feasibility(channels_by_app: dict[str, list[ChannelSpec]],
                           topo: Topology, mapping: Mapping,
                           params: Section7Parameters,
                           fmt: WordFormat) -> None:
    """Iterate requirements against slot pressure, as a design flow would.

    The paper's tool flow negotiates requirements with the allocator;
    here the negotiation is explicit: estimate each channel's slot demand
    on its XY route, and while any **NI link's** aggregate demand exceeds
    :data:`LINK_PRESSURE_BUDGET` of the slot table, relax the latency
    requirement of that link's tightest channel by 30 % (never beyond
    the 500 ns maximum; throughput requirements are never touched).
    Only NI injection/ejection links are policed: they have no path
    diversity, whereas router-router overloads are the allocator's job
    to route around.  Deterministic, and every requirement stays inside
    the paper's stated ranges.
    """
    from repro.core.requirements import slots_for_channel

    all_channels: list[ChannelSpec] = []
    for channels in channels_by_app.values():
        all_channels.extend(channels)
    budget = LINK_PRESSURE_BUDGET * params.table_size
    ni_set = set(topo.nis)

    # A round moves one channel's latency and no channel's route: the XY
    # paths, each NI link's pressure and its holders are built once, and
    # a round recomputes the victim's demand and moves its links'
    # pressure by the difference (whole slots, so the sums stay exact).
    paths = [xy_path(topo, mapping.ni_of(spec.src_ip),
                     mapping.ni_of(spec.dst_ip)) for spec in all_channels]

    def demand(index: int) -> int:
        return slots_for_channel(all_channels[index], paths[index],
                                 params.table_size, params.frequency_hz,
                                 fmt)[0]

    demands = [demand(index) for index in range(len(all_channels))]
    ni_keys = [[key for key in path.link_keys()
                if key[0] in ni_set or key[1] in ni_set] for path in paths]
    pressure: dict[tuple[str, str], float] = {}
    holders: dict[tuple[str, str], list[int]] = {}
    for index, keys in enumerate(ni_keys):
        for key in keys:
            pressure[key] = pressure.get(key, 0.0) + demands[index]
            holders.setdefault(key, []).append(index)
    for _ in range(20 * len(all_channels)):
        overloaded = [key for key, load in pressure.items()
                      if load > budget]
        if not overloaded:
            return
        # Relax the tightest latency on the most loaded link that still
        # has a relaxable channel; links loaded purely by throughput are
        # left to the allocator unless they are beyond the hard limit.
        key = None
        candidates: list[int] = []
        for candidate_key in sorted(overloaded,
                                    key=lambda k: -pressure[k]):
            relaxable = [
                i for i in holders[candidate_key]
                if all_channels[i].max_latency_ns is not None and
                all_channels[i].max_latency_ns < params.max_latency_ns]
            if relaxable:
                key, candidates = candidate_key, relaxable
                break
        if key is None:
            worst = max(overloaded, key=lambda k: pressure[k])
            if pressure[worst] <= params.table_size - 2:
                return  # tight but allocatable; the allocator decides
            raise ConfigurationError(
                f"link {worst} is overloaded by throughput alone "
                f"({pressure[worst]:.0f} slots of {params.table_size}); "
                "lower the rates or enlarge the network")
        victim = min(candidates,
                     key=lambda i: all_channels[i].max_latency_ns)
        spec = all_channels[victim]
        relaxed = min(spec.max_latency_ns * 1.3, params.max_latency_ns)
        new_spec = ChannelSpec(
            name=spec.name, src_ip=spec.src_ip, dst_ip=spec.dst_ip,
            throughput_bytes_per_s=spec.throughput_bytes_per_s,
            max_latency_ns=relaxed, application=spec.application,
            burst_bytes=spec.burst_bytes)
        all_channels[victim] = new_spec
        previous, demands[victim] = demands[victim], demand(victim)
        for key in ni_keys[victim]:
            pressure[key] += demands[victim] - previous
        app_list = channels_by_app[spec.application]
        app_list[[c.name for c in app_list].index(spec.name)] = new_spec
    raise ConfigurationError(
        "feasibility relaxation did not converge; the instance is "
        "over-constrained")
