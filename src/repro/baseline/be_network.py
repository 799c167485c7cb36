"""Best-effort wormhole network: the Æthereal GS+BE comparison point.

Section VII of the paper re-runs the 200-connection use case with the
same IP mapping and the same paths, but with every connection demoted
from guaranteed service to best effort on an Æthereal-style network.
This module provides that network: input-buffered wormhole routers with

* **source routing** over exactly the paths the allocator chose,
* **round-robin arbitration** per output port among requesting inputs,
* **link-level flow control** (a flit moves only when the downstream
  input buffer has space — credits in hardware, an occupancy check in
  the model), and
* **wormhole packet locking**: once a packet's head flit wins an output,
  the output is held until the tail passes.

The simulator advances in flit cycles ("ticks" of ``flit_size`` word
cycles), the natural time unit for flit-granularity switching.  Physical
resource constraints are enforced exactly: a flit moves at most one hop
per tick, each input buffer feeds at most one output per tick, each
output forwards at most one flit per tick, and each NI injects at most
one flit per tick without interleaving packets.

What this network deliberately lacks — and what the experiment shows it
costs — is isolation: latency now depends on every other application's
traffic, so composability is lost and worst-case latency grows with
congestion even though *average* latency often beats TDM (no slot
waiting when the network is idle).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.baseline.arbitration import RoundRobinArbiter
from repro.core.configuration import NocConfiguration
from repro.core.exceptions import ConfigurationError, SimulationError
from repro.simulation.compiled import pattern_slice
from repro.simulation.monitors import (DeliveryRecord, InjectionRecord,
                                       StatsCollector)
from repro.topology.graph import NodeKind, Topology

__all__ = ["BePacket", "BeNetworkSimulator"]


@dataclass
class BePacket:
    """One wormhole packet in flight.

    A message larger than ``max_packet_flits`` is split into several
    packets; only the final one (``is_final``) records the message's
    delivery.
    """

    channel: str
    message_id: int
    created_cycle: int
    out_ports: tuple[int, ...]
    n_flits: int
    payload_bytes: int
    is_final: bool = True
    hop: int = 0            # routing progress of the *head* flit
    flits_sent: int = 0     # injection progress at the source NI


@dataclass
class _BufferedFlit:
    packet: BePacket
    flit_index: int
    arrived_tick: int


class _InputBuffer:
    """A router input queue with link-level flow control."""

    __slots__ = ("name", "capacity", "flits")

    def __init__(self, name: str, capacity: int):
        self.name = name
        self.capacity = capacity
        self.flits: deque[_BufferedFlit] = deque()

    def has_space(self) -> bool:
        return len(self.flits) < self.capacity

    def push(self, item: _BufferedFlit) -> None:
        if not self.has_space():
            raise SimulationError(
                f"BE buffer {self.name!r} overflow: link-level flow "
                "control violated")
        self.flits.append(item)

    def pop(self) -> _BufferedFlit:
        return self.flits.popleft()

    def __len__(self) -> int:
        return len(self.flits)


@dataclass
class _BeRouter:
    name: str
    inputs: list[_InputBuffer]
    arbiters: list[RoundRobinArbiter]
    locks: list[int | None] = field(default_factory=list)
    #: Where each output port leads: the downstream router's input
    #: buffer, or ``None`` for an NI (the flit is delivered).
    downstream: list[_InputBuffer | None] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.locks:
            self.locks = [None] * len(self.arbiters)


@dataclass
class _SourceQueue:
    channel: str
    packets: deque[BePacket] = field(default_factory=deque)
    injected: int = 0  # packets sent; the queue outlives restarts


@dataclass
class _NiState:
    queues: list[_SourceQueue]
    arbiter: RoundRobinArbiter
    buffer: _InputBuffer  # the router input this NI injects into
    active_queue: int | None = None  # packet in progress (no interleaving)


class BeNetworkSimulator:
    """Flit-granularity wormhole simulator over an allocated configuration.

    Reuses the configuration's topology, mapping and *paths* but ignores
    its slot tables (that is the experiment: same routes, no TDM).
    ``frequency_hz`` may override the configuration's frequency for the
    Section VII frequency sweep — offered traffic is specified in cycles,
    so the caller rebuilds patterns per frequency from byte rates.
    """

    def __init__(self, config: NocConfiguration, *,
                 frequency_hz: float | None = None,
                 buffer_flits: int = 4,
                 max_packet_flits: int = 4):
        if buffer_flits < 1:
            raise ConfigurationError("buffer_flits must be >= 1")
        if max_packet_flits < 1:
            raise ConfigurationError("max_packet_flits must be >= 1")
        self.config = config
        self.fmt = config.fmt
        self.frequency_hz = frequency_hz or config.frequency_hz
        self.buffer_flits = buffer_flits
        self.max_packet_flits = max_packet_flits
        self._topo: Topology = config.topology
        self._router_order: list[str] = list(self._topo.routers)

    # -- main loop --------------------------------------------------------------

    def run(self, channel_intervals, patterns, n_ticks: int
            ) -> StatsCollector:
        """Offer each channel's pattern over its ``(start, stop,
        allocation)`` intervals and run ``n_ticks`` flit cycles.

        Without TDM there is no schedule to recompile: a transition only
        changes *who offers traffic*.  Each channel's pattern (relative
        to its start tick) is offered during its active intervals and
        silenced outside them; packets already queued when a session
        stops drain naturally.  Because wormhole arbitration shares
        buffers and output ports globally, a survivor's timing depends
        on that churn — the divergence the dynamic composability check
        exposes, and exactly what the TDM network is engineered to
        exclude.  A static run is the table with one ``(0, n_ticks,
        allocation)`` interval per allocated channel;
        :class:`~repro.simulation.backend.BestEffortBackend` builds
        either table from a vetted request.
        """
        fmt = self.fmt
        flit_size = fmt.flit_size
        # Each pattern's arrival stream is compiled once, as far as its
        # longest interval reads, into the shared flat representation
        # (:func:`repro.simulation.compiled.pattern_slice`) and each
        # incarnation takes a prefix slice — the same tables the flit
        # executor runs on, instead of re-expanding ``events()`` per
        # interval.
        table_cache: dict = {}
        arrivals: dict[str, list[tuple[int, BePacket]]] = {}
        sources: dict[str, str] = {}
        for name, intervals in channel_intervals.items():
            sources[name] = intervals[0][2].path.source
            queue: list[tuple[int, BePacket]] = []
            pattern = patterns.get(name)
            for start, stop, ca in intervals:
                if ca.path.source != sources[name]:
                    raise ConfigurationError(
                        f"channel {name!r} restarts from a different "
                        "source NI; the baseline keeps one queue per "
                        "channel")
                end = min(stop, n_ticks)
                span = end - start
                if pattern is None or span <= 0:
                    continue
                lifetime_cycles = span * flit_size
                table, count = pattern_slice(
                    table_cache, pattern, lifetime_cycles,
                    lifetime_cycles, fmt)
                rows = zip((start + table.ready[:count]).tolist(),
                           table.cycles[:count].tolist(),
                           table.words[:count].tolist(),
                           table.mids[:count].tolist())
                base_cycle = start * flit_size
                out_ports = ca.path.out_ports
                for tick, cycle, words, mid in rows:
                    # An arrival mid-way through the last active slot
                    # only becomes injectable at the stop boundary
                    # itself — by then the session is gone (the
                    # flit-level simulator drops the same arrival with
                    # the schedule row).
                    if tick < end:
                        queue.extend(
                            (tick, p) for p in self._packetise(
                                name, out_ports, base_cycle + cycle,
                                words, mid))
            arrivals[name] = queue
        return self._run_loop(n_ticks, arrivals, sources)

    def _run_loop(self, n_ticks: int,
                  arrivals: dict[str, list[tuple[int, BePacket]]],
                  sources: dict[str, str]) -> StatsCollector:
        """The tick loop over prebuilt ``(tick, packet)`` arrival lists.

        ``sources`` maps each channel to its injecting NI, in the
        deterministic (name-sorted) order queues are arbitrated in.
        """
        period_ps = round(1e12 / self.frequency_hz)
        stats = StatsCollector()
        routers, ni_inputs = self._build_routers()
        nis: dict[str, _NiState] = {}
        # Arrivals are bucketed by the tick that releases them, so a tick
        # visits only what is due in it.  A channel's arrivals are
        # released in list order: one never overtakes its predecessor.
        due: list[list[tuple[deque[BePacket], BePacket]]] = [
            [] for _ in range(n_ticks)]
        for name, source in sorted(sources.items()):
            state = nis.setdefault(source, _NiState(
                [], RoundRobinArbiter(1), ni_inputs[source]))
            queue = _SourceQueue(channel=name)
            state.queues.append(queue)
            release = 0
            for tick, packet in arrivals[name]:
                release = max(release, tick)
                due[release].append((queue.packets, packet))
        for state in nis.values():
            state.arbiter = RoundRobinArbiter(len(state.queues))
        router_order = [routers[name] for name in self._router_order]
        ni_order = [nis[ni] for ni in sorted(nis)]

        for tick in range(n_ticks):
            for packets, packet in due[tick]:
                packets.append(packet)
            for router in router_order:
                self._route_tick(router, tick, period_ps, stats)
            for state in ni_order:
                self._inject_tick(state, tick, period_ps, stats)
        return stats

    # -- construction -------------------------------------------------------------

    def _build_routers(self) -> tuple[dict[str, _BeRouter],
                                      dict[str, _InputBuffer]]:
        """The routers with their port tables, and each NI's input
        buffer: the topology is asked once per port, not per flit."""
        topo = self._topo
        routers: dict[str, _BeRouter] = {}
        for name in self._router_order:
            n_in = len(topo.predecessors(name))
            n_out = len(topo.successors(name))
            routers[name] = _BeRouter(
                name=name,
                inputs=[_InputBuffer(f"{name}.in{i}", self.buffer_flits)
                        for i in range(n_in)],
                arbiters=[RoundRobinArbiter(n_in) for _ in range(n_out)])
        for name, router in routers.items():
            for out_port in range(len(router.arbiters)):
                neighbour = topo.neighbor_on_port(name, out_port)
                router.downstream.append(
                    None if topo.kind(neighbour) is NodeKind.NI else
                    routers[neighbour].inputs[
                        topo.link(name, neighbour).dst_port])
        ni_inputs: dict[str, _InputBuffer] = {}
        for ni in topo.nis:
            router_name = topo.attached_router(ni)
            ni_inputs[ni] = routers[router_name].inputs[
                topo.link(ni, router_name).dst_port]
        return routers, ni_inputs

    def _packetise(self, channel: str, out_ports: tuple[int, ...],
                   created_cycle: int, words: int, message_id: int
                   ) -> list[BePacket]:
        """Split one message into wormhole packets."""
        fmt = self.fmt
        total_flits = max(1, -(-words // fmt.payload_words_per_flit))
        message_bytes = words * fmt.bytes_per_word
        packets: list[BePacket] = []
        remaining = total_flits
        while remaining > 0:
            flits = min(remaining, self.max_packet_flits)
            remaining -= flits
            final = remaining == 0
            # The delivery record (written at the final packet's tail)
            # reports the whole message's payload, matching the
            # flit-level simulator's accounting.
            packets.append(BePacket(
                channel=channel, message_id=message_id,
                created_cycle=created_cycle, out_ports=out_ports,
                n_flits=flits,
                payload_bytes=message_bytes if final else 0,
                is_final=final))
        return packets

    # -- per-tick behaviour ----------------------------------------------------------

    def _route_tick(self, router: _BeRouter, tick: int, period_ps: int,
                    stats: StatsCollector) -> None:
        # One pass over the inputs records which output each eligible
        # head flit asks for.  It holds for the whole router-tick: within
        # it an input changes only by being consumed, and the flit behind
        # a consumed one is not in this record, so no input feeds two
        # outputs in a tick.
        inputs = router.inputs
        asked: dict[int, list[bool]] = {}
        idle = True
        for index, buf in enumerate(inputs):
            if not buf.flits:
                continue
            idle = False
            head = buf.flits[0]
            if head.flit_index == 0 and head.arrived_tick < tick:
                out_port = head.packet.out_ports[head.packet.hop]
                if out_port not in asked:
                    asked[out_port] = [False] * len(inputs)
                asked[out_port][index] = True
        if idle:
            return
        consumed_inputs: set[int] = set()
        for out_port, locked in enumerate(router.locks):
            if locked is not None:
                if locked in consumed_inputs:
                    continue
                if self._try_advance(router, out_port, locked, tick,
                                     period_ps, stats, expect_body=True):
                    consumed_inputs.add(locked)
                continue
            requests = asked.get(out_port)
            if requests is None:
                continue  # an idle grant leaves the pointer where it is
            winner = router.arbiters[out_port].grant(requests)
            if winner is None:
                continue
            if self._try_advance(router, out_port, winner, tick, period_ps,
                                 stats, expect_body=False):
                consumed_inputs.add(winner)

    def _try_advance(self, router: _BeRouter, out_port: int,
                     input_index: int, tick: int, period_ps: int,
                     stats: StatsCollector, *, expect_body: bool) -> bool:
        """Forward the head flit of one input through ``out_port``."""
        buf = router.inputs[input_index]
        if not buf.flits:
            return False
        head = buf.flits[0]
        if head.arrived_tick >= tick:
            return False
        if expect_body and head.flit_index == 0:
            # The previous packet's tail has passed; release a stale lock.
            router.locks[out_port] = None
            return False
        dst_buf = router.downstream[out_port]
        if dst_buf is None:
            item = buf.pop()
            self._deliver_if_tail(item, tick, period_ps, stats)
        else:
            if not dst_buf.has_space():
                return False
            item = buf.pop()
            if item.flit_index == 0:
                # The head advances a hop: the next router consumes the
                # next entry of the source route.
                item.packet.hop += 1
            dst_buf.push(_BufferedFlit(item.packet, item.flit_index, tick))
        # Wormhole lock: hold the output until the tail passes.
        is_tail = item.flit_index == item.packet.n_flits - 1
        router.locks[out_port] = None if is_tail else input_index
        return True

    def _deliver_if_tail(self, item: _BufferedFlit, tick: int,
                         period_ps: int, stats: StatsCollector) -> None:
        packet = item.packet
        if item.flit_index != packet.n_flits - 1 or not packet.is_final:
            return
        delivered_cycle = (tick + 1) * self.fmt.flit_size
        stats.record_delivery(DeliveryRecord(
            channel=packet.channel, message_id=packet.message_id,
            created_cycle=packet.created_cycle,
            created_time_ps=packet.created_cycle * period_ps,
            delivered_cycle=delivered_cycle,
            delivered_time_ps=delivered_cycle * period_ps,
            payload_bytes=packet.payload_bytes))

    def _inject_tick(self, state: _NiState, tick: int, period_ps: int,
                     stats: StatsCollector) -> None:
        buf = state.buffer
        if not buf.has_space():
            return
        if state.active_queue is None:
            requests = [bool(q.packets) for q in state.queues]
            winner = state.arbiter.grant(requests)
            if winner is None:
                return
            state.active_queue = winner
        queue = state.queues[state.active_queue]
        packet = queue.packets[0]
        buf.push(_BufferedFlit(packet, packet.flits_sent, tick))
        if packet.flits_sent == 0:
            stats.record_injection(InjectionRecord(
                channel=packet.channel, message_id=packet.message_id,
                sequence=queue.injected, slot_index=tick,
                cycle=tick * self.fmt.flit_size,
                time_ps=tick * self.fmt.flit_size * period_ps))
            queue.injected += 1
        packet.flits_sent += 1
        if packet.flits_sent == packet.n_flits:
            queue.packets.popleft()
            state.active_queue = None
