"""The best-effort wormhole loop as a per-object reference: the test-local
oracle of ``repro.baseline.be_network``.

Everything is an object and everything is looked at every tick: each
buffered flit is a ``_BufferedFlit`` in an ``_InputBuffer`` that raises
on overflow, every channel's arrival queue is polled, every output port
rebuilds a bool request vector from every input for a round-robin of its
own, and each message is split into packets as it is expanded from the
pattern's scalar ``events()``.  It imports nothing from ``be_network``:
what the engine computes from flat tables and skips as idle, this walks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.exceptions import SimulationError
from repro.simulation.monitors import (DeliveryRecord, InjectionRecord,
                                       StatsCollector)
from repro.topology.graph import NodeKind


class BoolRoundRobin:
    """Round-robin over a bool request vector: the first requesting index
    at or after the pointer wins, and the pointer moves past it."""

    def __init__(self, n: int):
        self.n = n
        self.pointer = 0

    def grant(self, requests: list[bool]) -> int | None:
        assert len(requests) == self.n
        for offset in range(self.n):
            index = (self.pointer + offset) % self.n
            if requests[index]:
                self.pointer = (index + 1) % self.n
                return index
        return None


@dataclass
class _Packet:
    channel: str
    message_id: int
    created_cycle: int
    out_ports: tuple[int, ...]
    n_flits: int
    payload_bytes: int
    is_final: bool
    incarnation: int
    hop: int = 0
    flits_sent: int = 0


@dataclass
class _BufferedFlit:
    packet: _Packet
    flit_index: int
    arrived_tick: int


class _InputBuffer:
    def __init__(self, name: str, capacity: int):
        self.name = name
        self.capacity = capacity
        self.flits: deque[_BufferedFlit] = deque()

    def has_space(self) -> bool:
        return len(self.flits) < self.capacity

    def push(self, item: _BufferedFlit) -> None:
        if not self.has_space():
            raise SimulationError(f"oracle buffer {self.name!r} overflow")
        self.flits.append(item)


@dataclass
class _Router:
    inputs: list[_InputBuffer]
    arbiters: list[BoolRoundRobin]
    locks: list[int | None]
    downstream: list[_InputBuffer | None] = field(default_factory=list)


@dataclass
class _SourceQueue:
    channel: str
    packets: deque[_Packet] = field(default_factory=deque)
    incarnation: int = -1  # of the packet injected last
    injected: int = 0  # by that incarnation


@dataclass
class _NiState:
    queues: list[_SourceQueue]
    buffer: _InputBuffer
    arbiter: BoolRoundRobin | None = None
    active_queue: int | None = None


def packetise(fmt, channel, out_ports, created_cycle, words, message_id,
              max_packet_flits, incarnation):
    """Split one message of one channel incarnation into wormhole
    packets."""
    total = max(1, -(-words // fmt.payload_words_per_flit))
    packets, remaining = [], total
    while remaining > 0:
        flits = min(remaining, max_packet_flits)
        remaining -= flits
        final = remaining == 0
        packets.append(_Packet(
            channel=channel, message_id=message_id,
            created_cycle=created_cycle, out_ports=out_ports,
            n_flits=flits,
            payload_bytes=words * fmt.bytes_per_word if final else 0,
            is_final=final, incarnation=incarnation))
    return packets


class BeOracle:
    """``BeNetworkSimulator``'s contract, walked object by object."""

    def __init__(self, config, *, buffer_flits=4, max_packet_flits=4):
        self.config = config
        self.fmt = config.fmt
        self.buffer_flits = buffer_flits
        self.max_packet_flits = max_packet_flits

    def run(self, channel_intervals, patterns, n_ticks) -> StatsCollector:
        fmt, flit_size = self.fmt, self.fmt.flit_size
        arrivals, sources = {}, {}
        for name, intervals in channel_intervals.items():
            sources[name] = intervals[0][2].path.source
            events = []
            for incarnation, (start, stop, ca) in enumerate(intervals):
                end = min(stop, n_ticks)
                pattern = patterns.get(name)
                if pattern is None or end <= start:
                    continue
                for event in pattern.events((end - start) * flit_size):
                    tick = start + -(-event.cycle // flit_size)
                    if tick < end:
                        events.extend((tick, packet) for packet in packetise(
                            fmt, name, ca.path.out_ports,
                            start * flit_size + event.cycle, event.words,
                            event.message_id, self.max_packet_flits,
                            incarnation))
            arrivals[name] = deque(events)
        period_ps = round(1e12 / self.config.frequency_hz)
        stats = StatsCollector()
        routers, ni_inputs = self._build()
        nis, queues = {}, {}
        for name in sorted(sources):
            state = nis.setdefault(sources[name],
                                   _NiState([], ni_inputs[sources[name]]))
            queues[name] = _SourceQueue(name)
            state.queues.append(queues[name])
        for state in nis.values():
            state.arbiter = BoolRoundRobin(len(state.queues))
        for tick in range(n_ticks):
            for name, pending in arrivals.items():
                while pending and pending[0][0] <= tick:
                    queues[name].packets.append(pending.popleft()[1])
            for router_name in self.config.topology.routers:
                self._route(routers[router_name], tick, period_ps, stats)
            for ni in sorted(nis):
                self._inject(nis[ni], tick, period_ps, stats)
        return stats

    def _build(self):
        topo, routers = self.config.topology, {}
        for name in topo.routers:
            n_in, n_out = len(topo.predecessors(name)), \
                len(topo.successors(name))
            routers[name] = _Router(
                [_InputBuffer(f"{name}.in{i}", self.buffer_flits)
                 for i in range(n_in)],
                [BoolRoundRobin(n_in) for _ in range(n_out)], [None] * n_out)
        for name, router in routers.items():
            for port in range(len(router.arbiters)):
                neighbour = topo.neighbor_on_port(name, port)
                router.downstream.append(
                    None if topo.kind(neighbour) is NodeKind.NI else
                    routers[neighbour].inputs[
                        topo.link(name, neighbour).dst_port])
        ni_inputs = {}
        for ni in topo.nis:
            router = topo.attached_router(ni)
            ni_inputs[ni] = routers[router].inputs[
                topo.link(ni, router).dst_port]
        return routers, ni_inputs

    def _route(self, router, tick, period_ps, stats):
        consumed = set()
        for port in range(len(router.arbiters)):
            locked = router.locks[port]
            if locked is not None:
                if locked not in consumed and self._advance(
                        router, port, locked, tick, period_ps, stats,
                        expect_body=True):
                    consumed.add(locked)
                continue
            requests = []
            for index, buf in enumerate(router.inputs):
                head = buf.flits[0] if buf.flits else None
                requests.append(
                    index not in consumed and head is not None and
                    head.flit_index == 0 and head.arrived_tick < tick and
                    head.packet.out_ports[head.packet.hop] == port)
            winner = router.arbiters[port].grant(requests)
            if winner is not None and self._advance(
                    router, port, winner, tick, period_ps, stats,
                    expect_body=False):
                consumed.add(winner)

    def _advance(self, router, port, index, tick, period_ps, stats, *,
                 expect_body):
        buf = router.inputs[index]
        if not buf.flits or buf.flits[0].arrived_tick >= tick:
            return False
        if expect_body and buf.flits[0].flit_index == 0:
            router.locks[port] = None  # a stale lock: the tail has passed
            return False
        target = router.downstream[port]
        if target is None:
            item = buf.flits.popleft()
            packet = item.packet
            if item.flit_index == packet.n_flits - 1 and packet.is_final:
                delivered = (tick + 1) * self.fmt.flit_size
                stats.record_delivery(DeliveryRecord(
                    channel=packet.channel, message_id=packet.message_id,
                    created_cycle=packet.created_cycle,
                    created_time_ps=packet.created_cycle * period_ps,
                    delivered_cycle=delivered,
                    delivered_time_ps=delivered * period_ps,
                    payload_bytes=packet.payload_bytes))
        else:
            if not target.has_space():
                return False
            item = buf.flits.popleft()
            if item.flit_index == 0:
                item.packet.hop += 1
            target.push(_BufferedFlit(item.packet, item.flit_index, tick))
        last = item.flit_index == item.packet.n_flits - 1
        router.locks[port] = None if last else index
        return True

    def _inject(self, state, tick, period_ps, stats):
        if not state.buffer.has_space():
            return
        if state.active_queue is None:
            winner = state.arbiter.grant(
                [bool(queue.packets) for queue in state.queues])
            if winner is None:
                return
            state.active_queue = winner
        queue = state.queues[state.active_queue]
        packet = queue.packets[0]
        state.buffer.push(_BufferedFlit(packet, packet.flits_sent, tick))
        if packet.flits_sent == 0:
            if packet.incarnation != queue.incarnation:
                queue.incarnation, queue.injected = packet.incarnation, 0
            cycle = tick * self.fmt.flit_size
            stats.record_injection(InjectionRecord(
                channel=packet.channel, message_id=packet.message_id,
                sequence=queue.injected, slot_index=tick, cycle=cycle,
                time_ps=cycle * period_ps))
            queue.injected += 1
        packet.flits_sent += 1
        if packet.flits_sent == packet.n_flits:
            queue.packets.popleft()
            state.active_queue = None
