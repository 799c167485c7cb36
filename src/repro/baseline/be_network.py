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

import numpy as np

from repro.baseline.arbitration import RoundRobinArbiter
from repro.core.configuration import NocConfiguration
from repro.core.exceptions import ConfigurationError, SimulationError
from repro.simulation.compiled import (CompiledStats, compile_arrivals,
                                       logged_stats)
from repro.topology.graph import NodeKind, Topology

__all__ = ["BePacket", "BeNetworkSimulator"]


@dataclass(slots=True)
class BePacket:
    """One wormhole packet in flight.

    A message larger than ``max_packet_flits`` is split into several
    packets; only the final one (``is_final``) logs the message's
    delivery.  ``row`` is the message's row in the run's compiled
    arrivals, which is what both logs record: the message id, creation
    cycle and payload are read off the arrival columns afterwards.
    """

    out_ports: tuple[int, ...]
    n_flits: int
    row: int
    is_final: bool
    hop: int = field(default=0, init=False)  # routing progress of the head


class _Ni:
    """A source NI: one packet queue per channel it injects, name order."""

    __slots__ = ("buffer", "queues", "arbiter", "pending", "active", "sent")

    def __init__(self, buffer: deque):
        self.buffer = buffer  # the router input queue this NI feeds
        self.queues: list[deque[BePacket]] = []
        self.arbiter: RoundRobinArbiter | None = None
        self.pending = 0  # released packets not yet wholly injected
        self.active: int | None = None  # packet in progress (no interleaving)
        self.sent = 0  # flits of that packet already injected


def _enter(queue: deque, flit: tuple, capacity: int) -> None:
    """Append one flit to a router input queue that has room for it."""
    if len(queue) >= capacity:
        raise SimulationError(
            "BE input queue overflow: link-level flow control violated")
    queue.append(flit)


class BeNetworkSimulator:
    """Flit-granularity wormhole simulator over an allocated configuration.

    Reuses the configuration's topology, mapping and *paths* but ignores
    its slot tables (that is the experiment: same routes, no TDM).
    ``frequency_hz`` may override the configuration's frequency for the
    Section VII frequency sweep — offered traffic is specified in cycles,
    so the caller rebuilds patterns per frequency from byte rates.  The
    options are vetted where they are given,
    :class:`~repro.simulation.backend.BestEffortBackend`.
    """

    def __init__(self, config: NocConfiguration, *,
                 frequency_hz: float | None = None,
                 buffer_flits: int = 4,
                 max_packet_flits: int = 4):
        self.fmt = config.fmt
        self.frequency_hz = (config.frequency_hz if frequency_hz is None
                             else frequency_hz)
        self.buffer_flits = buffer_flits
        self.max_packet_flits = max_packet_flits
        self._topo: Topology = config.topology
        self._router_order: list[str] = list(self._topo.routers)

    def run(self, channel_intervals, patterns, n_ticks: int
            ) -> CompiledStats:
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

        The loop logs arrival rows and ticks, not records; the returned
        collector answers every aggregate read from those columns and
        builds records only for a caller that asks for them
        (:func:`~repro.simulation.compiled.logged_stats`).
        """
        flit_size = self.fmt.flit_size
        routers, ni_inputs = self._build_routers()
        nis: dict[str, _Ni] = {}
        # One lane (NI, queue, source route) per interval that offers
        # traffic; its arrivals are one segment of a single batch
        # compiled by the executor's compiler
        # (:func:`repro.simulation.compiled.compile_arrivals`).
        lanes, segments, ends, streams = [], [], [], []
        # Name order: each NI arbitrates its channels' queues in it.
        for name, intervals in sorted(channel_intervals.items()):
            source = intervals[0][2].path.source
            if source not in nis:
                nis[source] = _Ni(ni_inputs[source])
            ni, queue = nis[source], deque()
            ni.queues.append(queue)
            pattern = patterns.get(name)
            for start, stop, ca in intervals:
                if ca.path.source != source:
                    raise ConfigurationError(
                        f"channel {name!r} restarts from a different "
                        "source NI; the baseline keeps one queue per "
                        "channel")
                end = min(stop, n_ticks)
                if pattern is None or end <= start:
                    continue
                lifetime_cycles = (end - start) * flit_size
                lanes.append((ni, queue, ca.path.out_ports))
                segments.append((name, start))
                ends.append(end)
                streams.append((pattern, lifetime_cycles, lifetime_cycles))
        arrivals = compile_arrivals(streams)
        for ni in nis.values():
            ni.arbiter = RoundRobinArbiter(len(ni.queues))
        injected: tuple[list[int], list[int]] = ([], [])
        delivered: tuple[list[int], list[int]] = ([], [])
        self._run_loop(n_ticks, self._releases(arrivals, segments, ends,
                                               n_ticks),
                       lanes, routers, [nis[source] for source in sorted(nis)],
                       injected, delivered)
        return logged_stats(arrivals, segments, injected, delivered,
                            flit_size=flit_size,
                            period_ps=round(1e12 / self.frequency_hz),
                            bytes_per_word=self.fmt.bytes_per_word)

    def _releases(self, arrivals, segments, ends, n_ticks: int):
        """Which arrivals each tick releases: ``(edges, rows, lanes,
        flits)``, the arrivals a tick releases being positions
        ``edges[tick]:edges[tick + 1]`` of the three lists.

        An arrival is ready at the first tick boundary at or after it;
        one ready at or after its interval's end never becomes
        injectable (by then the session is gone; the flit-level
        simulator drops the same arrival with the schedule row).  A
        channel's arrivals are released in event order, so one never
        overtakes its predecessor: a release tick is the running
        maximum of the ready ticks over the channel's arrivals.
        """
        flit_size = self.fmt.flit_size
        lane = np.repeat(np.arange(len(ends)), np.diff(arrivals.bounds))
        start = np.array([start for _, start in segments], np.int64)
        ready = start[lane] - (-arrivals.cycles // flit_size)
        kept = np.flatnonzero(ready < np.array(ends, np.int64)[lane])
        lane = lane[kept]
        codes: dict[str, int] = {}
        # Every ready tick lies in [0, n_ticks): lifting each channel
        # above the one before keeps one running maximum per channel.
        lift = np.array([codes.setdefault(name, len(codes))
                         for name, _ in segments], np.int64)[lane] * n_ticks
        release = np.maximum.accumulate(ready[kept] + lift) - lift
        order = np.argsort(release, kind="stable")
        flits = np.maximum(-(-arrivals.words[kept] //
                             self.fmt.payload_words_per_flit), 1)
        return (np.searchsorted(release[order],
                                np.arange(n_ticks + 1)).tolist(),
                kept[order].tolist(), lane[order].tolist(),
                flits[order].tolist())

    def _run_loop(self, n_ticks: int, releases, lanes, routers,
                  nis: list[_Ni], injected, delivered) -> None:
        """The tick loop: release what is due, then every router in
        topology order, then every NI in name order.

        A queued flit is ``(packet, flit index, tick it arrived)``; it
        may move on from the tick after it arrived.  An NI with no
        released packet left to send is skipped outright: its grant
        would be idle, and an idle grant leaves the pointer in place.
        A message becomes packets of ``max_packet_flits`` flits when it
        is released.  The loop appends the arrival row and tick of each
        packet's first flit to ``injected`` and of each message's final
        flit to ``delivered``.
        """
        capacity = self.buffer_flits
        most = self.max_packet_flits
        edges, rows, lane_of, n_flits = releases
        inject_row, inject_tick = (column.append for column in injected)
        deliver_row, deliver_tick = (column.append for column in delivered)
        for tick in range(n_ticks):
            for at in range(edges[tick], edges[tick + 1]):
                ni, queue, out_ports = lanes[lane_of[at]]
                row, flits = rows[at], n_flits[at]
                while flits > most:
                    queue.append(BePacket(out_ports, most, row, False))
                    ni.pending += 1
                    flits -= most
                queue.append(BePacket(out_ports, flits, row, True))
                ni.pending += 1
            for inputs, downstream, locks, arbiters in routers:
                # One pass over the inputs records which output each
                # eligible head flit asks for.  It holds for the whole
                # router-tick: an input changes only by being consumed,
                # and each input asks for one output at most.
                asked: dict[int, list[int]] = {}
                idle = True
                for index, queue in enumerate(inputs):
                    if queue:
                        idle = False
                        packet, flit, arrived = queue[0]
                        if not flit and arrived < tick:
                            port = packet.out_ports[packet.hop]
                            if port in asked:
                                asked[port].append(index)
                            else:
                                asked[port] = [index]
                if idle:
                    continue
                for port, held in enumerate(locks):
                    if held is None:
                        requests = asked.get(port)
                        if requests is None:
                            continue
                        held = arbiters[port].grant(requests)
                        queue = inputs[held]
                    else:
                        # Wormhole lock: the held input's next flit
                        # is the locked packet's (nothing interleaves).
                        queue = inputs[held]
                        if not queue or queue[0][2] >= tick:
                            continue
                    target = downstream[port]
                    if target is None:
                        packet, flit, _ = queue.popleft()
                        if packet.is_final and flit == packet.n_flits - 1:
                            deliver_row(packet.row)
                            deliver_tick(tick)
                    elif len(target) < capacity:
                        packet, flit, _ = queue.popleft()
                        if not flit:
                            # The head advances a hop: the next router
                            # reads the next entry of the source route.
                            packet.hop += 1
                        _enter(target, (packet, flit, tick), capacity)
                    else:
                        continue  # link-level flow control: no space
                    locks[port] = None if flit == packet.n_flits - 1 \
                        else held
            for ni in nis:
                if not ni.pending or len(ni.buffer) >= capacity:
                    continue
                active = ni.active
                if active is None:
                    active = ni.active = ni.arbiter.grant(
                        [index for index, queue in enumerate(ni.queues)
                         if queue])
                queue = ni.queues[active]
                packet, sent = queue[0], ni.sent
                _enter(ni.buffer, (packet, sent, tick), capacity)
                if not sent:
                    inject_row(packet.row)
                    inject_tick(tick)
                sent += 1
                if sent == packet.n_flits:
                    queue.popleft()
                    ni.active, ni.pending, sent = None, ni.pending - 1, 0
                ni.sent = sent

    def _build_routers(self):
        """Each router's ``(input queues, downstream queue per output —
        ``None`` delivers to an NI —, lock per output, arbiter per
        output)`` in topology order, and each NI's input queue: the
        topology is asked once per port, not per flit."""
        topo = self._topo
        inputs = {name: [deque() for _ in topo.predecessors(name)]
                  for name in self._router_order}
        routers = []
        for name in self._router_order:
            downstream = []
            for out_port in range(len(topo.successors(name))):
                neighbour = topo.neighbor_on_port(name, out_port)
                downstream.append(
                    None if topo.kind(neighbour) is NodeKind.NI else
                    inputs[neighbour][topo.link(name, neighbour).dst_port])
            routers.append((inputs[name], downstream,
                            [None] * len(downstream),
                            [RoundRobinArbiter(len(inputs[name]))
                             for _ in downstream]))
        ni_inputs: dict[str, deque] = {}
        for ni in topo.nis:
            router_name = topo.attached_router(ni)
            ni_inputs[ni] = inputs[router_name][
                topo.link(ni, router_name).dst_port]
        return routers, ni_inputs
