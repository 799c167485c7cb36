"""Measurement infrastructure: latency, throughput and trace records.

Both simulators (the fast flit-level one and the detailed word-level one)
emit the same record types, so analyses and composability comparisons can
consume either.  All figures derive from two event logs:

* :class:`InjectionRecord` — a flit left its source NI in a given slot;
* :class:`DeliveryRecord` — a message's final word arrived at the
  destination NI.

:class:`ChannelStats` aggregates per-channel latency/throughput;
:class:`TraceRecorder` holds the exact per-flit timing read off the same
two logs (:meth:`StatsCollector.composability_trace`) for bit-identical
composability comparison (the paper's isolation claim is about *identical
timing*, not merely similar averages).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.exceptions import SimulationError

__all__ = ["InjectionRecord", "DeliveryRecord", "ChannelStats",
           "ServiceObservation", "StatsCollector", "TraceRecorder",
           "LatencySummary", "latency_digest"]


def latency_digest(label: str, stats: "StatsCollector",
                   simulated_slots: int, slots_unit: str,
                   frequency_hz: float) -> str:
    """One-line latency summary shared by every simulator's result type.

    ``label`` names the producer (backend name); ``slots_unit`` is the
    producer's time-unit noun ("slots", "ticks").
    """
    count = stats.delivery_count()
    head = (f"{label}: {len(stats.channels)} channels, "
            f"{count} messages over {simulated_slots} "
            f"{slots_unit} @ {frequency_hz / 1e6:.0f} MHz")
    if not count:
        return head + ", no deliveries"
    s = LatencySummary.of(stats.all_latencies_ns())
    return (f"{head}; latency ns min={s.minimum:.1f} mean={s.mean:.1f} "
            f"p50={s.p50:.1f} p99={s.p99:.1f} max={s.maximum:.1f}")


@dataclass(slots=True)
class InjectionRecord:
    """One flit departure from a source NI.

    A plain mutable record: the simulators emit one per flit on the hot
    path, so construction cost matters more than immutability.
    ``sequence`` counts the channel's injections since it (re)started:
    a timeline that restarts a channel restarts the count, and 0 is
    what marks the first injection of an incarnation
    (:meth:`ChannelStats.incarnations`).
    """

    channel: str
    message_id: int
    sequence: int
    slot_index: int          # absolute slot count since reset
    cycle: int               # source-NI cycle of the first word
    time_ps: int             # wall-clock time of the first word


@dataclass(slots=True)
class DeliveryRecord:
    """Completion of one message at the destination NI.

    Mutable for the same hot-path reason as :class:`InjectionRecord`.
    """

    channel: str
    message_id: int
    created_cycle: int       # source-NI cycle the message became ready
    created_time_ps: int     # wall-clock equivalent
    delivered_cycle: int     # destination-NI cycle of the final word
    delivered_time_ps: int   # wall-clock time of the final word
    payload_bytes: int

    @property
    def latency_ps(self) -> int:
        """Message latency on the wall clock."""
        return self.delivered_time_ps - self.created_time_ps

    @property
    def latency_ns(self) -> float:
        """Message latency in nanoseconds."""
        return self.latency_ps / 1000.0


@dataclass(frozen=True)
class LatencySummary:
    """Order statistics of a latency population, in nanoseconds."""

    count: int
    minimum: float
    mean: float
    p50: float
    p99: float
    maximum: float

    @classmethod
    def empty(cls) -> "LatencySummary":
        """The all-zero summary of a sample with no deliveries.

        >>> LatencySummary.empty().count
        0
        """
        return cls(count=0, minimum=0.0, mean=0.0, p50=0.0, p99=0.0,
                   maximum=0.0)

    @staticmethod
    def of(latencies_ns: Iterable[float]) -> "LatencySummary":
        """Summarise a latency sample.

        An empty sample degrades to :meth:`empty` (count 0, all-zero
        statistics) instead of raising — zero-delivery runs are a
        legitimate outcome of short horizons and fault scenarios, and
        digests must not blow up on them.

        >>> LatencySummary.of([]) == LatencySummary.empty()
        True
        """
        return LatencySummary.of_sorted(sorted(latencies_ns))

    @staticmethod
    def of_sorted(data: list[float]) -> "LatencySummary":
        """Summarise a latency sample already sorted ascending.

        >>> LatencySummary.of_sorted([1.0, 2.0, 6.0]).mean
        3.0
        """
        if not data:
            return LatencySummary.empty()

        def pct(p: float) -> float:
            index = min(len(data) - 1, max(0, math.ceil(p * len(data)) - 1))
            return data[index]

        return LatencySummary(
            count=len(data), minimum=data[0],
            mean=sum(data) / len(data),
            p50=pct(0.50), p99=pct(0.99), maximum=data[-1])


@dataclass
class ChannelStats:
    """Per-channel aggregate measurements."""

    channel: str
    deliveries: list[DeliveryRecord] = field(default_factory=list)
    injections: list[InjectionRecord] = field(default_factory=list)

    @property
    def delivered_bytes(self) -> int:
        """Total payload bytes delivered."""
        return sum(r.payload_bytes for r in self.deliveries)

    def latency_summary(self) -> LatencySummary:
        """Latency order statistics over all delivered messages."""
        return LatencySummary.of(r.latency_ns for r in self.deliveries)

    def incarnations(self) -> list["ChannelStats"]:
        """The records split per (re)start of the channel, in order.

        A timeline may stop a channel and start it again under the same
        name, on another route, with message ids counting from their
        first value again.  An injection with ``sequence`` 0 opens an
        incarnation; a delivery belongs to the incarnation that injected
        it, which is the last one to start before the message was
        created.  A channel that never injected has none.

        >>> stats = ChannelStats("c", injections=[
        ...     InjectionRecord("c", 0, 0, 2, 6, 6000),
        ...     InjectionRecord("c", 0, 0, 9, 27, 27000)], deliveries=[
        ...     DeliveryRecord("c", 0, 3, 3000, 12, 12000, 8),
        ...     DeliveryRecord("c", 0, 24, 24000, 33, 33000, 8)])
        >>> [(len(i.injections), i.delivered_bytes)
        ...  for i in stats.incarnations()]
        [(1, 8), (1, 8)]
        """
        injections, deliveries = self.injections, self.deliveries
        if not injections:
            return []
        if injections[-1].sequence == len(injections) - 1:
            return [self]  # the count never restarted
        starts = [index for index, record in enumerate(injections)
                  if record.sequence == 0 and index]
        if not starts:
            return [self]
        out: list[ChannelStats] = []
        delivered = 0
        for lo, hi in zip([0] + starts, starts + [len(injections)]):
            last_injection_ps = injections[hi - 1].time_ps
            first = delivered
            while delivered < len(deliveries) and deliveries[
                    delivered].created_time_ps <= last_injection_ps:
                delivered += 1
            out.append(ChannelStats(self.channel,
                                    deliveries[first:delivered],
                                    injections[lo:hi]))
        return out

    def throughput_bytes_per_s(self, measured_from_ps: int,
                               measured_to_ps: int) -> float:
        """Delivered payload rate over an observation window.

        Counts messages delivered inside ``[measured_from_ps,
        measured_to_ps)``; use a window that starts after warm-up.
        """
        if measured_to_ps <= measured_from_ps:
            raise SimulationError("empty measurement window")
        window_bytes = sum(
            r.payload_bytes for r in self.deliveries
            if measured_from_ps <= r.delivered_time_ps < measured_to_ps)
        return window_bytes * 1e12 / (measured_to_ps - measured_from_ps)


class ServiceObservation:
    """Count, worst and mean of a population of service latencies.

    The one fold every watcher reads — the use-case runs, the
    experiment tables and the conformance monitor each hold ``worst_ns``
    against their own requirement or bound with their own tolerance.
    ``worst_ns`` and ``mean_ns`` are ``None`` when nothing was measured.

    >>> seen = ServiceObservation([30.0, 50.0, 40.0])
    >>> seen.count, seen.worst_ns, seen.mean_ns
    (3, 50.0, 40.0)
    >>> ServiceObservation([]).worst_ns is None
    True
    """

    __slots__ = ("latencies_ns", "count", "worst_ns", "mean_ns")

    def __init__(self, latencies_ns: list[float]):
        self.latencies_ns = latencies_ns
        self.count = len(latencies_ns)
        self.worst_ns = max(latencies_ns) if latencies_ns else None
        self.mean_ns = (sum(latencies_ns) / self.count
                        if latencies_ns else None)


class StatsCollector:
    """Shared sink for all simulation records."""

    def __init__(self):
        self._by_channel: dict[str, ChannelStats] = {}

    def record_injection(self, record: InjectionRecord) -> None:
        """Log one flit injection."""
        self._channel(record.channel).injections.append(record)

    def record_delivery(self, record: DeliveryRecord) -> None:
        """Log one message completion."""
        self._channel(record.channel).deliveries.append(record)

    def _channel(self, name: str) -> ChannelStats:
        stats = self._by_channel.get(name)
        if stats is None:
            stats = ChannelStats(name)
            self._by_channel[name] = stats
        return stats

    def channel(self, name: str) -> ChannelStats:
        """Stats of one channel (empty stats if nothing recorded).

        A pure read: querying a silent channel returns a transient empty
        view without registering it, so :attr:`channels` never grows
        from lookups.
        """
        stats = self._by_channel.get(name)
        return stats if stats is not None else ChannelStats(name)

    def sink(self, name: str) -> ChannelStats:
        """The *registered* stats of one channel, for hot-path appends.

        Unlike :meth:`channel` this inserts the channel, so simulators
        can cache the record lists and append directly; pair with
        :meth:`prune_empty` before handing the collector out.
        """
        return self._channel(name)

    def prune_empty(self) -> None:
        """Drop channels that never recorded anything.

        Simulators that pre-register every channel for hot-path appends
        call this before returning, so :attr:`channels` keeps its
        contract: only channels with at least one record appear.
        """
        self._by_channel = {
            name: stats for name, stats in self._by_channel.items()
            if stats.injections or stats.deliveries}

    @property
    def channels(self) -> tuple[str, ...]:
        """All channels with at least one record, sorted."""
        return tuple(sorted(self._by_channel))

    def all_deliveries(self) -> list[DeliveryRecord]:
        """Every delivery record across channels (stable order)."""
        out: list[DeliveryRecord] = []
        for name in self.channels:
            out.extend(self._by_channel[name].deliveries)
        return out

    def delivery_count(self) -> int:
        """Total messages delivered across channels.

        Subclasses backed by compiled schedule arrays answer this (and
        :meth:`all_latencies_ns`) without materialising records, so the
        one-line digests stay cheap on lazy collectors.
        """
        return sum(len(stats.deliveries)
                   for stats in self._by_channel.values())

    def all_latencies_ns(self) -> list[float]:
        """Every delivery latency, in :meth:`all_deliveries` order."""
        return [d.latency_ns for d in self.all_deliveries()]

    def channel_aggregate(self, channel: str
                          ) -> tuple[int, int, int, list[float]]:
        """``(messages, flits, delivered bytes, end-to-end latencies in
        delivery order)`` of one channel — what a canonical record and a
        latency summary need of it.  This record walk is the reference;
        collectors backed by schedule arrays override it."""
        stats = self.channel(channel)
        return (len(stats.deliveries), len(stats.injections),
                stats.delivered_bytes,
                [d.latency_ns for d in stats.deliveries])

    def service_latencies_ns(self, channel: str) -> list[float]:
        """Per-message network service latencies of one channel.

        The service latency of a message excludes queueing behind the
        channel's *own* earlier messages: it runs from
        ``max(creation, injection of the previous message)`` to delivery.
        This is the paper's "flit latency": the time the network takes
        once a flit is at the head of its NI queue.  The analytical
        bound covers exactly this quantity, for any arrival process;
        end-to-end latency additionally contains self-queueing, which is
        the IP's contract violation, not the network's.

        Message ids and the previous-injection chain restart with the
        channel, so the walk runs once per incarnation
        (:meth:`ChannelStats.incarnations`) and the populations are
        concatenated in order.  This record walk is the reference;
        collectors backed by schedule arrays override it.
        """
        latencies: list[float] = []
        for incarnation in self.channel(channel).incarnations():
            injections = {r.message_id: r.time_ps
                          for r in incarnation.injections}
            previous_injection: int | None = None
            for record in sorted(incarnation.deliveries,
                                 key=lambda d: d.message_id):
                ready = record.created_time_ps
                if previous_injection is not None and \
                        previous_injection > ready:
                    ready = previous_injection
                latencies.append(
                    (record.delivered_time_ps - ready) / 1000.0)
                previous_injection = injections.get(record.message_id,
                                                    previous_injection)
        return latencies

    def composability_trace(self) -> "TraceRecorder":
        """Every channel's ``(message_id, final_injection_slot,
        delivery_cycle)`` trace, in delivery order.

        Message ids restart with the channel, so a delivery is matched
        to the last injection of its id within its own incarnation
        (:meth:`ChannelStats.incarnations`).  This record walk is the
        reference; collectors backed by schedule arrays override it.
        """
        trace = TraceRecorder()
        for name in self.channels:
            for incarnation in self.channel(name).incarnations():
                last = {record.message_id: record.slot_index
                        for record in incarnation.injections}
                for record in incarnation.deliveries:
                    trace.record(name, record.message_id,
                                 last.get(record.message_id, -1),
                                 record.delivered_cycle)
        return trace

    def service_observation(self, channel: str) -> ServiceObservation:
        """The fold of :meth:`service_latencies_ns` over one channel."""
        return ServiceObservation(self.service_latencies_ns(channel))

    def incarnation_observations(self, channel: str) -> list[
            tuple[int, int, ServiceObservation]]:
        """``(first injection slot, delivered bytes, observation)`` of
        each incarnation of one channel, for judging a restarted
        channel span by span.  The record walk is the reference, as for
        :meth:`service_latencies_ns`."""
        latencies = self.service_latencies_ns(channel)
        out = []
        taken = 0
        for incarnation in self.channel(channel).incarnations():
            count = len(incarnation.deliveries)
            out.append((incarnation.injections[0].slot_index,
                        incarnation.delivered_bytes,
                        ServiceObservation(
                            latencies[taken:taken + count])))
            taken += count
        return out


class TraceRecorder:
    """Exact per-flit timing traces for composability comparison.

    A trace is, per channel, the ordered list of ``(message_id,
    injection_slot, delivery_cycle)`` triples.  Two runs are *composable-
    equal* for a channel set when their traces over those channels are
    identical — the strong, bit-level form of the paper's isolation claim.
    """

    def __init__(self):
        self._events: dict[str, list[tuple[int, int, int]]] = \
            defaultdict(list)

    def record(self, channel: str, message_id: int, injection_slot: int,
               delivery_cycle: int) -> None:
        """Append one flit/message event to a channel's trace."""
        self._events[channel].append(
            (message_id, injection_slot, delivery_cycle))

    def trace(self, channel: str) -> tuple[tuple[int, int, int], ...]:
        """The immutable trace of one channel."""
        return tuple(self._events.get(channel, ()))

    def channels(self) -> tuple[str, ...]:
        """Channels with at least one event, sorted."""
        return tuple(sorted(self._events))

    def agreement(self, other: "TraceRecorder", channels: Iterable[str]
                  ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """``(identical, diverged)``: the ``channels`` on which both
        recorders hold exactly the same trace, and the rest."""
        identical: list[str] = []
        diverged: list[str] = []
        for channel in channels:
            matched = self.trace(channel) == other.trace(channel)
            (identical if matched else diverged).append(channel)
        return tuple(identical), tuple(diverged)
