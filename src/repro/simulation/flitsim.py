"""The per-flit oracle: one channel incarnation at a time.

aelite is *flit-synchronous*: globally, the network behaves as a
synchronous machine whose unit of time is the flit cycle (one TDM slot).
Contention-free routing makes each channel's timing a function of its
own slot table alone: a flit injected in one of its reserved slots is
delivered a fixed, path-determined number of slots later, whatever else
runs.  That fixed delivery offset is not an approximation — it is the
defining property of contention-free routing, which the detailed
word-level simulator (:mod:`repro.simulation.cyclesim`) independently
verifies on the same configurations.

So the simplest correct reference runs each channel incarnation — one
``(start, stop, allocation)`` span of the lifetime table — on its own:
it walks the incarnation's reserved absolute slots in order, queues the
messages that have arrived (FIFO, in event order) and sends one flit of
the head message per reserved slot.  Channels are independent, so the
order incarnations are visited in cannot change a record.

What this adds over pure analysis is actual queueing: messages wait for
their channel's next reserved slot, so measured latency reflects arrival
phasing, burstiness and head-of-line effects within a channel.  It
models the TDM schedule and nothing else: credit back-pressure is the
word-level NI's (:class:`~repro.simulation.cyclesim.DetailedNetwork`),
the composability trace is read off the record log, and the
link-contention check
(:func:`~repro.simulation.backend.check_lifetime_contention`) off the
lifetime table.  Payload accounting is conservative (header word in
every flit), matching the allocator.

This module is an *oracle*, not an entry point: :func:`execute` takes a
vetted lifetime table and returns the ingredients of a
:class:`~repro.simulation.backend.SimResult`.  Its twin with the same
signature, :func:`repro.simulation.compiled.execute`, solves each
incarnation as a handful of array operations and is the one
:class:`~repro.simulation.backend.FlitLevelBackend` runs; the loop here
is what it must equal record for record, and the tests call it
directly.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping

from repro.core.placement import ChannelAllocation
from repro.core.configuration import NocConfiguration
from repro.simulation.monitors import (DeliveryRecord, InjectionRecord,
                                       StatsCollector)
from repro.simulation.traffic import TrafficPattern

__all__ = ["execute"]


def execute(config: NocConfiguration, lifetimes: Mapping[str, tuple],
            n_slots: int, patterns: Mapping[str, TrafficPattern],
            telemetry) -> tuple[StatsCollector, dict]:
    """Run a lifetime table's first ``n_slots`` slots, flit by flit.

    ``config`` is the operating point (word format, table size,
    frequency); ``lifetimes`` maps each channel to its ``(start, stop,
    allocation)`` incarnations in start order, as :meth:`~repro.core.
    timeline.ReconfigurationTimeline.channel_intervals` or
    :func:`~repro.core.timeline.static_lifetimes` build it.  Returns the
    record log and the ``meta`` of the
    :class:`~repro.simulation.backend.SimResult`.
    """
    stats = StatsCollector()
    flits: dict[str, int] = {}
    for name, spans in lifetimes.items():
        pattern = patterns.get(name)
        for start, stop, alloc in spans:
            if start >= n_slots:
                break
            flits.setdefault(name, 0)
            if pattern is not None:
                flits[name] += _run_incarnation(
                    config, stats, name, pattern, start,
                    min(stop, n_slots), alloc, n_slots)
    if telemetry.enabled:
        telemetry.counter("executor.dispatch", path="per-flit").inc()
    return stats, {"flits_by_channel": flits, "executor": "per-flit"}


def _run_incarnation(config: NocConfiguration, stats: StatsCollector,
                     channel: str, pattern: TrafficPattern, start: int,
                     end: int, alloc: ChannelAllocation,
                     n_slots: int) -> int:
    """Send one incarnation's flits over ``[start, end)``; returns how
    many it sent.

    The pattern is relative to the channel's start: an event at pattern
    cycle ``c`` arrives ``c`` cycles after the (re)start, so it is ready
    from the first slot whose boundary has passed that cycle.  Each
    record's ``sequence`` counts from 0 again, as the incarnation does.
    """
    fmt = config.fmt
    flit_size = fmt.flit_size
    period_ps = round(1e12 / config.frequency_hz)
    table_size = config.table_size
    arrivals = deque(pattern.events((n_slots - start) * flit_size))
    queue: deque[list] = deque()  # [event, words still to send]
    sent = 0
    for frame in range(start - start % table_size, end, table_size):
        for now in (frame + slot for slot in alloc.slots):
            if not start <= now < end:
                continue
            while arrivals and \
                    start + -(-arrivals[0].cycle // flit_size) <= now:
                event = arrivals.popleft()
                queue.append([event, event.words])
            if not queue:
                continue
            head = queue[0]
            event = head[0]
            # Only "nothing left" is ever read off the count, so a short
            # final flit may take it below zero.
            head[1] -= fmt.payload_words_per_flit
            cycle = now * flit_size
            stats.record_injection(InjectionRecord(
                channel=channel, message_id=event.message_id,
                sequence=sent, slot_index=now, cycle=cycle,
                time_ps=cycle * period_ps))
            sent += 1
            if head[1] <= 0:
                queue.popleft()
                created = start * flit_size + event.cycle
                delivered = (now + alloc.path.traversal_slots) * flit_size
                stats.record_delivery(DeliveryRecord(
                    channel=channel, message_id=event.message_id,
                    created_cycle=created,
                    created_time_ps=created * period_ps,
                    delivered_cycle=delivered,
                    delivered_time_ps=delivered * period_ps,
                    payload_bytes=event.words * fmt.bytes_per_word))
    return sent
