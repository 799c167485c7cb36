"""Compiled vectorised epoch executor: one numpy schedule for all backends.

aelite's contention-free TDM schedule is completely regular: every flit's
injection slot and per-hop link traversal is decidable at configuration
time from the slot tables alone.  The per-flit oracle in
:mod:`repro.simulation.flitsim` walks each channel incarnation's
reserved slots one by one in Python; this module compiles that walk
away, for every incarnation of a run at once.

The compiled representation has three layers:

* :class:`Arrivals` — the arrival streams of all of a run's channel
  incarnations as one set of concatenated ``int64`` columns (cycle,
  words, message id, ready slot), one segment per incarnation, built by
  :func:`compile_arrivals`.  A segment holds only the events that arrive
  within its incarnation, so a session that lives for a hundredth of
  the run allocates a hundredth of its arrivals.
* the **batched recurrence** (:func:`_solve`) — every incarnation's
  behaviour over its active span ``[start, end)`` in the same array
  operations, taken in blocks of whole segments that bound the
  temporaries.  Contention-freedom makes each channel independent, so an
  incarnation (spanning any number of epoch boundaries that do not touch
  it) is a segment of the batch: with ``m`` reserved slots in a table of
  ``T`` and ``C[x]`` the number of them before table slot ``x`` (one row
  of a count-before table per distinct slot set), ``A(x) = (x // T) * m
  + C[x mod T]`` counts reserved slots before absolute slot ``x``
  without materialising the schedule, and the FIFO service start of
  message ``i`` follows the Lindley-style recurrence ``k = F +
  cummax(pos - F)`` where ``F`` is the running flit count and ``pos``
  the first reserved slot index at or after the message's ready slot.
  The running maximum restarts at every segment boundary.
* **lazy materialisation** — each incarnation that injected is an
  :class:`_IntervalRun`, a ``[lo, hi)`` view of the batch columns.
  :class:`CompiledStats` and :class:`CompiledTraceRecorder` are drop-in
  :class:`~repro.simulation.monitors.StatsCollector` /
  :class:`~repro.simulation.monitors.TraceRecorder` subclasses that hold
  those views and only expand them into per-flit
  :class:`~repro.simulation.monitors.InjectionRecord` /
  :class:`~repro.simulation.monitors.DeliveryRecord` objects (or trace
  tuples) when a monitor, ``verify_timeline`` or a campaign serialiser
  actually asks.  Aggregates that do not need records — message counts,
  latency populations, the use-case service-latency check — are slices
  of columns the :class:`_Batch` derives for all its runs at once, on
  the first read that needs each.

Everything is exact integer arithmetic on the same quantities the
per-flit path computes, so the materialised records are *equal* —
field for field — to the reference implementation's, which is the
correctness oracle the property tests and both tier-2 benchmarks
enforce.  The composability trace is one more read of the same arrays
(:meth:`CompiledStats.composability_trace`); the link-contention check
is not the executor's at all but the lifetime table's
(:func:`~repro.simulation.backend.check_lifetime_contention`).

The best-effort baseline compiles its arrivals with the same
:func:`compile_arrivals`, and the cycle-accurate model's NIs index the
slot-owner rows of :meth:`~repro.core.allocation.Allocation.
ni_injection_table` — one schedule representation across all three
backends.

This module is an *executor*, not an entry point: :func:`execute` has
the signature of :func:`repro.simulation.flitsim.execute` and is reached
through :class:`~repro.simulation.backend.FlitLevelBackend`, which
imports it (and with it numpy) on the first simulated run, never with
``import repro``.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as _np

from repro.simulation.monitors import (DeliveryRecord, InjectionRecord,
                                       LatencySummary, ServiceObservation,
                                       StatsCollector, TraceRecorder)
from repro.simulation.traffic import (ConstantBitRate, PeriodicBurst,
                                      Saturating, TrafficPattern)

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.core.configuration import NocConfiguration

__all__ = ["Arrivals", "compile_arrivals", "CompiledStats",
           "CompiledTraceRecorder", "execute", "logged_stats"]

#: Events per block of :func:`_solve` (whole segments; a longer segment
#: is a block of its own).
_BLOCK = 1 << 14


def _segments(counts):
    """``(segment, index within it)`` of every element of segments of
    the given lengths, laid end to end."""
    np = _np
    segment = np.repeat(np.arange(counts.size), counts)
    first = np.cumsum(counts) - counts
    return segment, np.arange(segment.size) - first[segment]


def _segmented_cummax(values, segment):
    """Running maximum of ``values`` restarting at every segment
    (``segment`` ascending): each segment is lifted above every value
    of the ones before it, so one global running maximum does."""
    if not values.size:
        return values
    low = int(values.min())
    lift = segment * (int(values.max()) - low + 1) - low
    return _np.maximum.accumulate(values + lift) - lift


def _cbr(patterns, lifetimes):
    """Arrivals ``offset + floor(i * interval) < lifetime`` per stream —
    the same IEEE-754 multiply and floor as the scalar ``events()``."""
    np = _np
    offset = np.array([p.offset_cycles for p in patterns], np.int64)
    interval = np.array([p.interval_cycles for p in patterns], np.float64)
    span = np.maximum(lifetimes - offset, 0)
    counts = np.where(span > 0, (span / interval).astype(np.int64) + 2, 0)
    while True:  # the estimate is an upper bound; grow any that fell short
        segment, index = _segments(counts)
        cycles = offset[segment] + \
            np.floor(index * interval[segment]).astype(np.int64)
        last = np.cumsum(counts) - 1
        short = counts > 0
        short[short] = cycles[last[short]] < lifetimes[short]
        if not short.any():
            break
        counts[short] *= 2
    keep = cycles < lifetimes[segment]
    return segment[keep], index[keep], cycles[keep]


def _burst(patterns, lifetimes):
    """``burst_messages`` arrivals at every ``offset + j * period`` before
    the lifetime."""
    np = _np
    offset = np.array([p.offset_cycles for p in patterns], np.int64)
    period = np.array([p.period_cycles for p in patterns], np.int64)
    burst = np.array([p.burst_messages for p in patterns], np.int64)
    bursts = -(-np.maximum(lifetimes - offset, 0) // period)
    segment, index = _segments(bursts * burst)
    return segment, index, \
        offset[segment] + index // burst[segment] * period[segment]


def _saturating(patterns, lifetimes):
    """One arrival at every ``flit_size`` boundary before the lifetime."""
    np = _np
    step = np.array([p.flit_size for p in patterns], np.int64)
    segment, index = _segments(-(-np.maximum(lifetimes, 0) // step))
    return segment, index, index * step[segment]


#: Pattern classes expanded in numpy, each by its segment-wise builder.
_CLOSED_FORMS = ((ConstantBitRate, _cbr), (PeriodicBurst, _burst),
                 (Saturating, _saturating))


class Arrivals:
    """Arrival streams of many incarnations as concatenated columns.

    Segment ``i`` is rows ``bounds[i]:bounds[i + 1]``, in event order;
    ``cycles`` count from that incarnation's start, so an event may
    inject from slot ``ceil(cycle / flit_size)`` after it.
    """

    COLUMNS = ("cycles", "words", "mids")
    __slots__ = COLUMNS + ("bounds",)

    @property
    def nbytes(self) -> int:
        """Bytes held by the three columns."""
        return sum(getattr(self, name).nbytes for name in self.COLUMNS)


def compile_arrivals(streams: Sequence[tuple[TrafficPattern, int, int]]
                     ) -> Arrivals:
    """Compile ``(pattern, lifetime_cycles, events_horizon_cycles)``
    streams into one :class:`Arrivals`, one segment per stream.

    A segment holds the pattern's events with ``cycle <
    lifetime_cycles``: an incarnation that long can inject nothing that
    arrives later, since such an event is ready no earlier than its end.
    :class:`~repro.simulation.traffic.ConstantBitRate`,
    :class:`~repro.simulation.traffic.PeriodicBurst` and
    :class:`~repro.simulation.traffic.Saturating` streams are expanded
    in numpy, all streams of a class together; every other stream calls
    ``events()`` once, at ``events_horizon_cycles`` — the horizon the
    caller's scalar reference hands it.
    """
    np = _np
    lifetimes = np.array([lifetime for _, lifetime, _ in streams], np.int64)
    counts = np.zeros(len(streams), np.int64)
    parts = []  # per expansion: (stream, index in it, cycles, words, mids)
    closed: dict = {}
    listed: list[list[int]] = [[], [], [], [], []]  # as in ``parts``
    for position, (pattern, lifetime, horizon) in enumerate(streams):
        if lifetime <= 0:
            continue
        for kind, _ in _CLOSED_FORMS:
            if isinstance(pattern, kind):
                closed.setdefault(kind, []).append(position)
                break
        else:
            events = pattern.events(horizon)
            count = bisect_left([event.cycle for event in events], lifetime)
            counts[position] = count
            listed[0].extend([position] * count)
            listed[1].extend(range(count))
            listed[2].extend(event.cycle for event in events[:count])
            listed[3].extend(event.words for event in events[:count])
            listed[4].extend(event.message_id for event in events[:count])
    for kind, build in _CLOSED_FORMS:
        members = closed.get(kind)
        if members is None:
            continue
        members = np.array(members, np.int64)
        patterns = [streams[position][0] for position in members.tolist()]
        segment, index, cycles = build(patterns, lifetimes[members])
        words = np.array([p.message_words for p in patterns], np.int64)
        counts[members] = np.bincount(segment, minlength=members.size)
        parts.append((members[segment], index, cycles, words[segment],
                      index))
    if listed[0]:
        parts.append(tuple(np.array(column, np.int64) for column in listed))
    arrivals = Arrivals()
    arrivals.bounds = bounds = np.zeros(len(streams) + 1, np.int64)
    np.cumsum(counts, out=bounds[1:])
    if len(parts) == 1:  # already in stream order: no copy to scatter
        columns = parts[0][2:]
    else:
        columns = [np.empty(int(bounds[-1]), np.int64) for _ in range(3)]
        for owner, index, *values in parts:
            at = bounds[owner] + index
            for column, value in zip(columns, values):
                column[at] = value
    arrivals.cycles, arrivals.words, arrivals.mids = columns
    return arrivals


class _Batch:
    """One run solved, every incarnation's rows end to end: its
    ``arrivals`` and the per-message solution beside them — ``k``
    service-start indices, ``actual`` flits injected before the
    incarnation's end, the ``completed`` mask and the ``last`` slot of
    each message's final flit were it to complete — plus each segment's
    ``starts`` slot and ``traversals`` (slots from injection to
    delivery) and the run's slot geometry.

    What every reader of a run shares is derived from those columns for
    the whole batch at once, on the first read that needs it, and kept:
    the readers of :class:`_IntervalRun` slice it.  A column derived
    over the completed messages holds segment ``i``'s in
    ``[cuts[i], cuts[i + 1])``.
    """

    COLUMNS = ("k", "actual", "completed", "last")
    SOLVED = COLUMNS + ("arrivals", "starts", "traversals", "table_size",
                        "flit_size", "period_ps", "bytes_per_word")

    def __copy__(self) -> "_Batch":
        """A copy of what was solved, none of what was derived: a copy is
        made to have a column edited, and must derive from its own."""
        fresh = _Batch()
        vars(fresh).update((name, getattr(self, name))
                           for name in self.SOLVED)
        return fresh

    @cached_property
    def cuts(self) -> list[int]:
        """Each segment's bounds into the completed messages."""
        return _np.searchsorted(_np.flatnonzero(self.completed),
                                self.arrivals.bounds).tolist()

    @cached_property
    def done_last(self):
        """Final-flit slot of every completed message."""
        return self.last[self.completed]

    def _latency_cycles(self):
        """Delivery less creation cycle of every completed message — its
        end-to-end latency in cycles — as a fresh array."""
        np = _np
        done = self.completed
        cycles = np.repeat(self.traversals - self.starts, np.diff(self.cuts))
        cycles += self.last[done]
        cycles *= self.flit_size
        cycles -= self.arrivals.cycles[done]
        return cycles

    @cached_property
    def latencies_ns(self):
        """End-to-end latency of every completed message, in ns."""
        cycles = self._latency_cycles()
        cycles *= self.period_ps
        return cycles / 1000.0

    @cached_property
    def service_ns(self):
        """Service latency of every completed message, in ns: delivery
        less the later of its creation and the previous message's
        injection — the lesser of its end-to-end latency and the cycles
        since that injection — the chain restarting at every segment."""
        np = _np
        cycles = self._latency_cycles()
        last = self.last[self.completed]
        since = np.repeat(self.traversals, np.diff(self.cuts))
        since += last
        since[1:] -= last[:-1]
        del last
        since *= self.flit_size
        firsts = np.array(self.cuts[:-1], np.int64)
        firsts = firsts[firsts < since.size]
        since[firsts] = cycles[firsts]  # no previous message: end to end
        np.minimum(cycles, since, out=cycles)
        del since
        cycles *= self.period_ps
        return cycles / 1000.0

    @cached_property
    def unordered(self) -> frozenset[int]:
        """Segments whose message ids do not ascend."""
        np = _np
        mids, bounds = self.arrivals.mids, self.arrivals.bounds
        pairs = np.flatnonzero(mids[1:] <= mids[:-1])  # rows p, p + 1
        segment = np.searchsorted(bounds, pairs, side="right") - 1
        return frozenset(segment[pairs + 1 < bounds[segment + 1]].tolist())

    @cached_property
    def delivered_bytes(self) -> list[int]:
        """Payload bytes each segment's completed messages carry."""
        np = _np
        words = self.arrivals.words[self.completed]
        prefix = np.zeros(words.size + 1, np.int64)
        np.cumsum(words, out=prefix[1:])
        cuts = np.array(self.cuts, np.int64)
        return ((prefix[cuts[1:]] - prefix[cuts[:-1]]) *
                self.bytes_per_word).tolist()


def _rows(name: str) -> property:
    """The run's rows ``[lo, hi)`` of one batch column (a dotted name
    reads through the batch), as a property."""
    column = attrgetter(name)
    return property(lambda run: column(run.batch)[run.lo:run.hi],
                    doc=f"The incarnation's rows of ``{name}``.")


class _Run:
    """What both run kinds read the same way off their own columns."""

    __slots__ = ()

    def trace_events(self) -> list[tuple[int, int, int]]:
        """``(message_id, injection_slot, delivery_cycle)`` tuples."""
        return list(zip(*(column.tolist()
                          for column in self.trace_columns())))

    def latencies_ns(self) -> list[float]:
        """Delivery latencies, in delivery order."""
        return self.latency_column().tolist()


class _IntervalRun(_Run):
    """Solved recurrence of one channel incarnation over ``[start, end)``.

    A view of rows ``[lo, hi)`` — segment ``segment`` — of its
    :class:`_Batch`: every column reads as the incarnation's own, the
    readers slice what the batch derived, and the slot geometry here
    expands the rows lazily into absolute slots, records and trace
    tuples.
    """

    __slots__ = ("batch", "lo", "hi", "segment", "channel", "start",
                 "slots", "base", "traversal_slots", "n_flits",
                 "n_deliveries")

    cycles, words, mids = (_rows(f"arrivals.{name}")
                           for name in Arrivals.COLUMNS)
    k, actual, completed, last = map(_rows, _Batch.COLUMNS)

    def __init__(self, batch: _Batch, lo: int, hi: int, segment: int):
        self.batch = batch
        self.lo = lo
        self.hi = hi
        self.segment = segment

    @property
    def count(self) -> int:
        """Messages that arrived within the incarnation."""
        return self.hi - self.lo

    def _done(self) -> slice:
        """The run's bounds into the batch's completed-message columns."""
        cuts = self.batch.cuts
        return slice(cuts[self.segment], cuts[self.segment + 1])

    # -- lazy expansions -------------------------------------------------------

    def _slots_of(self, indices):
        """Absolute slots of reserved-slot indices (vectorised)."""
        q, j = _np.divmod(indices, len(self.slots))
        return q * self.batch.table_size + _np.asarray(self.slots)[j]

    def last_slots(self):
        """Absolute slot of the final flit of each completed message."""
        return self.batch.done_last[self._done()]

    def trace_columns(self):
        """The trace as ``(message ids, injection slots, delivery
        cycles)`` arrays, one entry per completed message."""
        last = self.last_slots()
        return (self.mids[self.completed], last,
                (last + self.traversal_slots) * self.batch.flit_size)

    def latency_column(self):
        """Delivery latencies as a view of the batch's column, identical
        floats to the record path."""
        return self.batch.latencies_ns[self._done()]

    def append_records(self, sink) -> None:
        """Expand into per-flit records on a ``ChannelStats`` sink."""
        np = _np
        flit_size = self.batch.flit_size
        period_ps = self.batch.period_ps
        channel = self.channel
        counts = self.actual
        message = np.repeat(np.arange(self.count), counts)
        first = np.cumsum(counts) - counts
        offsets = np.arange(self.n_flits) - np.repeat(first, counts)
        slots = self._slots_of(self.base + self.k[message] + offsets)
        cycles = slots * flit_size
        mids = self.mids[message]
        injections = sink.injections
        sequence = 0  # one run is one incarnation: sequences restart
        for mid, slot, cycle in zip(mids.tolist(), slots.tolist(),
                                    cycles.tolist()):
            injections.append(InjectionRecord(
                channel=channel, message_id=mid, sequence=sequence,
                slot_index=slot, cycle=cycle,
                time_ps=cycle * period_ps))
            sequence += 1
        last = self.last_slots()
        delivered = (last + self.traversal_slots) * flit_size
        mask = self.completed
        created = self.start * flit_size + self.cycles[mask]
        deliveries = sink.deliveries
        bytes_per_word = self.batch.bytes_per_word
        for mid, created_cycle, delivered_cycle, message_words in zip(
                self.mids[mask].tolist(), created.tolist(),
                delivered.tolist(), self.words[mask].tolist()):
            deliveries.append(DeliveryRecord(
                channel=channel, message_id=mid,
                created_cycle=created_cycle,
                created_time_ps=created_cycle * period_ps,
                delivered_cycle=delivered_cycle,
                delivered_time_ps=delivered_cycle * period_ps,
                payload_bytes=message_words * bytes_per_word))

    def first_injection_slot(self) -> int:
        """Absolute slot of the run's first flit.  ``k`` ascends strictly
        and a run exists only if it injected, so message 0 went first."""
        rotations, index = divmod(self.base + int(self.batch.k[self.lo]),
                                  len(self.slots))
        return rotations * self.batch.table_size + self.slots[index]

    def delivered_bytes(self) -> int:
        """Payload bytes of the completed messages."""
        return self.batch.delivered_bytes[self.segment]

    def service_latencies_ns(self) -> list[float] | None:
        """Vectorised service latencies, or ``None`` when the reference
        record walk is needed (non-monotone message ids)."""
        if self.segment in self.batch.unordered:
            return None
        return self.batch.service_ns[self._done()].tolist()


def _solve(channels: Sequence[str], spans: Sequence[tuple],
           arrivals: Arrivals, config: "NocConfiguration"
           ) -> list[_IntervalRun]:
    """Solve every incarnation's recurrence together; returns the runs
    that injected, in incarnation order.

    ``spans[i]`` is the ``(start, end, allocation)`` of the incarnation
    whose arrivals are segment ``i`` of ``arrivals``.
    """
    np = _np
    if not arrivals.cycles.size:
        return []
    fmt = config.fmt
    table_size = config.table_size
    flit_size = fmt.flit_size
    per_flit = fmt.payload_words_per_flit
    # One count-before row per distinct slot set: before[r, x] is how
    # many of set r's slots lie before table slot x, before[r, T] all.
    sets: dict[tuple[int, ...], int] = {}
    row = np.array([sets.setdefault(alloc.slots, len(sets))
                    for _, _, alloc in spans], np.int64)
    width = np.fromiter(map(len, sets), np.int64, len(sets))
    flat = np.fromiter(chain.from_iterable(sets), np.int64,
                       int(width.sum()))
    before = np.zeros((len(sets), table_size + 1), np.int64)
    before[np.repeat(np.arange(len(sets)), width), flat + 1] = 1
    np.cumsum(before, axis=1, out=before)

    def reserved(slot, r):
        """Reserved slots of set ``r`` before absolute ``slot``."""
        rotations, phase = np.divmod(slot, table_size)
        return rotations * width[r] + before[r, phase]

    start = np.array([span[0] for span in spans], np.int64)
    base = reserved(start, row)
    total = reserved(np.array([span[1] for span in spans], np.int64),
                     row) - base
    offset = np.cumsum(width) - width  # each set's first slot in ``flat``
    bounds = arrivals.bounds
    counts = np.diff(bounds)
    size = int(bounds[-1])
    k, actual, last = (np.empty(size, np.int64) for _ in range(3))
    completed = np.empty(size, bool)
    n_flits, n_deliveries = np.zeros((2, len(spans)), np.int64)
    # Blocks of whole segments, about _BLOCK events each, keep every
    # temporary below the size of one block however long the run.
    # ``searchsorted`` ascends, so the cuts dedupe in order (numpy 2's
    # ``unique`` would import ``numpy.ma`` into every simulating process).
    cuts = list(dict.fromkeys((np.searchsorted(
        bounds, np.arange(0, size, _BLOCK), side="right") - 1).tolist()))
    for first, stop in zip(cuts, cuts[1:] + [len(spans)]):
        lo, hi = int(bounds[first]), int(bounds[stop])
        block = slice(lo, hi)
        segment = np.repeat(np.arange(first, stop), counts[first:stop])
        r = row[segment]
        flits = np.maximum(-(-arrivals.words[block] // per_flit), 1)
        # Flits before each message, counted from the block's start:
        # ``k`` is unchanged by adding a constant to ``F`` within a
        # segment, so the count need not restart; the running maximum
        # must.
        flits_before = np.cumsum(flits) - flits
        # FIFO in event order needs no running maximum of the ready
        # slots: the one over ``pos - F`` already keeps a later event
        # from starting before an earlier one has been served.
        ready = -(-arrivals.cycles[block] // flit_size) + start[segment]
        pos = reserved(ready, r) - base[segment]
        k[block] = flits_before + _segmented_cummax(pos - flits_before,
                                                    segment)
        np.clip(total[segment] - k[block], 0, flits, out=actual[block])
        np.equal(actual[block], flits, out=completed[block])
        rotations, index = np.divmod(base[segment] + k[block] + flits - 1,
                                     width[r])
        last[block] = rotations * table_size + flat[offset[r] + index]
        sums = np.zeros((2, hi - lo + 1), np.int64)
        np.cumsum(actual[block], out=sums[0, 1:])
        np.cumsum(completed[block], out=sums[1, 1:])
        edges = bounds[first:stop + 1] - lo
        n_flits[first:stop], n_deliveries[first:stop] = \
            sums[:, edges[1:]] - sums[:, edges[:-1]]
    batch = _Batch()
    batch.arrivals = arrivals
    batch.k, batch.actual, batch.completed, batch.last = \
        k, actual, completed, last
    batch.starts = start
    batch.traversals = np.array([alloc.path.traversal_slots
                                 for _, _, alloc in spans], np.int64)
    batch.table_size, batch.flit_size = table_size, flit_size
    batch.period_ps = round(1e12 / config.frequency_hz)
    batch.bytes_per_word = fmt.bytes_per_word
    flown = np.flatnonzero(n_flits).tolist()
    lows, bases = bounds.tolist(), base.tolist()
    n_flits, n_deliveries = n_flits.tolist(), n_deliveries.tolist()
    runs = []
    for i in flown:
        run = _IntervalRun(batch, lows[i], lows[i + 1], i)
        run.channel = channels[i]
        run.start, _, alloc = spans[i]
        run.slots = alloc.slots
        run.base = bases[i]
        run.traversal_slots = alloc.path.traversal_slots
        run.n_flits = n_flits[i]
        run.n_deliveries = n_deliveries[i]
        runs.append(run)
    return runs


class _Log:
    """A best-effort run's two logs as columns: the first flit of every
    packet injected (``i_*``) and the final flit of every message
    delivered (``d_*``), each grouped by run in run order and in event
    order within a run, plus the word clock.

    A run is a channel incarnation that injected.  Injections belong to
    the incarnation whose arrival they carry; a delivery belongs to the
    run the record walk (:meth:`~repro.simulation.monitors.ChannelStats.
    incarnations`) puts it in.  What the readers of :class:`_LoggedRun`
    share is derived here for every run at once, on the first read that
    needs it, as :class:`_Batch` does for the TDM executor.
    """

    @cached_property
    def latencies_ns(self):
        """End-to-end latency of every delivery, in ns."""
        return (self.d_delivered - self.d_created) * self.period_ps / 1000.0

    @cached_property
    def keys(self):
        """Per injection and per delivery, an int that two of them share
        exactly when their run and message id are equal."""
        np = _np
        ids = np.sort(np.concatenate([self.i_mid, self.d_mid]))
        width = ids.size + 1
        return (self.i_run * width + np.searchsorted(ids, self.i_mid),
                self.d_run * width + np.searchsorted(ids, self.d_mid))

    @cached_property
    def injected_at(self):
        """Per delivery, the slot its run last injected a packet of its
        message id in, or -1 when it injected none."""
        np = _np
        injected, delivered = self.keys
        if not delivered.size:
            return delivered
        order = np.argsort(injected, kind="stable")
        keys = injected[order]
        last = np.append(keys[1:] != keys[:-1], True)
        keys, ticks = keys[last], self.i_tick[order][last]
        at = np.minimum(np.searchsorted(keys, delivered), keys.size - 1)
        return np.where(keys[at] == delivered, ticks[at], -1)

    @cached_property
    def service_ns(self):
        """Service latency of every delivery, in ns, each run's in
        message-id order: delivery less the later of its creation and
        the injection of the message before it, the chain restarting at
        every run and skipping a message its run never injected."""
        np = _np
        order = np.argsort(self.keys[1], kind="stable")
        injected = self.injected_at[order]
        created = self.d_created[order]
        found = np.where(injected >= 0, np.arange(injected.size), -1)
        np.maximum.accumulate(found, out=found)
        previous = np.empty_like(found)
        previous[:1] = -1
        previous[1:] = found[:-1]
        chained = previous >= np.repeat(self.d_lo, np.diff(self.d_lo +
                                                           [found.size]))
        ready = np.where(chained, np.maximum(
            created, injected[previous] * self.flit_size), created)
        return (self.d_delivered[order] - ready) * self.period_ps / 1000.0

    @cached_property
    def delivered_bytes(self) -> list[int]:
        """Payload bytes each run's deliveries carry."""
        np = _np
        prefix = np.zeros(self.d_bytes.size + 1, np.int64)
        np.cumsum(self.d_bytes, out=prefix[1:])
        cuts = np.array(self.d_lo + [self.d_bytes.size], np.int64)
        return (prefix[cuts[1:]] - prefix[cuts[:-1]]).tolist()


class _LoggedRun(_Run):
    """One best-effort run: injections ``[ilo, ihi)`` and deliveries
    ``[dlo, dhi)`` of its :class:`_Log`, with the reads of
    :class:`_IntervalRun`."""

    __slots__ = ("log", "index", "channel", "ilo", "ihi", "dlo", "dhi",
                 "n_flits", "n_deliveries")

    def __init__(self, log: _Log, index: int, channel: str,
                 injections: tuple[int, int], deliveries: tuple[int, int]):
        self.log = log
        self.index = index
        self.channel = channel
        self.ilo, self.ihi = injections
        self.dlo, self.dhi = deliveries
        self.n_flits = self.ihi - self.ilo
        self.n_deliveries = self.dhi - self.dlo

    def trace_columns(self):
        """The trace as ``(message ids, injection slots, delivery
        cycles)`` arrays, in delivery order."""
        log, done = self.log, slice(self.dlo, self.dhi)
        return log.d_mid[done], log.injected_at[done], log.d_delivered[done]

    def latency_column(self):
        """Delivery latencies as a view of the log's column."""
        return self.log.latencies_ns[self.dlo:self.dhi]

    def append_records(self, sink) -> None:
        """Expand into records on a ``ChannelStats`` sink."""
        log, channel = self.log, self.channel
        flit_size, period_ps = log.flit_size, log.period_ps
        injections = sink.injections
        for sequence, (mid, slot) in enumerate(zip(
                log.i_mid[self.ilo:self.ihi].tolist(),
                log.i_tick[self.ilo:self.ihi].tolist())):
            cycle = slot * flit_size
            injections.append(InjectionRecord(
                channel=channel, message_id=mid, sequence=sequence,
                slot_index=slot, cycle=cycle, time_ps=cycle * period_ps))
        done = slice(self.dlo, self.dhi)
        deliveries = sink.deliveries
        for mid, created, delivered, payload in zip(*(
                column[done].tolist() for column in (
                    log.d_mid, log.d_created, log.d_delivered,
                    log.d_bytes))):
            deliveries.append(DeliveryRecord(
                channel=channel, message_id=mid, created_cycle=created,
                created_time_ps=created * period_ps,
                delivered_cycle=delivered,
                delivered_time_ps=delivered * period_ps,
                payload_bytes=payload))

    def first_injection_slot(self) -> int:
        """Slot of the run's first injection."""
        return int(self.log.i_tick[self.ilo])

    def delivered_bytes(self) -> int:
        """Payload bytes of the run's deliveries."""
        return self.log.delivered_bytes[self.index]

    def service_latencies_ns(self) -> list[float]:
        """Service latencies, in message-id order."""
        return self.log.service_ns[self.dlo:self.dhi].tolist()


def logged_stats(arrivals: Arrivals, segments: Sequence[tuple[str, int]],
                 injected: tuple[list[int], list[int]],
                 delivered: tuple[list[int], list[int]], *, flit_size: int,
                 period_ps: int, bytes_per_word: int) -> "CompiledStats":
    """The records of a best-effort run, as columns.

    ``segments[i]`` is the ``(channel, start slot)`` of the incarnation
    whose arrivals are segment ``i`` of ``arrivals``, channels in name
    order and each channel's incarnations in time order.  ``injected``
    holds the ``(arrival rows, slots)`` of every packet's first flit in
    injection order, ``delivered`` those of every message's final flit
    in delivery order.  A channel injects from one queue in order, so
    one incarnation's injections all come before the next one's.
    """
    np = _np
    codes: dict[str, int] = {}
    channel_of = np.array([codes.setdefault(name, len(codes))
                           for name, _ in segments], np.int64)
    segment_of = np.repeat(np.arange(len(segments)),
                           np.diff(arrivals.bounds))
    rows, slots = (np.array(column, np.int64) for column in injected)
    order = np.argsort(segment_of[rows], kind="stable")
    rows, slots = rows[order], slots[order]
    counts = np.bincount(segment_of[rows], minlength=len(segments))
    flown = np.flatnonzero(counts)
    counts = counts[flown]
    log = _Log()
    log.flit_size, log.period_ps = flit_size, period_ps
    log.i_mid, log.i_tick = arrivals.mids[rows], slots
    log.i_run = np.repeat(np.arange(flown.size), counts)
    i_edges = np.concatenate([[0], np.cumsum(counts)]).tolist()
    rows, slots = (np.array(column, np.int64) for column in delivered)
    order = np.argsort(channel_of[segment_of[rows]], kind="stable")
    rows, slots = rows[order], slots[order]
    owner = segment_of[rows]
    log.d_mid = arrivals.mids[rows]
    log.d_created = np.array([start for _, start in segments],
                             np.int64)[owner] * flit_size + \
        arrivals.cycles[rows]
    log.d_delivered = (slots + 1) * flit_size
    log.d_bytes = arrivals.words[rows] * bytes_per_word
    ends = np.searchsorted(channel_of[owner],
                           np.arange(1, len(codes) + 1)).tolist()
    # The record walk closes a run's deliveries at the first one created
    # after its last injection; a message is created before it injects,
    # so a channel's last run takes what is left.  A channel without a
    # run delivered nothing, so each run starts where the last ended.
    last_cycle = (log.i_tick[np.array(i_edges[1:], np.int64) - 1] *
                  flit_size).tolist()
    run_channel = channel_of[flown].tolist()
    d_lo: list[int] = []
    stats = CompiledStats()
    cut = 0
    for index, segment in enumerate(flown.tolist()):
        code = run_channel[index]
        end = ends[code]
        if run_channel[index + 1:index + 2] == [code]:
            later = np.flatnonzero(log.d_created[cut:end] >
                                   last_cycle[index])
            if later.size:
                end = cut + int(later[0])
        d_lo.append(cut)
        stats._add_run(_LoggedRun(
            log, index, segments[segment][0],
            (i_edges[index], i_edges[index + 1]), (cut, end)))
        cut = end
    log.d_lo = d_lo
    log.d_run = np.repeat(np.arange(len(d_lo)),
                          np.diff(d_lo + [log.d_mid.size]))
    return stats


class CompiledStats(StatsCollector):
    """Record log backed by interval arrays, materialised on demand.

    Drop-in :class:`~repro.simulation.monitors.StatsCollector`: any
    record access (``channel``, ``sink``, ``all_deliveries``) expands
    the touched channel's arrays into the usual record objects, equal
    field-for-field to the per-flit reference's.  Aggregate queries
    (:meth:`delivery_count`, :meth:`all_latencies_ns`,
    :meth:`channel_aggregate`, :meth:`service_latencies_ns`,
    :meth:`incarnation_observations`) stay on the arrays;
    :attr:`materialised` names the channels that left them.
    """

    def __init__(self):
        super().__init__()
        self._runs: dict[str, list[_IntervalRun]] = {}
        self._materialised: set[str] = set()

    def _add_run(self, run: _IntervalRun) -> None:
        self._runs.setdefault(run.channel, []).append(run)

    def _ensure(self, name: str) -> None:
        runs = self._runs.get(name)
        if runs is None or name in self._materialised:
            return
        self._materialised.add(name)
        sink = super().sink(name)
        for run in runs:
            run.append_records(sink)

    @property
    def materialised(self) -> tuple[str, ...]:
        """Channels whose arrays were expanded into records, sorted."""
        return tuple(sorted(self._materialised))

    def _array_runs(self, name: str) -> list[_IntervalRun] | None:
        """The channel's runs while they are all there is to it: once it
        has a record sink (expanded, or appended to by hand) the records
        are the truth and the reference walk answers."""
        return None if name in self._by_channel else self._runs.get(name)

    def channel(self, name: str):
        """Stats of one channel, materialising its records first."""
        self._ensure(name)
        return super().channel(name)

    @property
    def channels(self) -> tuple[str, ...]:
        """All channels with at least one record, sorted."""
        names = set(self._runs)
        names.update(n for n, stats in self._by_channel.items()
                     if stats.injections or stats.deliveries)
        return tuple(sorted(names))

    def all_deliveries(self):
        """Every delivery record across channels (stable order)."""
        for name in tuple(self._runs):
            self._ensure(name)
        return super().all_deliveries()

    def delivery_count(self) -> int:
        """Total messages delivered, without materialising records."""
        total = sum(run.n_deliveries
                    for runs in self._runs.values() for run in runs)
        total += sum(len(stats.deliveries)
                     for name, stats in self._by_channel.items()
                     if name not in self._runs)
        return total

    def all_latencies_ns(self) -> list[float]:
        """Every delivery latency, in :meth:`all_deliveries` order."""
        out: list[float] = []
        for name in self.channels:
            runs = self._runs.get(name)
            if runs is not None:
                for run in runs:
                    out.extend(run.latencies_ns())
            else:
                out.extend(d.latency_ns
                           for d in self._by_channel[name].deliveries)
        return out

    @staticmethod
    def _aggregate(runs) -> tuple:
        """A channel's totals and its runs' latencies as one ascending
        float64 column."""
        return (sum(run.n_deliveries for run in runs),
                sum(run.n_flits for run in runs),
                sum(run.delivered_bytes() for run in runs),
                _np.sort(_np.concatenate(
                    [run.latency_column() for run in runs])))

    def channel_aggregate(self, channel: str):
        """One channel's totals and ascending latencies, from the
        arrays: the runs' columns are sorted together before they become
        floats."""
        runs = self._array_runs(channel)
        if runs is None:
            return super().channel_aggregate(channel)
        *totals, column = self._aggregate(runs)
        return (*totals, column.tolist())

    def latency_summaries(self):
        """Every channel's totals and latency summary, and the overall
        one, summarised from sorted float64 columns: no channel's sample
        becomes a list, and the overall sample is one ``np.sort``."""
        rows, columns = [], []
        for name in self.channels:
            runs = self._array_runs(name)
            *totals, column = super().channel_aggregate(name) \
                if runs is None else self._aggregate(runs)
            columns.append(_np.asarray(column, _np.float64))
            rows.append((name, *totals, LatencySummary.of_sorted(
                columns[-1])))
        return rows, LatencySummary.of_sorted(
            _np.sort(_np.concatenate(columns)) if columns else [])

    def incarnation_observations(self, channel: str):
        """One entry per run — a run is one incarnation by construction;
        the record walk answers where a run cannot vectorise."""
        runs = self._array_runs(channel)
        if runs is not None:
            solved = [run.service_latencies_ns() for run in runs]
            if None not in solved:
                return [(run.first_injection_slot(), run.delivered_bytes(),
                         ServiceObservation(latencies))
                        for run, latencies in zip(runs, solved)]
        return super().incarnation_observations(channel)

    def service_latencies_ns(self, channel: str) -> list[float]:
        """Service latencies from the arrays, one incarnation per run;
        the record walk answers where a run cannot vectorise."""
        runs = self._runs.get(channel)
        if runs is not None:
            solved = [run.service_latencies_ns() for run in runs]
            if None not in solved:
                return list(chain.from_iterable(solved))
        return super().service_latencies_ns(channel)

    def composability_trace(self) -> "CompiledTraceRecorder":
        """The trace as arrays: one run is one incarnation, so its
        completed messages are its trace, and nothing materialises
        until a tuple is asked for."""
        return CompiledTraceRecorder({
            name: delivered for name, runs in self._runs.items()
            if (delivered := [run for run in runs if run.n_deliveries])})


class CompiledTraceRecorder(TraceRecorder):
    """Composability trace backed by interval arrays.

    Traces materialise per channel on first access and are byte-equal
    to the record walk's tuples.  :meth:`agreement` between two
    compiled recorders never asks for them: it compares the same three
    fields of every event, in order, on the arrays.
    """

    def __init__(self, runs: dict[str, list[_IntervalRun]]):
        super().__init__()
        self._runs = runs
        self._materialised: set[str] = set()

    def _ensure(self, name: str) -> None:
        runs = self._runs.get(name)
        if runs is None or name in self._materialised:
            return
        self._materialised.add(name)
        sink = self._events[name]
        for run in runs:
            sink.extend(run.trace_events())

    def trace(self, channel: str) -> tuple[tuple[int, int, int], ...]:
        """The immutable trace of one channel."""
        self._ensure(channel)
        return super().trace(channel)

    def record(self, channel: str, *event: int) -> None:
        """Append one event after the channel's array events."""
        self._ensure(channel)
        super().record(channel, *event)

    def channels(self) -> tuple[str, ...]:
        """Channels with at least one event, sorted."""
        names = set(self._runs)
        names.update(n for n, events in self._events.items() if events)
        return tuple(sorted(names))

    def _columns(self, name: str):
        """One channel's trace as three arrays while its runs are all
        there is to it; ``None`` once it has an event list (expanded,
        or appended to by hand) and the tuples are the truth."""
        if name in self._events:
            return None
        columns = [run.trace_columns() for run in self._runs.get(name, ())]
        if len(columns) == 1:
            return columns[0]
        if not columns:
            return (_np.empty(0, _np.int64),) * 3
        return tuple(_np.concatenate(parts) for parts in zip(*columns))

    def agreement(self, other: TraceRecorder, channels):
        """``(identical, diverged)`` as the base class defines them;
        against another compiled recorder, decided on the arrays."""
        if not isinstance(other, CompiledTraceRecorder):
            return super().agreement(other, channels)
        identical: list[str] = []
        diverged: list[str] = []
        for channel in channels:
            mine, theirs = self._columns(channel), other._columns(channel)
            if mine is None or theirs is None:
                matched = self.trace(channel) == other.trace(channel)
            else:
                matched = all(map(_np.array_equal, mine, theirs))
            (identical if matched else diverged).append(channel)
        return tuple(identical), tuple(diverged)


# -- executors ------------------------------------------------------------------


#: Bucket edges for the interval-run batch-size histogram (messages
#: solved per interval recurrence).
_BATCH_BUCKETS = (1, 4, 16, 64, 256, 1024, 4096)


def _finish_executor_stats(tel, exec_stats: dict) -> None:
    """Fold one compiled run's work counters into the telemetry hub."""
    if not tel.enabled:
        return
    tel.counter("executor.dispatch", path="compiled").inc()
    tel.counter("executor.pattern_table", outcome="compile").inc(
        exec_stats["pattern_compiles"])
    tel.counter("executor.pattern_table_bytes").inc(
        exec_stats["table_bytes"])
    tel.counter("executor.interval_runs").inc(exec_stats["interval_runs"])


def execute(config: "NocConfiguration", lifetimes: Mapping[str, tuple],
            n_slots: int, patterns: Mapping[str, TrafficPattern],
            telemetry) -> tuple[CompiledStats, dict]:
    """Run a lifetime table's first ``n_slots`` slots, compiled.

    Same arguments and return as :func:`repro.simulation.flitsim.
    execute`.  Contention-freedom makes channels independent, so each
    incarnation — one ``(start, stop, allocation)`` span, clipped to the
    window — is one segment of a single batch, regardless of how many
    epoch boundaries other applications' churn creates inside it.
    """
    flit_size = config.fmt.flit_size
    flits: dict[str, int] = {}
    channels: list[str] = []
    spans: list[tuple] = []
    streams: list[tuple] = []
    for name, incarnations in lifetimes.items():
        pattern = patterns.get(name)
        for start, stop, alloc in incarnations:
            if start >= n_slots:
                break
            flits.setdefault(name, 0)
            if pattern is None:
                continue
            end = min(stop, n_slots)
            channels.append(name)
            spans.append((start, end, alloc))
            streams.append((pattern, (end - start) * flit_size,
                            (n_slots - start) * flit_size))
    arrivals = compile_arrivals(streams)
    runs = _solve(channels, spans, arrivals, config)
    stats = CompiledStats()
    batch_hist = telemetry.histogram("executor.interval_batch_messages",
                                     bounds=_BATCH_BUCKETS)
    for run in runs:
        batch_hist.observe(run.count)
        stats._add_run(run)
        flits[run.channel] += run.n_flits
    exec_stats = {"pattern_compiles": len(streams),
                  "table_events": int(arrivals.cycles.size),
                  "table_bytes": arrivals.nbytes,
                  "interval_runs": len(runs)}
    _finish_executor_stats(telemetry, exec_stats)
    return stats, {"flits_by_channel": flits, "executor": "compiled",
                   "executor_stats": exec_stats}
