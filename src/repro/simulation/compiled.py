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
* **columns only** — each incarnation that injected is an
  :class:`_IntervalRun`, a ``[lo, hi)`` view of the batch columns.
  :class:`CompiledStats` and :class:`CompiledTraceRecorder` answer the
  reads of :class:`~repro.simulation.monitors.StatsCollector` /
  :class:`~repro.simulation.monitors.TraceRecorder` from those views
  alone.  Aggregates — message counts, latency populations, service
  latencies in message-id order and their fold into one
  :class:`~repro.simulation.monitors.ServiceObservation` per run — are
  slices of columns the :class:`_Batch` derives for all its runs at
  once, on the first read that needs each; per-flit
  :class:`~repro.simulation.monitors.InjectionRecord` /
  :class:`~repro.simulation.monitors.DeliveryRecord` objects and trace
  tuples are built for the caller that asks for them, and never read
  back.

Everything is exact integer arithmetic on the same quantities the
per-flit path computes, so the records it builds are *equal* —
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

from repro.simulation.monitors import (ChannelStats, DeliveryRecord,
                                       InjectionRecord, LatencySummary,
                                       ServiceObservation, StatsCollector,
                                       TraceRecorder)
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


def _blocks(bounds):
    """``(first, stop)`` of consecutive blocks of whole segments, about
    :data:`_BLOCK` rows each, of segments ``bounds[i]:bounds[i + 1]``:
    blocks keep every temporary below the size of one block however long
    the run.  ``searchsorted`` ascends, so the cuts dedupe in order
    (numpy 2's ``unique`` would import ``numpy.ma`` into every simulating
    process)."""
    firsts = list(dict.fromkeys((_np.searchsorted(
        bounds, _np.arange(0, bounds[-1], _BLOCK), side="right") -
        1).tolist()))
    return zip(firsts, firsts[1:] + [len(bounds) - 1])


def _blockwise(cuts, derive):
    """One float64 column, run ``i``'s rows ``[cuts[i], cuts[i + 1])``,
    filled block by block of whole runs by ``derive(first, stop)``."""
    out = _np.empty(cuts[-1])
    for first, stop in _blocks(cuts):
        out[cuts[first]:cuts[stop]] = derive(first, stop)
    return out


def _column(parts):
    """``parts`` end to end, as one array: the part itself when there is
    only one, an empty array when there is none."""
    if len(parts) == 1:
        return parts[0]
    return _np.concatenate(parts) if parts else _np.empty(0)


def _run_keys(mids, run):
    """One integer key per row, equal exactly where ``(run, message id)``
    is and ordered as that pair: each run's ids are lifted above those of
    the runs before it."""
    np = _np
    if not mids.size:
        return mids
    span = int(mids.max()) - int(mids.min()) + 1
    if span * (int(run.max()) + 1) >= 1 << 62:  # rank ids the lift overflows
        mids = np.searchsorted(np.sort(mids), mids)
        span = mids.size
    return mids - mids.min() + run * span


def _id_order(mids, run):
    """Rows in ``(run, message id)`` order, stably."""
    return _np.argsort(_run_keys(mids, run), kind="stable")


def _service_ns(cuts, mids, created, injected, delivered, period_ps):
    """Service latency of every delivery, in ns, each run's in message-id
    order — run ``i`` holds rows ``[cuts[i], cuts[i + 1])`` and each row
    its absolute creation, injection and delivery cycle: delivery less
    the later of its creation and the injection of the delivery before
    it, the chain restarting at every run and skipping a delivery whose
    run never injected its id (``injected`` < 0).  The record walk
    (:meth:`~repro.simulation.monitors.StatsCollector.
    service_latencies_ns`) is the reference."""
    np = _np
    sizes = np.diff(cuts)
    order = _id_order(mids, np.repeat(np.arange(sizes.size), sizes))
    injected = injected[order]
    found = np.where(injected >= 0, np.arange(order.size), -1)
    np.maximum.accumulate(found, out=found)
    previous = np.empty_like(found)
    previous[:1] = -1
    previous[1:] = found[:-1]
    ready = created[order]
    np.maximum(ready, injected[previous], out=ready,
               where=previous >= np.repeat(cuts[:-1], sizes))
    latency = delivered[order]
    latency -= ready
    latency *= period_ps
    return latency / 1000.0


def _run_sums(values, cuts) -> list[int]:
    """The sum of each run's ``values`` (run ``i`` is rows ``[cuts[i],
    cuts[i + 1])``)."""
    prefix = _np.zeros(values.size + 1, _np.int64)
    _np.cumsum(values, out=prefix[1:])
    cuts = _np.asarray(cuts)
    return (prefix[cuts[1:]] - prefix[cuts[:-1]]).tolist()


def _observe(service, cuts) -> list[ServiceObservation]:
    """One :class:`~repro.simulation.monitors.ServiceObservation` per
    run of a service-latency column (run ``i`` is rows ``[cuts[i],
    cuts[i + 1])``): every worst in one ``reduceat``, each mean the
    builtin ``sum`` over the run's floats in order, as the record walk
    sums them."""
    view = memoryview(service)
    spans = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
    worst = iter(_np.maximum.reduceat(
        service, [lo for lo, _ in spans]).tolist() if spans else ())
    return [ServiceObservation(hi - lo, next(worst),
                               sum(view[lo:hi]) / (hi - lo))
            if hi > lo else ServiceObservation.of(())
            for lo, hi in zip(cuts, cuts[1:])]


class _Derived:
    """What a :class:`_Batch` and a :class:`_Log` derive alike, for all
    their runs at once, on the first read that needs it, and keep: run
    ``i`` holds the per-delivery rows ``[cuts[i], cuts[i + 1])``, which
    ``_done_rows(first, stop)`` returns for runs ``[first, stop)`` as
    message ids and absolute creation, injection and delivery cycles.
    Each column is derived block by block, so its temporaries stay the
    size of a block."""

    @cached_property
    def latencies_ns(self):
        """End-to-end latency of every delivery, in ns."""
        def derive(first, stop):
            _, created, _, delivered = self._done_rows(first, stop)
            return (delivered - created) * self.period_ps / 1000.0
        return _blockwise(self.cuts, derive)

    @cached_property
    def service_ns(self):
        """Service latency of every delivery, in ns, each run's in
        message-id order."""
        cuts = self.cuts
        return _blockwise(cuts, lambda first, stop: _service_ns(
            [cut - cuts[first] for cut in cuts[first:stop + 1]],
            *self._done_rows(first, stop), self.period_ps))

    @cached_property
    def observations(self) -> list[ServiceObservation]:
        """The fold of each run's service latencies."""
        return _observe(self.service_ns, self.cuts)


class _Batch(_Derived):
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

    @cached_property
    def cuts(self) -> list[int]:
        """Each segment's bounds into the completed messages."""
        return _np.searchsorted(_np.flatnonzero(self.completed),
                                self.arrivals.bounds).tolist()

    @cached_property
    def done_last(self):
        """Final-flit slot of every completed message."""
        return self.last[self.completed]

    def _done_rows(self, first: int, stop: int):
        """Ids and absolute creation, final-flit injection and delivery
        cycles of the completed messages of segments ``[first, stop)``."""
        np = _np
        rows = slice(self.arrivals.bounds[first], self.arrivals.bounds[stop])
        done = self.completed[rows]
        sizes = np.diff(self.cuts[first:stop + 1])
        flit_size = self.flit_size
        created = np.repeat(self.starts[first:stop] * flit_size, sizes)
        created += self.arrivals.cycles[rows][done]
        injected = self.last[rows][done] * flit_size
        delivered = np.repeat(self.traversals[first:stop] * flit_size,
                              sizes)
        delivered += injected
        return self.arrivals.mids[rows][done], created, injected, delivered

    @cached_property
    def delivered_bytes(self) -> list[int]:
        """Payload bytes each segment's completed messages carry."""
        return _run_sums(self.arrivals.words[self.completed] *
                         self.bytes_per_word, self.cuts)


def _rows(name: str) -> property:
    """The run's rows ``[lo, hi)`` of one batch column (a dotted name
    reads through the batch), as a property."""
    column = attrgetter(name)
    return property(lambda run: column(run.batch)[run.lo:run.hi],
                    doc=f"The incarnation's rows of ``{name}``.")


class _Run:
    """What both run kinds read the same way: the rows ``done`` of the
    per-delivery columns its ``source`` (a :class:`_Batch` or a
    :class:`_Log`) derives, and entry ``index`` of the per-run ones."""

    __slots__ = ()

    def latency_column(self):
        """Delivery latencies, in delivery order, as a view."""
        return self.source.latencies_ns[self.done]

    def service_column(self):
        """Service latencies, in message-id order, as a view."""
        return self.source.service_ns[self.done]

    @property
    def observation(self) -> ServiceObservation:
        """The fold of the run's service latencies."""
        return self.source.observations[self.index]

    def delivered_bytes(self) -> int:
        """Payload bytes of the run's deliveries."""
        return self.source.delivered_bytes[self.index]


class _IntervalRun(_Run):
    """Solved recurrence of one channel incarnation over ``[start, end)``.

    A view of rows ``[lo, hi)`` — segment ``segment`` — of its
    :class:`_Batch`: every column reads as the incarnation's own, the
    readers slice what the batch derived, and the slot geometry here
    expands the rows into absolute slots, records and trace tuples for
    a caller that asks for them.
    """

    __slots__ = ("batch", "lo", "hi", "segment", "channel", "start",
                 "slots", "base", "traversal_slots", "n_flits",
                 "n_deliveries", "first_slot")

    cycles, words, mids = (_rows(f"arrivals.{name}")
                           for name in Arrivals.COLUMNS)
    k, actual, completed, last = map(_rows, _Batch.COLUMNS)
    source = property(attrgetter("batch"), doc="The run's batch.")
    index = property(attrgetter("segment"), doc="The run's segment.")

    def __init__(self, batch: _Batch, lo: int, hi: int, segment: int):
        self.batch = batch
        self.lo = lo
        self.hi = hi
        self.segment = segment

    @property
    def count(self) -> int:
        """Messages that arrived within the incarnation."""
        return self.hi - self.lo

    @property
    def done(self) -> slice:
        """The run's bounds into the batch's completed-message columns."""
        cuts = self.batch.cuts
        return slice(cuts[self.segment], cuts[self.segment + 1])

    def trace_columns(self):
        """The trace as ``(message ids, injection slots, delivery
        cycles)`` arrays, one entry per completed message."""
        last = self.batch.done_last[self.done]
        return (self.mids[self.completed], last,
                (last + self.traversal_slots) * self.batch.flit_size)

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
        rotations, index = np.divmod(self.base + self.k[message] + offsets,
                                     len(self.slots))
        slots = rotations * self.batch.table_size + \
            np.asarray(self.slots)[index]
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
        _, _, delivered = self.trace_columns()
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
    for first, stop in _blocks(bounds):
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
    flown = np.flatnonzero(n_flits)
    # ``k`` ascends strictly and a run exists only if it injected, so
    # its message 0 went first.
    rotations, index = np.divmod(base[flown] + k[bounds[flown]],
                                 width[row[flown]])
    first_slots = (rotations * table_size +
                   flat[offset[row[flown]] + index]).tolist()
    lows, bases = bounds.tolist(), base.tolist()
    n_flits, n_deliveries = n_flits.tolist(), n_deliveries.tolist()
    runs = []
    for i, first_slot in zip(flown.tolist(), first_slots):
        run = _IntervalRun(batch, lows[i], lows[i + 1], i)
        run.channel = channels[i]
        run.start, _, alloc = spans[i]
        run.slots = alloc.slots
        run.base = bases[i]
        run.traversal_slots = alloc.path.traversal_slots
        run.n_flits = n_flits[i]
        run.n_deliveries = n_deliveries[i]
        run.first_slot = first_slot
        runs.append(run)
    return runs


class _Log(_Derived):
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
    def injected_at(self):
        """Per delivery, the slot its run last injected a packet of its
        message id in, or -1 when it injected none."""
        np = _np
        if not self.d_mid.size:
            return self.d_mid
        keys = _run_keys(np.concatenate([self.i_mid, self.d_mid]),
                         np.concatenate([self.i_run, self.d_run]))
        injected, delivered = np.split(keys, [self.i_mid.size])
        order = np.argsort(injected, kind="stable")
        keys = injected[order]
        last = np.append(keys[1:] != keys[:-1], True)
        keys, ticks = keys[last], self.i_tick[order][last]
        at = np.minimum(np.searchsorted(keys, delivered), keys.size - 1)
        return np.where(keys[at] == delivered, ticks[at], -1)

    def _done_rows(self, first: int, stop: int):
        """Ids and absolute creation, injection (negative when its run
        injected none of the id) and delivery cycles of the deliveries of
        runs ``[first, stop)``."""
        rows = slice(self.cuts[first], self.cuts[stop])
        return (self.d_mid[rows], self.d_created[rows],
                self.injected_at[rows] * self.flit_size,
                self.d_delivered[rows])

    @cached_property
    def delivered_bytes(self) -> list[int]:
        """Payload bytes each run's deliveries carry."""
        return _run_sums(self.d_bytes, self.cuts)


class _LoggedRun(_Run):
    """One best-effort run: injections ``[ilo, ihi)`` and deliveries
    ``done`` of its :class:`_Log`, with the reads of
    :class:`_IntervalRun`."""

    __slots__ = ("source", "index", "channel", "ilo", "ihi", "done",
                 "n_flits", "n_deliveries", "first_slot")

    def __init__(self, log: _Log, index: int, channel: str,
                 injections: tuple[int, int], deliveries: tuple[int, int]):
        self.source = log
        self.index = index
        self.channel = channel
        self.ilo, self.ihi = injections
        self.done = slice(*deliveries)
        self.n_flits = self.ihi - self.ilo
        self.n_deliveries = deliveries[1] - deliveries[0]
        self.first_slot = int(log.i_tick[self.ilo])

    def trace_columns(self):
        """The trace as ``(message ids, injection slots, delivery
        cycles)`` arrays, in delivery order."""
        log, done = self.source, self.done
        return log.d_mid[done], log.injected_at[done], log.d_delivered[done]

    def append_records(self, sink) -> None:
        """Expand into records on a ``ChannelStats`` sink."""
        log, channel = self.source, self.channel
        flit_size, period_ps = log.flit_size, log.period_ps
        injections = sink.injections
        for sequence, (mid, slot) in enumerate(zip(
                log.i_mid[self.ilo:self.ihi].tolist(),
                log.i_tick[self.ilo:self.ihi].tolist())):
            cycle = slot * flit_size
            injections.append(InjectionRecord(
                channel=channel, message_id=mid, sequence=sequence,
                slot_index=slot, cycle=cycle, time_ps=cycle * period_ps))
        deliveries = sink.deliveries
        for mid, created, delivered, payload in zip(*(
                column[self.done].tolist() for column in (
                    log.d_mid, log.d_created, log.d_delivered,
                    log.d_bytes))):
            deliveries.append(DeliveryRecord(
                channel=channel, message_id=mid, created_cycle=created,
                created_time_ps=created * period_ps,
                delivered_cycle=delivered,
                delivered_time_ps=delivered * period_ps,
                payload_bytes=payload))


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
    log.cuts = d_lo + [log.d_mid.size]  # each run's bounds, deliveries
    log.d_run = np.repeat(np.arange(len(d_lo)), np.diff(log.cuts))
    return stats


class CompiledStats:
    """A run's record log as the columns of its runs.

    It answers every read of :class:`~repro.simulation.monitors.
    StatsCollector` from the columns.  Aggregates (:meth:`delivery_count`,
    :meth:`all_latencies_ns`, :meth:`latency_summaries`,
    :meth:`service_latencies_ns`, :meth:`service_observation`,
    :meth:`incarnation_observations`) slice what each run's batch or log
    derived; :meth:`channel` builds a channel's records, equal field for
    field to the reference executor's, for the caller that asks.  No read
    consults records of its own: the columns are the only truth.
    """

    def __init__(self):
        self._runs: dict[str, list] = {}

    def _add_run(self, run) -> None:
        self._runs.setdefault(run.channel, []).append(run)

    @property
    def channels(self) -> tuple[str, ...]:
        """All channels with at least one record, sorted."""
        return tuple(sorted(self._runs))

    def channel(self, name: str) -> ChannelStats:
        """One channel's records, built from its runs for the caller."""
        stats = ChannelStats(name)
        for run in self._runs.get(name, ()):
            run.append_records(stats)
        return stats

    def delivery_count(self) -> int:
        """Total messages delivered."""
        return sum(run.n_deliveries
                   for runs in self._runs.values() for run in runs)

    def all_latencies_ns(self) -> list[float]:
        """Every delivery latency, channels in name order, each in
        delivery order."""
        return _column([run.latency_column() for name in self.channels
                        for run in self._runs[name]]).tolist()

    def _aggregate(self, channel: str) -> tuple:
        """A channel's totals and its runs' latencies as one ascending
        float64 column."""
        runs = self._runs.get(channel, ())
        return (sum(run.n_deliveries for run in runs),
                sum(run.n_flits for run in runs),
                sum(run.delivered_bytes() for run in runs),
                _np.sort(_column([run.latency_column() for run in runs])))

    def latency_summaries(self):
        """Every channel's totals and latency summary, and the overall
        one, summarised from sorted float64 columns: no channel's sample
        becomes a list, and the overall sample is one ``np.sort``."""
        rows, columns = [], []
        for name in self.channels:
            *totals, column = self._aggregate(name)
            columns.append(column)
            rows.append((name, *totals, LatencySummary.of_sorted(column)))
        return rows, LatencySummary.of_sorted(_np.sort(_column(columns)))

    def service_latencies_ns(self, channel: str) -> list[float]:
        """Service latencies, one incarnation per run, in order."""
        return _column([run.service_column()
                        for run in self._runs.get(channel, ())]).tolist()

    #: The one fold dispatch: a run's own fold when the channel ran once.
    service_observation = StatsCollector.service_observation

    def incarnation_observations(self, channel: str):
        """``(first injection slot, delivered bytes, observation)`` of
        each run — a run is one incarnation by construction."""
        return [(run.first_slot, run.delivered_bytes(), run.observation)
                for run in self._runs.get(channel, ())]

    def composability_trace(self) -> "CompiledTraceRecorder":
        """The trace as arrays: one run is one incarnation, so its
        completed messages are its trace."""
        return CompiledTraceRecorder({
            name: _RunEvents(delivered) for name, runs in self._runs.items()
            if (delivered := [run for run in runs if run.n_deliveries])})


class _RunEvents:
    """A channel's trace events, read off its runs' columns each time
    they are iterated."""

    __slots__ = ("runs",)

    def __init__(self, runs: list):
        self.runs = runs

    def __iter__(self):
        for run in self.runs:
            yield from zip(*(column.tolist()
                             for column in run.trace_columns()))


class CompiledTraceRecorder(TraceRecorder):
    """Composability trace over the columns of a run's runs.

    Its events are :class:`_RunEvents`, so :meth:`trace` builds a
    channel's tuples, byte-equal to the record walk's, for the caller.
    :meth:`agreement` between two compiled recorders compares the same
    three fields of every event, in order, on the arrays.
    """

    def _columns(self, name: str):
        """One channel's trace as three arrays."""
        events = self._events.get(name)
        columns = [run.trace_columns() for run in events.runs] \
            if events else []
        return tuple(map(_column, zip(*columns))) if columns else \
            (_np.empty(0, _np.int64),) * 3

    def agreement(self, other, channels):
        """``(identical, diverged)`` as the base class defines them;
        against another compiled recorder, decided on the arrays."""
        if not isinstance(other, CompiledTraceRecorder):
            return super().agreement(other, channels)
        identical: list[str] = []
        diverged: list[str] = []
        for channel in channels:
            matched = all(map(_np.array_equal, self._columns(channel),
                              other._columns(channel)))
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
