"""Compiled vectorised epoch executor: one numpy schedule for all backends.

aelite's contention-free TDM schedule is completely regular: every flit's
injection slot and per-hop link traversal is decidable at configuration
time from the slot tables alone.  The per-flit oracle in
:mod:`repro.simulation.flitsim` walks each channel incarnation's
reserved slots one by one in Python; this module compiles that walk
away.

The compiled representation has three layers:

* :class:`PatternTable` — one traffic pattern's arrival stream as flat
  ``int64`` arrays (cycle, words, message id, ready slot, flits per
  message, running flit count).  Tables are compiled once per pattern
  object, as far as its longest incarnation can read, and
  *prefix-sliced* per channel incarnation, so a timeline that restarts a
  channel hundreds of times pays for its arrival arithmetic once and a
  session that lives for a hundredth of the run allocates a hundredth
  of its arrivals.
* the **interval recurrence** (:func:`_run_interval`) — a channel's
  behaviour over one active span ``[start, end)``.  Contention-freedom
  makes each channel independent, so a whole incarnation (spanning any
  number of epoch boundaries that do not touch it) is solved in a dozen
  array operations: with sorted reserved slots ``s`` (``m`` of them in a
  table of ``T``), the index function ``A(x) = (x // T) * m +
  searchsorted(s, x mod T)`` counts reserved slots before absolute slot
  ``x`` without materialising the schedule, and the FIFO service start
  of message ``i`` follows the Lindley-style recurrence ``k = F +
  cummax(pos - F)`` where ``F`` is the running flit count and ``pos``
  the first reserved slot index at or after the message's ready slot.
* **lazy materialisation** — :class:`CompiledStats` and
  :class:`CompiledTraceRecorder` are drop-in
  :class:`~repro.simulation.monitors.StatsCollector` /
  :class:`~repro.simulation.monitors.TraceRecorder` subclasses that hold
  the interval arrays and only expand them into per-flit
  :class:`~repro.simulation.monitors.InjectionRecord` /
  :class:`~repro.simulation.monitors.DeliveryRecord` objects (or trace
  tuples) when a monitor, ``verify_timeline`` or a campaign serialiser
  actually asks.  Aggregates that do not need records — message counts,
  latency populations, the use-case service-latency check — are computed
  directly from the arrays.

Everything is exact integer arithmetic on the same quantities the
per-flit path computes, so the materialised records are *equal* —
field for field — to the reference implementation's, which is the
correctness oracle the property tests and both tier-2 benchmarks
enforce.  The composability trace is one more read of the same arrays
(:meth:`CompiledStats.composability_trace`); the link-contention check
is not the executor's at all but the lifetime table's
(:func:`~repro.simulation.backend.check_lifetime_contention`).

The best-effort baseline shares :func:`pattern_slice` for its timeline
arrival expansion, and the cycle-accurate model consumes the flat
:meth:`~repro.core.slot_table.SlotTable.owner_row` view of the same
slot tables — one schedule representation across all three backends.

This module is an *executor*, not an entry point: :func:`execute` has
the signature of :func:`repro.simulation.flitsim.execute` and is reached
through :class:`~repro.simulation.backend.FlitLevelBackend`, which
imports it (and with it numpy) on the first simulated run, never with
``import repro``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

import numpy as _np

from repro.simulation.monitors import (DeliveryRecord, InjectionRecord,
                                       ServiceObservation, StatsCollector,
                                       TraceRecorder)
from repro.simulation.traffic import (BernoulliMessages, ConstantBitRate,
                                      PeriodicBurst, Replay, Saturating,
                                      TrafficPattern)

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.core.allocation import ChannelAllocation
    from repro.core.configuration import NocConfiguration
    from repro.core.words import WordFormat

__all__ = ["PatternTable", "compile_pattern", "pattern_slice",
           "CompiledStats", "CompiledTraceRecorder", "execute"]

#: Patterns whose ``events(h)`` is a prefix of ``events(H)`` for h <= H,
#: so the table of the longest incarnation serves every other by slicing.
_PREFIX_STABLE = (ConstantBitRate, PeriodicBurst, BernoulliMessages,
                  Replay, Saturating)


class PatternTable:
    """One traffic pattern's arrival stream as flat ``int64`` arrays.

    All arrays are parallel and in event order.  ``ready`` is the
    arrival slot *relative to the channel's start* (``ceil(cycle /
    flit_size)``); ``ready_running`` its running maximum (the admission
    order of the per-flit reference is FIFO in event order, so a later
    event can never be served before an earlier one).  ``flits`` is the
    flit count of each message (``max(1, ceil(words / payload))`` —
    a zero-word message still costs one header-only flit, exactly like
    the reference) and ``flits_before`` its exclusive running sum.
    """

    COLUMNS = ("cycles", "words", "mids", "ready", "ready_running",
               "flits", "flits_before")
    __slots__ = COLUMNS + ("horizon_cycles",)

    def __init__(self, cycles, words, mids, horizon_cycles: int,
                 flit_size: int, payload_per_flit: int):
        self.cycles = cycles
        self.words = words
        self.mids = mids
        self.horizon_cycles = horizon_cycles
        self.ready = -(-cycles // flit_size)
        if cycles.size:
            self.ready_running = _np.maximum.accumulate(self.ready)
        else:
            self.ready_running = self.ready
        self.flits = _np.maximum(-(-words // payload_per_flit), 1)
        running = _np.cumsum(self.flits)
        self.flits_before = running - self.flits

    def count_until(self, horizon_cycles: int) -> int:
        """Number of events with ``cycle < horizon_cycles``."""
        return int(_np.searchsorted(self.cycles, horizon_cycles,
                                    side="left"))

    @property
    def nbytes(self) -> int:
        """Bytes held by the seven columns."""
        return sum(getattr(self, name).nbytes for name in self.COLUMNS)


def compile_pattern(pattern: TrafficPattern, horizon_cycles: int,
                    fmt: "WordFormat") -> PatternTable:
    """Compile one pattern's events before ``horizon_cycles`` to arrays.

    :class:`~repro.simulation.traffic.ConstantBitRate`,
    :class:`~repro.simulation.traffic.PeriodicBurst` and
    :class:`~repro.simulation.traffic.Saturating` are expanded directly
    in numpy (bit-identical to their scalar ``events()``: the CBR floor
    is the same IEEE-754 multiply-and-floor); every other pattern goes
    through its ``events()`` list once.
    """
    np = _np
    flit_size = fmt.flit_size
    if isinstance(pattern, ConstantBitRate) and \
            horizon_cycles > pattern.offset_cycles:
        interval = pattern.interval_cycles
        offset = pattern.offset_cycles
        n = int((horizon_cycles - offset) / interval) + 2
        while True:
            cycles = offset + np.floor(
                np.arange(n, dtype=np.float64) * interval
            ).astype(np.int64)
            if cycles[-1] >= horizon_cycles:
                break
            n *= 2
        keep = int(np.searchsorted(cycles, horizon_cycles, side="left"))
        cycles = cycles[:keep]
        words = np.full(keep, pattern.message_words, dtype=np.int64)
        mids = np.arange(keep, dtype=np.int64)
    elif isinstance(pattern, PeriodicBurst) and \
            horizon_cycles > pattern.offset_cycles:
        n_bursts = -(-(horizon_cycles - pattern.offset_cycles) //
                     pattern.period_cycles)
        starts = pattern.offset_cycles + \
            np.arange(n_bursts, dtype=np.int64) * pattern.period_cycles
        cycles = np.repeat(starts, pattern.burst_messages)
        words = np.full(cycles.size, pattern.message_words,
                        dtype=np.int64)
        mids = np.arange(cycles.size, dtype=np.int64)
    elif isinstance(pattern, Saturating) and horizon_cycles > 0:
        cycles = np.arange(0, horizon_cycles, pattern.flit_size,
                           dtype=np.int64)
        words = np.full(cycles.size, pattern.message_words,
                        dtype=np.int64)
        mids = np.arange(cycles.size, dtype=np.int64)
    else:
        events = pattern.events(horizon_cycles) if horizon_cycles > 0 \
            else []
        n = len(events)
        cycles = np.fromiter((e.cycle for e in events), np.int64, n)
        words = np.fromiter((e.words for e in events), np.int64, n)
        mids = np.fromiter((e.message_id for e in events), np.int64, n)
    return PatternTable(cycles, words, mids, horizon_cycles, flit_size,
                        fmt.payload_words_per_flit)


def pattern_slice(cache: dict, pattern: TrafficPattern,
                  lifetime_cycles: int, events_horizon_cycles: int,
                  fmt: "WordFormat",
                  stats: dict | None = None) -> tuple[PatternTable, int]:
    """A pattern's table plus its event count within one incarnation.

    An incarnation ``lifetime_cycles`` long can inject nothing that
    arrives at or after that cycle: such an event is ready no earlier
    than the incarnation's end, so every reserved slot it could use lies
    past the last one the incarnation owns.  Prefix-stable patterns are
    therefore compiled only that far, cached by object identity (the
    cache entry pins the pattern object so ids cannot be recycled) and
    recompiled only when a later incarnation of the same object is
    longer; other patterns are compiled at ``events_horizon_cycles``,
    the horizon the caller's scalar reference hands ``events()``, and
    only the count read from them stops at the lifetime.

    ``stats``, when given, tallies ``pattern_compiles`` (full
    :func:`compile_pattern` runs, with the ``table_events`` and
    ``table_bytes`` they allocated) vs. ``pattern_slices`` (cache hits
    answered by a binary-search prefix slice).
    """
    stable = isinstance(pattern, _PREFIX_STABLE)
    entry = cache.get(id(pattern)) if stable else None
    if entry is not None and entry[1].horizon_cycles >= lifetime_cycles:
        table = entry[1]
        if stats is not None:
            stats["pattern_slices"] = stats.get("pattern_slices", 0) + 1
    else:
        table = compile_pattern(
            pattern, lifetime_cycles if stable else events_horizon_cycles,
            fmt)
        if stable:
            cache[id(pattern)] = (pattern, table)
        if stats is not None:
            for key, amount in (("pattern_compiles", 1),
                                ("table_events", table.cycles.size),
                                ("table_bytes", table.nbytes)):
                stats[key] = stats.get(key, 0) + amount
    return table, table.count_until(lifetime_cycles)


class _IntervalRun:
    """Solved recurrence of one channel incarnation over ``[start, end)``.

    Holds the per-message arrays (``k`` service-start indices, ``actual``
    flits injected before the interval end, ``completed`` mask) plus the
    slot geometry needed to expand them lazily into absolute slots,
    records and trace tuples.
    """

    __slots__ = ("channel", "table", "count", "start", "s", "m",
                 "table_size", "base", "k", "actual", "completed",
                 "n_flits", "n_deliveries", "traversal_slots",
                 "flit_size", "period_ps", "bytes_per_word",
                 "_last_slots")

    def __init__(self):
        self._last_slots = None

    # -- lazy expansions -------------------------------------------------------

    def _slots_of(self, indices):
        """Absolute slots of reserved-slot indices (vectorised)."""
        q, j = _np.divmod(indices, self.m)
        return q * self.table_size + self.s[j]

    def last_slots(self):
        """Absolute slot of the final flit of each completed message."""
        if self._last_slots is None:
            last = (self.k + self.table.flits[:self.count])[
                self.completed] - 1
            self._last_slots = self._slots_of(self.base + last)
        return self._last_slots

    def trace_columns(self):
        """The trace as ``(message ids, injection slots, delivery
        cycles)`` arrays, one entry per completed message."""
        last = self.last_slots()
        return (self.table.mids[:self.count][self.completed], last,
                (last + self.traversal_slots) * self.flit_size)

    def trace_events(self) -> list[tuple[int, int, int]]:
        """``(message_id, injection_slot, delivery_cycle)`` tuples."""
        return list(zip(*(column.tolist()
                          for column in self.trace_columns())))

    def latencies_ns(self) -> list[float]:
        """Delivery latencies, identical floats to the record path."""
        last = self.last_slots()
        delivered = (last + self.traversal_slots) * self.flit_size
        created = self.start * self.flit_size + \
            self.table.cycles[:self.count][self.completed]
        return (((delivered - created) * self.period_ps) /
                1000.0).tolist()

    def append_records(self, sink) -> None:
        """Expand into per-flit records on a ``ChannelStats`` sink."""
        np = _np
        flit_size = self.flit_size
        period_ps = self.period_ps
        channel = self.channel
        counts = self.actual
        message = np.repeat(np.arange(self.count), counts)
        first = np.cumsum(counts) - counts
        offsets = np.arange(self.n_flits) - np.repeat(first, counts)
        slots = self._slots_of(self.base + self.k[message] + offsets)
        cycles = slots * flit_size
        mids = self.table.mids[:self.count][message]
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
        dmids = self.table.mids[:self.count][mask]
        created = self.start * flit_size + \
            self.table.cycles[:self.count][mask]
        words = self.table.words[:self.count][mask]
        deliveries = sink.deliveries
        bytes_per_word = self.bytes_per_word
        for mid, created_cycle, delivered_cycle, message_words in zip(
                dmids.tolist(), created.tolist(), delivered.tolist(),
                words.tolist()):
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
        return int(self._slots_of(self.base + self.k[0]))

    def delivered_bytes(self) -> int:
        """Payload bytes of the completed messages."""
        words = self.table.words[:self.count][self.completed]
        return int(words.sum()) * self.bytes_per_word

    def service_latencies_ns(self) -> list[float] | None:
        """Vectorised service latencies, or ``None`` when the reference
        record walk is needed (non-monotone message ids)."""
        np = _np
        mids = self.table.mids[:self.count]
        if mids.size > 1 and not bool((np.diff(mids) > 0).all()):
            return None
        if not self.n_deliveries:
            return []
        period_ps = self.period_ps
        flit_size = self.flit_size
        last = self.last_slots()
        injected_ps = last * flit_size * period_ps
        delivered_ps = (last + self.traversal_slots) * flit_size * \
            period_ps
        created_ps = (self.start * flit_size +
                      self.table.cycles[:self.count][self.completed]) * \
            period_ps
        previous = np.empty_like(injected_ps)
        previous[0] = -1
        previous[1:] = injected_ps[:-1]
        ready = np.maximum(created_ps, previous)
        return ((delivered_ps - ready) / 1000.0).tolist()


def _run_interval(channel: str, table: PatternTable, count: int,
                  start: int, end: int, alloc: "ChannelAllocation",
                  table_size: int, flit_size: int, period_ps: int,
                  bytes_per_word: int) -> _IntervalRun | None:
    """Solve one incarnation's recurrence; ``None`` when nothing flew."""
    if count == 0:
        return None
    np = _np
    s = np.asarray(alloc.slots, dtype=np.int64)
    m = s.size
    base = alloc.reserved_before(start, table_size)
    total = alloc.reserved_before(end, table_size) - base
    if total <= 0:
        return None
    ready = table.ready_running[:count] + start
    quotient, remainder = np.divmod(ready, table_size)
    pos = quotient * m + np.searchsorted(s, remainder) - base
    flits_before = table.flits_before[:count]
    flits = table.flits[:count]
    k = flits_before + np.maximum.accumulate(pos - flits_before)
    actual = np.clip(total - k, 0, flits)
    n_flits = int(actual.sum())
    if n_flits == 0:
        return None
    run = _IntervalRun()
    run.channel = channel
    run.table = table
    run.count = count
    run.start = start
    run.s = s
    run.m = m
    run.table_size = table_size
    run.base = base
    run.k = k
    run.actual = actual
    run.completed = actual == flits
    run.n_flits = n_flits
    run.n_deliveries = int(np.count_nonzero(run.completed))
    run.traversal_slots = alloc.path.traversal_slots
    run.flit_size = flit_size
    run.period_ps = period_ps
    run.bytes_per_word = bytes_per_word
    return run


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

    def sink(self, name: str):
        """Registered stats of one channel (see the base class)."""
        self._ensure(name)
        return super().sink(name)

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

    def channel_aggregate(self, channel: str):
        """One channel's totals and latencies, from the arrays."""
        runs = self._array_runs(channel)
        if runs is None:
            return super().channel_aggregate(channel)
        return (sum(run.n_deliveries for run in runs),
                sum(run.n_flits for run in runs),
                sum(run.delivered_bytes() for run in runs),
                [latency for run in runs for latency in run.latencies_ns()])

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
                return [latency for population in solved
                        for latency in population]
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
        exec_stats.get("pattern_compiles", 0))
    tel.counter("executor.pattern_table", outcome="slice").inc(
        exec_stats.get("pattern_slices", 0))
    tel.counter("executor.pattern_table_bytes").inc(
        exec_stats.get("table_bytes", 0))
    tel.counter("executor.interval_runs").inc(
        exec_stats.get("interval_runs", 0))


def execute(config: "NocConfiguration", lifetimes: Mapping[str, tuple],
            n_slots: int, patterns: Mapping[str, TrafficPattern],
            telemetry) -> tuple[CompiledStats, dict]:
    """Run a lifetime table's first ``n_slots`` slots, compiled.

    Same arguments and return as :func:`repro.simulation.flitsim.
    execute`.  Contention-freedom makes channels independent, so each
    incarnation — one ``(start, stop, allocation)`` span, clipped to the
    window — is solved as one interval recurrence regardless of how many
    epoch boundaries other applications' churn creates inside it.
    """
    fmt = config.fmt
    flit_size = fmt.flit_size
    table_size = config.table_size
    period_ps = round(1e12 / config.frequency_hz)
    bytes_per_word = fmt.bytes_per_word
    stats = CompiledStats()
    flits: dict[str, int] = {}
    cache: dict = {}
    batch_hist = telemetry.histogram("executor.interval_batch_messages",
                                     bounds=_BATCH_BUCKETS)
    exec_stats: dict = {}
    for name, spans in lifetimes.items():
        pattern = patterns.get(name)
        for start, stop, alloc in spans:
            if start >= n_slots:
                break
            flits.setdefault(name, 0)
            if pattern is None:
                continue
            end = min(stop, n_slots)
            table, count = pattern_slice(
                cache, pattern, (end - start) * flit_size,
                (n_slots - start) * flit_size, fmt, exec_stats)
            run = _run_interval(name, table, count, start, end, alloc,
                                table_size, flit_size, period_ps,
                                bytes_per_word)
            if run is None:
                continue
            exec_stats["interval_runs"] = \
                exec_stats.get("interval_runs", 0) + 1
            batch_hist.observe(run.count)
            stats._add_run(run)
            flits[name] += run.n_flits
    _finish_executor_stats(telemetry, exec_stats)
    return stats, {"flits_by_channel": flits, "executor": "compiled",
                   "executor_stats": exec_stats}
