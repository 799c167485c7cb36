"""Fast flit-level TDM simulator.

aelite is *flit-synchronous*: globally, the network behaves as a
synchronous machine whose unit of time is the flit cycle (one TDM slot).
This simulator exploits that property for speed: it advances slot by slot,
injecting at most one flit per NI per slot according to the slot tables,
and delivering each flit a fixed, path-determined number of slots later.
That fixed delivery offset is not an approximation — it is the defining
property of contention-free routing, which the detailed word-level
simulator (:mod:`repro.simulation.cyclesim`) independently verifies on the
same configurations.

What the flit simulator adds over pure analysis is actual queueing:
messages wait for their channel's next reserved slot, so measured
latency reflects arrival phasing, burstiness and head-of-line effects
within a channel.  It models the TDM schedule and nothing else: credit
back-pressure is the word-level NI's
(:class:`~repro.simulation.cyclesim.DetailedNetwork`), and the
composability trace and the link-contention check are read off the
record log and the change plan by
:class:`~repro.simulation.backend.FlitLevelBackend`.

Payload accounting is conservative (header word in every flit), matching
the allocator; packet continuation only improves real throughput.

The hot loop is organised around *flat injection-slot schedules*: the
slot tables are compiled once into a per-table-slot list of channel
runtime states and the per-channel arrival streams into flat arrays of
precomputed ready-slots, so a simulated slot touches exactly the
channels that own it instead of re-scanning every NI's table.

Execution is *epoch-based*: a run is a sequence of spans with a constant
channel set, separated by reconfiguration boundaries, described by the
change plan :meth:`~repro.core.timeline.ReconfigurationTimeline.
change_plan` returns; a static run is the one-epoch plan.  At each
boundary only the channels the transition touches have their
injection-slot schedule entries rebuilt (*incremental recompilation*);
every surviving channel's runtime — pending messages, arrival cursor,
record sinks — crosses the boundary untouched, which is exactly the
paper's undisrupted-reconfiguration property at cycle level.

This module is an *executor*, not an entry point: :func:`execute` takes
a change plan that :class:`~repro.simulation.backend.FlitLevelBackend`
has already vetted and returns the ingredients of a
:class:`~repro.simulation.backend.SimResult`.  Its twin with the same
signature, :func:`repro.simulation.compiled.execute`, solves each
channel incarnation's whole schedule as a handful of array operations
and is the one the backend runs; the per-flit loop here is the
reference it must equal record for record
(``FlitLevelBackend(config, compiled=False)``).
"""

from __future__ import annotations

from collections import deque

from repro.core.allocation import ChannelAllocation
from repro.core.configuration import NocConfiguration
from repro.core.exceptions import SimulationError
from repro.simulation.monitors import (DeliveryRecord, InjectionRecord,
                                       StatsCollector)
from repro.simulation.traffic import TrafficPattern

__all__ = ["execute"]


def record_epoch_spans(tel, n_slots: int, changes: tuple) -> None:
    """Trace one epoch span per constant-channel interval of a run.

    Shared by the per-flit loop and the compiled executor so both paths
    emit identical ``epochs`` tracks (unit: slots) for the same
    timeline.  ``changes`` is the boundary plan from
    :meth:`~repro.core.timeline.ReconfigurationTimeline.change_plan`.
    """
    start = 0
    for index, (boundary, _, _) in enumerate((*changes,
                                              (n_slots, (), ()))):
        end = min(boundary, n_slots)
        if end > start or index == 0:
            tel.span(f"epoch {index}", start, end, track="epochs",
                     unit="slot", slots=end - start)
        if boundary >= n_slots:
            break
        start = boundary


class _ChannelRuntime:
    """Per-channel state of one run, flattened for the hot loop.

    Arrival events are pre-expanded into parallel flat arrays
    (``ev_ready`` / ``ev_cycle`` / ``ev_words`` / ``ev_id``) with a
    cursor, so readiness is a single integer compare per scheduled slot.
    A pending message is a mutable ``[message_id, words_left,
    total_words, created_cycle]`` list.
    """

    __slots__ = ("name", "alloc", "ev_ready", "ev_cycle", "ev_words",
                 "ev_id", "ev_pos", "ev_len", "pending", "flits_sent",
                 "traversal_slots", "injections", "deliveries")

    def __init__(self, name: str, alloc: ChannelAllocation):
        self.name = name
        self.alloc = alloc
        self.ev_ready: list[int] = []
        self.ev_cycle: list[int] = []
        self.ev_words: list[int] = []
        self.ev_id: list[int] = []
        self.ev_pos = 0
        self.ev_len = 0
        self.pending: deque[list[int]] = deque()
        self.flits_sent = 0
        self.traversal_slots = alloc.path.traversal_slots
        self.injections: list[InjectionRecord] = []
        self.deliveries: list[DeliveryRecord] = []


def execute(config: NocConfiguration,
            initial: tuple[ChannelAllocation, ...], changes: tuple,
            n_slots: int, patterns: dict[str, TrafficPattern],
            telemetry) -> tuple[StatsCollector, dict]:
    """Run the slot loop over one or more constant-channel epochs.

    ``config`` is the operating point (word format, table size,
    frequency); ``initial`` holds the channels active from slot 0 and
    ``changes`` the later boundaries, as :meth:`~repro.core.timeline.
    ReconfigurationTimeline.change_plan` returns them (a static run is
    the plan with every allocated channel initial and no changes).
    Returns the record log and the ``meta`` of the
    :class:`~repro.simulation.backend.SimResult`.
    """
    states = {
        ca.spec.name: _make_runtime(
            config, ca.spec.name, ca, patterns.get(ca.spec.name), 0,
            n_slots)
        for ca in sorted(initial, key=lambda ca: ca.spec.name)}
    fmt = config.fmt
    flit_size = fmt.flit_size
    payload_per_flit = fmt.payload_words_per_flit
    bytes_per_word = fmt.bytes_per_word
    period_ps = round(1e12 / config.frequency_hz)
    table_size = config.table_size
    stats = StatsCollector()
    all_states: list[_ChannelRuntime] = []

    def register(state: _ChannelRuntime) -> None:
        channel_stats = stats.sink(state.name)
        state.injections = channel_stats.injections
        state.deliveries = channel_stats.deliveries
        all_states.append(state)

    for state in states.values():
        register(state)
    schedule = _compile_schedule(config, states)
    injection_record = InjectionRecord
    delivery_record = DeliveryRecord

    span_start = 0
    for boundary, stops, starts in (*changes, (n_slots, (), ())):
        for abs_slot in range(span_start, min(boundary, n_slots)):
            for state in schedule[abs_slot % table_size]:
                # Move arrivals whose ready slot has passed into the
                # queue.
                pos = state.ev_pos
                if pos < state.ev_len and state.ev_ready[pos] <= abs_slot:
                    pending_append = state.pending.append
                    ev_ready = state.ev_ready
                    while pos < state.ev_len and ev_ready[pos] <= abs_slot:
                        pending_append([state.ev_id[pos],
                                        state.ev_words[pos],
                                        state.ev_words[pos],
                                        state.ev_cycle[pos]])
                        pos += 1
                    state.ev_pos = pos
                pending = state.pending
                if not pending:
                    continue
                message = pending[0]
                # Only "nothing left" is ever read off the count, so a
                # short final flit may take it below zero.
                message[1] -= payload_per_flit
                state.flits_sent += 1
                cycle = abs_slot * flit_size
                state.injections.append(injection_record(
                    channel=state.name, message_id=message[0],
                    sequence=state.flits_sent - 1, slot_index=abs_slot,
                    cycle=cycle, time_ps=cycle * period_ps))
                if message[1] <= 0:
                    pending.popleft()
                    delivered_cycle = (abs_slot +
                                       state.traversal_slots) * \
                        flit_size
                    state.deliveries.append(delivery_record(
                        channel=state.name, message_id=message[0],
                        created_cycle=message[3],
                        created_time_ps=message[3] * period_ps,
                        delivered_cycle=delivered_cycle,
                        delivered_time_ps=delivered_cycle * period_ps,
                        payload_bytes=message[2] * bytes_per_word))
        if boundary >= n_slots:
            break
        span_start = boundary
        _apply_transition(config, states, schedule, stops, starts, boundary,
                          n_slots, patterns, register)
    stats.prune_empty()
    flits: dict[str, int] = {}
    for state in all_states:
        flits[state.name] = flits.get(state.name, 0) + state.flits_sent
    n_epochs = len(changes) + 1
    if telemetry.enabled:
        telemetry.counter("executor.dispatch", path="per-flit").inc()
        telemetry.counter("executor.epochs").inc(n_epochs)
        record_epoch_spans(telemetry, n_slots, changes)
    return stats, {
        "flits_by_channel": flits, "n_epochs": n_epochs,
        "executor": "per-flit", "executor_stats": {"epochs": n_epochs}}


# -- helpers -------------------------------------------------------------------


def _make_runtime(config: NocConfiguration, name: str,
                  alloc: ChannelAllocation,
                  pattern: TrafficPattern | None, start_slot: int,
                  n_slots: int) -> _ChannelRuntime:
    """Fresh per-channel state for a channel starting at a slot.

    Traffic patterns are relative to the channel's start: an event
    at pattern cycle ``c`` becomes ready ``c`` cycles after the
    channel (re)starts.
    """
    flit_size = config.fmt.flit_size
    state = _ChannelRuntime(name, alloc)
    if pattern is not None:
        base_cycle = start_slot * flit_size
        events = pattern.events((n_slots - start_slot) * flit_size)
        # ceil(cycle / flit_size): first slot whose boundary has
        # passed the arrival cycle.
        state.ev_ready = [start_slot + -(-e.cycle // flit_size)
                          for e in events]
        state.ev_cycle = [base_cycle + e.cycle for e in events]
        state.ev_words = [e.words for e in events]
        state.ev_id = [e.message_id for e in events]
        state.ev_len = len(events)
    return state


def _apply_transition(config: NocConfiguration,
                      states: dict[str, _ChannelRuntime],
                      schedule: list[list[_ChannelRuntime]],
                      stops: tuple[str, ...],
                      starts: tuple[ChannelAllocation, ...],
                      slot: int, n_slots: int,
                      patterns: dict[str, TrafficPattern],
                      register) -> None:
    """Apply one epoch boundary's stops and starts to the schedule.

    Touches only the schedule rows of the changed channels,
    inserting new runtimes in source-NI order so the row ordering —
    and therefore every survivor's trace — is identical to a full
    recompilation.
    """
    for name in stops:
        state = states.pop(name, None)
        if state is None:
            raise SimulationError(
                f"timeline stops unknown channel {name!r} at slot "
                f"{slot}")
        for table_slot in state.alloc.slots:
            schedule[table_slot].remove(state)
    for alloc in starts:
        name = alloc.spec.name
        if name in states:
            raise SimulationError(
                f"timeline starts channel {name!r} twice at slot "
                f"{slot}")
        state = _make_runtime(config, name, alloc, patterns.get(name),
                              slot, n_slots)
        register(state)
        states[name] = state
        source = alloc.path.source
        for table_slot in alloc.slots:
            row = schedule[table_slot]
            index = 0
            while index < len(row) and \
                    row[index].alloc.path.source < source:
                index += 1
            row.insert(index, state)


def _compile_schedule(config: NocConfiguration,
                      channels: dict[str, _ChannelRuntime]
                      ) -> list[list[_ChannelRuntime]]:
    """Flatten the slot tables into a per-table-slot state list.

    Within a slot, states are ordered by source NI name — the same
    deterministic order the per-NI scan used — so traces are
    bit-identical to the pre-flattened implementation.
    """
    by_ni_slot: dict[tuple[str, int], _ChannelRuntime] = {}
    for state in channels.values():
        for slot in state.alloc.slots:
            by_ni_slot[(state.alloc.path.source, slot)] = state
    ni_names = sorted({s.alloc.path.source for s in channels.values()})
    schedule: list[list[_ChannelRuntime]] = []
    for slot in range(config.table_size):
        row = [by_ni_slot[(ni, slot)] for ni in ni_names
               if (ni, slot) in by_ni_slot]
        schedule.append(row)
    return schedule
