"""Replayable reconfiguration timelines: live churn as a simulation input.

The control plane (:class:`~repro.core.reconfiguration.
ReconfigurationManager`, :class:`~repro.service.controller.
SessionService`) performs start/stop transitions *analytically*: slots
are moved in the bookkeeping and invariants are re-checked, but no
network is ever simulated across a transition.  A
:class:`ReconfigurationTimeline` closes that gap: it is the replayable
artifact of a churn run — every transition, timestamped in TDM slots and
carrying the exact :class:`~repro.core.placement.ChannelAllocation`
records the transition committed — which the flit-level and best-effort
backends can then *execute*: hand it to
:class:`~repro.simulation.backend.SimRequest` as ``timeline=``, and the
backend vets the request once (:meth:`~ReconfigurationTimeline.
check_replay`) before it reads the lifetime table
(:meth:`~ReconfigurationTimeline.channel_intervals`) — the one input
every replay, the contention check and the watchdog read.  A static run
is the table :func:`static_lifetimes` builds.

Construction validates the timeline the same way the allocator validates
a static configuration: within every epoch (a maximal span with a
constant active set) no two active channels may share a link slot, so a
valid timeline is a sequence of valid configurations glued together by
transitions.

:class:`TimelineRecorder` converts wall-of-model-time transitions
(seconds, as the service sees them) into slot-stamped events; because
service time and simulated slot time are wildly different scales (a
session lives milliseconds, a slot lasts nanoseconds), the recorder can
*fit* the recorded trace into a requested simulation horizon, preserving
event order and relative spacing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.allocation import Allocation
from repro.core.application import UseCase
from repro.core.exceptions import (AllocationError, ConfigurationError,
                                   require_finite_positive, require_whole)
from repro.core.placement import ChannelAllocation
from repro.core.words import WordFormat
from repro.topology.graph import Topology
from repro.topology.mapping import Mapping

__all__ = ["TimelineEvent", "ReconfigurationTimeline", "TimelineRecorder",
           "replay_configuration", "static_lifetimes", "lifetime_boundaries"]

_ACTIONS = ("start", "stop")


def static_lifetimes(allocation: Allocation, n_slots: int) -> dict[
        str, tuple[tuple[int, int, ChannelAllocation], ...]]:
    """The lifetime table of a static run: every allocated channel live
    from slot 0 to ``n_slots``, sorted by name."""
    return {name: ((0, n_slots, ca),)
            for name, ca in sorted(allocation.channels.items())}


def lifetime_boundaries(lifetimes, until: int) -> tuple[int, ...]:
    """The slots before ``until`` at which a lifetime table's active set
    changes, including 0: one epoch starts at each.

    >>> lifetime_boundaries({"a": ((0, 9, None), (12, 40, None)),
    ...                      "b": ((5, 40, None),)}, 20)
    (0, 5, 9, 12)
    """
    slots = {0}
    for spans in lifetimes.values():
        for start, stop, _ in spans:
            slots.update((start, stop))
    return tuple(sorted(slot for slot in slots if slot < until))


@dataclass(frozen=True)
class TimelineEvent:
    """One slot-stamped transition of a reconfiguration timeline.

    A ``start`` carries the exact allocations its transition committed
    (route and injection slots per channel); a ``stop`` releases every
    channel its application holds, so it carries none.
    """

    slot: int
    action: str
    application: str
    channels: tuple[ChannelAllocation, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "slot",
                           require_whole("timeline event slot", self.slot, 0))
        if self.action not in _ACTIONS:
            raise ConfigurationError(
                f"unknown timeline action {self.action!r}; expected one "
                f"of {_ACTIONS}")
        if not self.application:
            raise ConfigurationError(
                "timeline event needs an application name")
        if self.action == "start" and not self.channels:
            raise ConfigurationError(
                f"start of {self.application!r} carries no channel "
                "allocations")
        if self.action == "stop" and self.channels:
            raise ConfigurationError(
                f"stop of {self.application!r} must not carry channels")


class ReconfigurationTimeline:
    """An ordered, per-epoch-validated sequence of start/stop events.

    Events are normalised into deterministic order — by slot, stops
    before starts (slots a departing application frees at a boundary are
    available to an arriving one at the same boundary), then application
    name — and validated on construction: balanced start/stop pairing
    per application, unique active channel names, and contention-freedom
    of every epoch's active set.
    """

    def __init__(self, topology: Topology,
                 events: tuple[TimelineEvent, ...] | list[TimelineEvent],
                 *, horizon_slots: int, table_size: int,
                 frequency_hz: float, fmt: WordFormat | None = None):
        self.horizon_slots = require_whole("horizon_slots", horizon_slots, 1)
        self.table_size = require_whole("table_size", table_size, 1)
        require_finite_positive("frequency_hz", frequency_hz)
        self.topology = topology
        self.frequency_hz = frequency_hz
        self.fmt = fmt or WordFormat()
        self.events: tuple[TimelineEvent, ...] = tuple(sorted(
            events, key=lambda e: (e.slot, e.action != "stop",
                                   e.application)))
        self._validate()

    # -- validation ------------------------------------------------------------

    def _validate(self) -> None:
        """Check every epoch and pair each start with its stop.

        The one walk over the events that knows how a stop finds its
        start.  Its product is the lifetime table — per channel, the
        ``(start_slot, stop_slot, allocation)`` spans it was active,
        a span never stopped running to the horizon — plus the same
        pairing per application (``_sessions``, in start order); every
        other view of the timeline is a read of those.

        An epoch is checked on per-link occupancy masks, as
        :meth:`Allocation.commit` checks a configuration; a contention
        names the link, the lowest shared slot and its holder, and a
        record placed in a table of another size is refused.
        """
        size = self.table_size
        active_apps: dict[str, list] = {}
        active: dict[str, ChannelAllocation] = {}
        masks = dict.fromkeys(self.topology.iter_link_keys(), 0)
        sessions: list[list] = []  # [start, stop, application, channels]
        for event in self.events:
            if event.slot >= self.horizon_slots:
                raise ConfigurationError(
                    f"timeline event at slot {event.slot} lies beyond "
                    f"the horizon of {self.horizon_slots} slots")
            if event.action == "start":
                if event.application in active_apps:
                    raise ConfigurationError(
                        f"application {event.application!r} started "
                        "twice without an intervening stop")
                for ca in event.channels:
                    name = ca.spec.name
                    if name in active:
                        raise ConfigurationError(
                            f"channel {name!r} started while already "
                            "active")
                    if ca.table_size != size:
                        raise ConfigurationError(
                            f"channel {name!r} was placed in a table of "
                            f"size {ca.table_size}, the timeline's has "
                            f"{size}")
                    for key, mask in ca.link_occupancy:
                        held = masks.get(key)
                        if held is None:
                            raise ConfigurationError(
                                f"channel {name!r} uses link {key} "
                                "unknown to the topology")
                        if held & mask:
                            slot, holder = Allocation.holder_of(
                                active.values(), key, held & mask)
                            raise AllocationError(
                                f"epoch starting at slot {event.slot}: "
                                f"contention on link {key} slot {slot}: "
                                f"{holder!r} vs {name!r}",
                                channel=name, reason="slot contention")
                        masks[key] = held | mask
                    active[name] = ca
                session = [event.slot, self.horizon_slots,
                           event.application, event.channels]
                active_apps[event.application] = session
                sessions.append(session)
            else:
                session = active_apps.pop(event.application, None)
                if session is None:
                    raise ConfigurationError(
                        f"stop of {event.application!r} at slot "
                        f"{event.slot} without a matching start")
                session[1] = event.slot
                for ca in session[3]:  # the channels its start committed
                    del active[ca.spec.name]
                    for key, mask in ca.link_occupancy:
                        masks[key] &= ~mask
        self._sessions = tuple(map(tuple, sessions))
        spans: dict[str, list[tuple[int, int, ChannelAllocation]]] = {}
        for start, stop, _, channels in self._sessions:
            for ca in channels:
                spans.setdefault(ca.spec.name, []).append(
                    (start, stop, ca))
        # Sessions are in start order and a name is never active twice,
        # so each channel's spans are already sorted and disjoint.
        self._lifetimes = {name: tuple(spans[name])
                           for name in sorted(spans)}

    # -- queries ---------------------------------------------------------------

    @property
    def channel_names(self) -> tuple[str, ...]:
        """All channel names ever started, sorted."""
        return tuple(self._lifetimes)

    def channel_allocations(self) -> dict[str, ChannelAllocation]:
        """First-start allocation of every channel, keyed by name."""
        return {name: spans[0][2]
                for name, spans in self._lifetimes.items()}

    def channel_intervals(self) -> dict[
            str, tuple[tuple[int, int, ChannelAllocation], ...]]:
        """The lifetime table: ``(start_slot, stop_slot, allocation)``
        spans per channel, sorted by name then start.

        A channel never stopped runs to the horizon; a restarted channel
        contributes one span per start.  The table is built once at
        construction and shared, so treat it as read-only.
        """
        return self._lifetimes

    def clipped_intervals(self, until: int) -> dict[
            str, tuple[tuple[int, int, ChannelAllocation], ...]]:
        """The lifetime table as seen by a run of ``until`` slots.

        Both ends of every span are clipped to the simulated window, so
        a span the run never entered has zero length.
        """
        return {name: tuple((min(start, until), min(stop, until), ca)
                            for start, stop, ca in spans)
                for name, spans in self._lifetimes.items()}

    def survivors(self, *, until: int | None = None) -> tuple[str, ...]:
        """Channels still running at slot ``until`` (default: horizon).

        These are the channels whose behaviour the dynamic composability
        check compares against a solo run: they lived through every
        epoch boundary after their start.  Pass ``until`` when only a
        prefix of the timeline is simulated.
        """
        if until is None:
            until = self.horizon_slots
        return tuple(
            name for name, spans in self._lifetimes.items()
            if any(start < until <= stop for start, stop, _ in spans))

    def epoch_boundaries(self) -> tuple[int, ...]:
        """Slots at which the active channel set changes, including 0."""
        return lifetime_boundaries(self._lifetimes, self.horizon_slots)

    @property
    def n_epochs(self) -> int:
        """Number of maximal constant-configuration spans."""
        return len(self.epoch_boundaries())

    def check_replay(self, n_slots: int | None = None, traffic=(), *,
                     topology: Topology | None = None,
                     table_size: int | None = None,
                     frequency_hz: float | None = None,
                     fmt: WordFormat | None = None,
                     holder: str = "simulator",
                     units: str = "slots") -> int:
        """Vet one replay request; returns the horizon to simulate.

        The keyword fields describe the side about to execute this
        timeline (``holder`` names it in the table-size message).  Only
        the fields given are compared, because the replaying sides
        legitimately differ: TDM schedules cannot be retimed or resized,
        while the best-effort baseline has no slot tables and replays
        at any frequency.  ``n_slots`` defaults to the timeline's own
        horizon; ``traffic`` names the channels that are offered load.
        Raises :class:`ConfigurationError` on the first mismatch.

        >>> from repro.topology.builders import mesh
        >>> topo = mesh(2, 2, nis_per_router=1)
        >>> timeline = ReconfigurationTimeline(
        ...     topo, [], horizon_slots=100, table_size=8,
        ...     frequency_hz=500e6)
        >>> timeline.check_replay(topology=topo, table_size=8)
        100
        >>> timeline.check_replay(40, frequency_hz=500e6)
        40
        >>> timeline.check_replay(101, units="ticks")
        Traceback (most recent call last):
            ...
        repro.core.exceptions.ConfigurationError: n_ticks must be in (0, 100], got 101
        >>> timeline.check_replay(table_size=16, holder="configuration")
        Traceback (most recent call last):
            ...
        repro.core.exceptions.ConfigurationError: timeline table size 8 != configuration table size 16
        """
        if topology is not None and self.topology is not topology:
            raise ConfigurationError(
                "timeline was recorded on a different topology object")
        if table_size is not None and self.table_size != table_size:
            raise ConfigurationError(
                f"timeline table size {self.table_size} != "
                f"{holder} table size {table_size}")
        if frequency_hz is not None and self.frequency_hz != frequency_hz:
            raise ConfigurationError(
                "timeline frequency differs from the configuration's; "
                "TDM schedules cannot be retimed")
        if fmt is not None and self.fmt != fmt:
            raise ConfigurationError(
                "timeline word format differs from the configuration's")
        n_slots = self.horizon_slots if n_slots is None else \
            require_whole(f"n_{units}", n_slots, 1)
        if n_slots > self.horizon_slots:
            raise ConfigurationError(
                f"n_{units} must be in (0, {self.horizon_slots}], "
                f"got {n_slots}")
        unknown = sorted(set(traffic) - set(self.channel_names))
        if unknown:
            raise ConfigurationError(
                f"traffic names channels outside the timeline: {unknown}")
        return n_slots

    def restricted_to(self, channel_names) -> "ReconfigurationTimeline":
        """The timeline containing only the named channels' transitions.

        This is the *solo reference* of the dynamic composability check:
        the survivors keep their exact start slots and allocations while
        every other application's churn disappears.
        """
        wanted = set(channel_names)
        events: list[TimelineEvent] = []
        for start, stop, application, channels in self._sessions:
            kept = tuple(ca for ca in channels if ca.spec.name in wanted)
            if not kept:
                continue
            events.append(TimelineEvent(start, "start", application, kept))
            if stop < self.horizon_slots:
                events.append(TimelineEvent(stop, "stop", application))
        return ReconfigurationTimeline(
            self.topology, events, horizon_slots=self.horizon_slots,
            table_size=self.table_size, frequency_hz=self.frequency_hz,
            fmt=self.fmt)

    def to_record(self) -> dict[str, object]:
        """Deterministic JSON-ready form (routes and slots included)."""
        return {
            "topology": self.topology.name,
            "horizon_slots": self.horizon_slots,
            "table_size": self.table_size,
            "frequency_mhz": round(self.frequency_hz / 1e6, 3),
            "n_epochs": self.n_epochs,
            "events": [
                {"slot": e.slot, "action": e.action,
                 "application": e.application,
                 "channels": [
                     {"name": ca.spec.name,
                      "src": ca.path.source, "dst": ca.path.dest,
                      "routers": list(ca.path.routers),
                      "slots": list(ca.slots)}
                     for ca in e.channels]}
                for e in self.events],
        }

    def __repr__(self) -> str:
        return (f"ReconfigurationTimeline({len(self.events)} events, "
                f"{self.n_epochs} epochs over {self.horizon_slots} "
                "slots)")


class TimelineRecorder:
    """Collects timestamped transitions and builds a timeline.

    The control plane records transitions in *seconds* of service time;
    :meth:`build` maps them onto TDM slots by linearly compressing the
    trace so the last transition lands at three quarters of the requested
    horizon — service time (session lifetimes of milliseconds) and slot
    time (nanoseconds) differ by six orders of magnitude, so replaying
    at the physical slot rate would need billions of slots.  Order and
    relative spacing of transitions are preserved, which is all the
    composability argument needs: the active-set sequence is identical
    to the live run's.
    """

    def __init__(self, topology: Topology, *, table_size: int,
                 frequency_hz: float, fmt: WordFormat | None = None):
        require_finite_positive("frequency_hz", frequency_hz)
        self.topology = topology
        self.table_size = require_whole("table_size", table_size, 1)
        self.frequency_hz = frequency_hz
        self.fmt = fmt or WordFormat()
        self._transitions: list[tuple[float, str, str,
                                      tuple[ChannelAllocation, ...]]] = []

    @property
    def n_transitions(self) -> int:
        """Transitions recorded so far."""
        return len(self._transitions)

    def _record(self, time_s: float, action: str, application: str,
                channels: tuple[ChannelAllocation, ...]) -> None:
        if not 0 <= time_s < float("inf"):
            raise ConfigurationError(
                f"transition time must be finite and >= 0, got {time_s!r}")
        if self._transitions and time_s < self._transitions[-1][0]:
            raise ConfigurationError(
                "transitions must be recorded in time order")
        self._transitions.append((time_s, action, application, channels))

    def record_start(self, time_s: float, application: str,
                     channels) -> None:
        """Record one application/session start with its allocations."""
        self._record(time_s, "start", application, tuple(channels))

    def record_stop(self, time_s: float, application: str) -> None:
        """Record one application/session stop."""
        self._record(time_s, "stop", application, ())

    def build(self, *, horizon_slots: int) -> ReconfigurationTimeline:
        """Convert the recorded transitions into a validated timeline.

        A session whose start and stop compress onto the *same* slot is
        zero-length at this resolution — it influences no epoch, so both
        its events are dropped (keeping it would order the stop before
        its own start under the stops-first boundary normalisation).
        """
        horizon_slots = require_whole("horizon_slots", horizon_slots, 1)
        # Times are recorded in order, so the last one is the largest;
        # a trace that never leaves t=0 maps to slot 0 at any rate.
        last_s = self._transitions[-1][0] if self._transitions else 0.0
        rate = horizon_slots * 0.75 / last_s if last_s > 0 else 0.0
        events: list[TimelineEvent | None] = []
        open_start: dict[str, int] = {}  # application -> index in events
        for time_s, action, application, channels in self._transitions:
            slot = int(time_s * rate)
            if action == "start":
                open_start[application] = len(events)
            else:
                index = open_start.pop(application, None)
                if index is not None and events[index].slot == slot:
                    events[index] = None  # zero-length session
                    continue
            events.append(TimelineEvent(slot, action, application,
                                        channels))
        return ReconfigurationTimeline(
            self.topology, [e for e in events if e is not None],
            horizon_slots=horizon_slots, table_size=self.table_size,
            frequency_hz=self.frequency_hz, fmt=self.fmt)


def replay_configuration(timeline: ReconfigurationTimeline
                         ) -> "NocConfiguration":
    """An empty-allocation configuration for replaying ``timeline``.

    Timeline replay draws its channel set from the timeline's events,
    not from a static allocation, but the simulation backends bind a
    :class:`~repro.core.configuration.NocConfiguration` for the
    operating point (topology, table size, frequency, word format).
    This builds that carrier configuration.
    """
    from repro.core.configuration import NocConfiguration

    return NocConfiguration(
        use_case=UseCase("replay", ()),
        mapping=Mapping({}),
        allocation=Allocation(timeline.topology, timeline.table_size,
                              timeline.frequency_hz, timeline.fmt))
