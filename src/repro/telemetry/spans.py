"""Sim-time spans: the tracing half of the telemetry subsystem.

A :class:`Span` is one named interval on a named track.  Its ``start``
and ``end`` are *simulated* quantities — slots, cycles, or simulated
milliseconds — never wall-clock readings, so a trace is as deterministic
as the simulation that produced it.  Wall-clock spans (CLI phase timers,
campaign worker activity) are allowed but must be flagged ``wall=True``;
exporters then segregate them into the ``meta`` section that the
byte-determinism tests ignore.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.exceptions import ConfigurationError

__all__ = ["Span", "CounterTrack", "SPAN_UNITS"]

# Recognised span time units and their scale to Chrome-trace
# microseconds.  "slot" and "cycle" are unit-less simulation ticks;
# rendering one tick as one microsecond keeps Perfetto zoomable.
SPAN_UNITS: dict[str, float] = {
    "us": 1.0, "ms": 1e3, "s": 1e6, "slot": 1.0, "cycle": 1.0,
}


@dataclass(slots=True)
class Span:
    """One traced interval (``end == start`` renders as an instant).

    >>> s = Span("s0", track="sessions", unit="ms", start=1.5, end=9.0)
    >>> s.duration
    7.5
    """

    name: str
    track: str
    unit: str
    start: float
    end: float
    wall: bool = False
    args: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.unit not in SPAN_UNITS:
            raise ConfigurationError(
                f"span unit {self.unit!r} not one of {sorted(SPAN_UNITS)}")
        if self.end < self.start:
            raise ConfigurationError(
                f"span {self.name!r} ends ({self.end}) before it starts "
                f"({self.start})")

    @property
    def duration(self) -> float:
        """Span length in its own unit."""
        return self.end - self.start

    def to_record(self) -> dict:
        """Canonical JSON-ready form (used by the JSONL exporter)."""
        record = {"kind": "span", "name": self.name, "track": self.track,
                  "unit": self.unit, "start": round(self.start, 6),
                  "end": round(self.end, 6)}
        if self.args:
            record["args"] = self.args
        return record


@dataclass(slots=True)
class CounterTrack:
    """A sampled value series rendered as a Perfetto counter track.

    ``points`` are ``(timestamp, value)`` samples in the track's
    ``unit`` timebase, non-decreasing in time.  The Chrome-trace
    exporter turns each sample into a ``ph: "C"`` counter event, so the
    series plots as a stacked area chart alongside the span tracks —
    the fabric-utilisation rollups of
    :mod:`repro.telemetry.monitor` use this for per-epoch heatlines.

    >>> ct = CounterTrack("util", track="fabric", unit="slot",
    ...                   points=((0, 0.25), (64, 0.5)))
    >>> len(ct.points)
    2
    """

    name: str
    track: str
    unit: str
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.unit not in SPAN_UNITS:
            raise ConfigurationError(
                f"counter unit {self.unit!r} not one of "
                f"{sorted(SPAN_UNITS)}")
        self.points = tuple((float(ts), float(value))
                            for ts, value in self.points)
        if not self.points:
            raise ConfigurationError(
                f"counter track {self.name!r} needs at least one point")
        if any(b[0] < a[0] for a, b in zip(self.points,
                                           self.points[1:])):
            raise ConfigurationError(
                f"counter track {self.name!r} points must be "
                "time-ordered")

    def to_record(self) -> dict:
        """Canonical JSON-ready form (used by the JSONL exporter)."""
        return {"kind": "counter_track", "name": self.name,
                "track": self.track, "unit": self.unit,
                "points": [[round(ts, 6), round(value, 6)]
                           for ts, value in self.points]}
