"""Deterministic metric primitives: counters, gauges, histograms.

Every metric is keyed by ``(kind, name, labels)`` in a
:class:`MetricRegistry`; instruments are plain mutable objects so hot
paths can look them up once (the cold path) and then pay only an
attribute increment per event.  Histograms use *fixed* bucket bounds
supplied at creation time — never adaptive ones — so two runs over the
same event stream produce byte-identical bucket vectors.

The ``Null*`` variants overwrite every mutator with a no-op; they are
what :class:`repro.telemetry.NullTelemetry` hands out, keeping
instrumented hot loops allocation-free when telemetry is disabled.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

from repro.core.exceptions import ConfigurationError

__all__ = ["Counter", "Gauge", "Histogram", "MetricRegistry",
           "NullCounter", "NullGauge", "NullHistogram",
           "NULL_COUNTER", "NULL_GAUGE", "NULL_HISTOGRAM"]

LabelItems = tuple[tuple[str, str], ...]


class Counter:
    """A monotonically increasing count of events.

    >>> c = Counter("admission.decisions", (("outcome", "accept"),))
    >>> c.inc(); c.inc(2)
    >>> c.value
    3
    """

    __slots__ = ("name", "labels", "wall", "value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelItems = (), *,
                 wall: bool = False):
        self.name = name
        self.labels = labels
        self.wall = wall
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def to_record(self) -> dict:
        """Canonical JSON-ready form (used by the JSONL exporter)."""
        return {"kind": self.kind, "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Gauge:
    """A point-in-time value that can move both ways (queue depth etc.).

    >>> g = Gauge("campaign.queue_depth")
    >>> g.set(5); g.dec(); g.inc(3)
    >>> g.value
    7
    """

    __slots__ = ("name", "labels", "wall", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems = (), *,
                 wall: bool = False):
        self.name = name
        self.labels = labels
        self.wall = wall
        self.value: float = 0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = value

    def inc(self, amount: float = 1) -> None:
        """Raise the gauge by ``amount``."""
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        """Lower the gauge by ``amount``."""
        self.value -= amount

    def to_record(self) -> dict:
        """Canonical JSON-ready form (used by the JSONL exporter)."""
        return {"kind": self.kind, "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Histogram:
    """A fixed-bucket distribution.

    ``bounds`` are inclusive upper edges; one overflow bucket catches
    everything above the last edge.  Deterministic by construction: the
    edges are frozen at creation, so bucket vectors never depend on the
    order or range of observations.

    >>> h = Histogram("width", (), bounds=(1, 4, 16))
    >>> for v in (0, 1, 2, 5, 99):
    ...     h.observe(v)
    >>> h.counts      # <=1, <=4, <=16, overflow
    [2, 1, 1, 1]
    >>> h.count, h.sum
    (5, 107.0)
    """

    __slots__ = ("name", "labels", "wall", "bounds", "counts", "count",
                 "sum")
    kind = "histogram"

    def __init__(self, name: str, labels: LabelItems = (), *,
                 bounds: Iterable[float] = (), wall: bool = False):
        self.name = name
        self.labels = labels
        self.wall = wall
        self.bounds = tuple(bounds)
        if not self.bounds:
            raise ConfigurationError(
                f"histogram {name!r} needs at least one bucket bound")
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ConfigurationError(
                f"histogram {name!r} bounds must be strictly increasing: "
                f"{self.bounds}")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation into its bucket."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def to_record(self) -> dict:
        """Canonical JSON-ready form (used by the JSONL exporter)."""
        return {"kind": self.kind, "name": self.name,
                "labels": dict(self.labels),
                "le": list(self.bounds), "counts": list(self.counts),
                "count": self.count, "sum": round(self.sum, 6)}


class NullCounter(Counter):
    """A counter whose :meth:`inc` does nothing (disabled telemetry)."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        """Discard the increment."""


class NullGauge(Gauge):
    """A gauge whose mutators do nothing (disabled telemetry)."""

    __slots__ = ()

    def set(self, value: float) -> None:
        """Discard the value."""

    def inc(self, amount: float = 1) -> None:
        """Discard the increment."""

    def dec(self, amount: float = 1) -> None:
        """Discard the decrement."""


class NullHistogram(Histogram):
    """A histogram whose :meth:`observe` does nothing (disabled)."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        """Discard the observation."""


NULL_COUNTER = NullCounter("null")
NULL_GAUGE = NullGauge("null")
NULL_HISTOGRAM = NullHistogram("null", bounds=(1,))


class MetricRegistry:
    """All metrics of one :class:`~repro.telemetry.Telemetry` instance.

    Instruments are created on first request and shared afterwards, so
    callers may freely re-request ``counter("x", outcome="hit")`` — the
    same object comes back each time.

    >>> reg = MetricRegistry()
    >>> a = reg.counter("hits", route="fast")
    >>> a is reg.counter("hits", route="fast")
    True
    >>> [m.name for m in reg.metrics()]
    ['hits']
    """

    def __init__(self):
        self._metrics: dict[tuple, Counter | Gauge | Histogram] = {}

    def _get(self, factory, kind: str, name: str, labels: dict,
             **kwargs):
        items: LabelItems = tuple(sorted(labels.items()))
        key = (kind, name, items)
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory(name, items, **kwargs)
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, *, wall: bool = False,
                **labels: str) -> Counter:
        """The counter for ``name`` + ``labels`` (created on demand)."""
        return self._get(Counter, "counter", name, labels, wall=wall)

    def gauge(self, name: str, *, wall: bool = False,
              **labels: str) -> Gauge:
        """The gauge for ``name`` + ``labels`` (created on demand)."""
        return self._get(Gauge, "gauge", name, labels, wall=wall)

    def histogram(self, name: str, *, bounds: Iterable[float],
                  wall: bool = False, **labels: str) -> Histogram:
        """The histogram for ``name`` + ``labels`` (created on demand).

        ``bounds`` must match on every request for the same series.
        """
        hist = self._get(Histogram, "histogram", name, labels,
                         bounds=bounds, wall=wall)
        if hist.bounds != tuple(bounds):
            raise ConfigurationError(
                f"histogram {name!r} re-requested with different bounds: "
                f"{hist.bounds} != {tuple(bounds)}")
        return hist

    def metrics(self) -> list[Counter | Gauge | Histogram]:
        """Every registered instrument, in deterministic sorted order."""
        return [self._metrics[key] for key in sorted(self._metrics)]
