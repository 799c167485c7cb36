"""The telemetry hub: one capture's metrics, spans, and wall-clock meta.

A :class:`Telemetry` object is handed down through the layers — service,
allocator, simulator backends, campaign runner — and each layer asks it
for instruments once, then mutates them on the hot path.  The default
everywhere is the shared :data:`NULL_TELEMETRY` singleton, whose
instruments are no-ops and whose bookkeeping is skipped behind
``enabled`` checks, so uninstrumented runs pay (nearly) nothing.

Determinism contract: everything reachable from :meth:`Telemetry.to_jsonl`
except the final ``meta`` line is a pure function of the simulated event
stream.  Wall-clock readings — :meth:`phase` timers, ``wall=True``
metrics and spans — are quarantined in that ``meta`` line and in their
own Chrome-trace process, and never fold back into reports.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.telemetry import export as _export
from repro.telemetry.metrics import (Counter, Gauge, Histogram,
                                     MetricRegistry, NULL_COUNTER,
                                     NULL_GAUGE, NULL_HISTOGRAM)
from repro.telemetry.spans import CounterTrack, Span

__all__ = ["Telemetry", "NullTelemetry", "NULL_TELEMETRY", "coalesce"]


class Telemetry:
    """A live capture: metric registry + span list + wall-clock meta.

    >>> tel = Telemetry("doc")
    >>> tel.counter("hits", outcome="path").inc()
    >>> tel.span("s0", 2.0, 5.0, track="sessions", unit="ms")
    >>> tel.value("hits", outcome="path")
    1
    >>> [s.name for s in tel.spans]
    ['s0']
    """

    enabled = True

    def __init__(self, name: str = "repro"):
        self.name = name
        self.registry = MetricRegistry()
        self.spans: list[Span] = []
        self.counter_tracks: list[CounterTrack] = []
        self.meta: dict = {}
        self._wall_epoch = time.perf_counter()
        self._flush_callbacks: list = []

    # -- instruments ---------------------------------------------------

    def counter(self, name: str, *, wall: bool = False,
                **labels: str) -> Counter:
        """The counter for ``name`` + ``labels`` (shared on re-request)."""
        return self.registry.counter(name, wall=wall, **labels)

    def gauge(self, name: str, *, wall: bool = False,
              **labels: str) -> Gauge:
        """The gauge for ``name`` + ``labels`` (shared on re-request)."""
        return self.registry.gauge(name, wall=wall, **labels)

    def histogram(self, name: str, *, bounds: Iterable[float],
                  wall: bool = False, **labels: str) -> Histogram:
        """The fixed-bucket histogram for ``name`` + ``labels``."""
        return self.registry.histogram(name, bounds=bounds, wall=wall,
                                       **labels)

    # -- tracing -------------------------------------------------------

    def span(self, name: str, start: float, end: float, *,
             track: str = "main", unit: str = "ms", wall: bool = False,
             **args) -> None:
        """Record one traced interval (``end == start`` → instant)."""
        self.spans.append(Span(name, track, unit, start, end, wall,
                               args))

    def counter_track(self, name: str, points, *, track: str = "counters",
                      unit: str = "slot") -> None:
        """Record one sampled value series as a Perfetto counter track.

        ``points`` is an iterable of ``(timestamp, value)`` samples in
        the track's ``unit`` timebase (time-ordered); the Chrome-trace
        export renders them as ``ph: "C"`` counter events and the JSONL
        export as one ``counter_track`` line.

        >>> tel = Telemetry("doc")
        >>> tel.counter_track("util", [(0, 0.25), (64, 0.5)])
        >>> tel.counter_tracks[0].name
        'util'
        """
        self.counter_tracks.append(
            CounterTrack(name, track, unit, tuple(points)))

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a wall-clock phase; lands in ``meta`` + a wall span.

        >>> tel = Telemetry("doc")
        >>> with tel.phase("build"):
        ...     _ = sum(range(10))
        >>> tel.meta["phases"][0]["phase"]
        'build'
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.meta.setdefault("phases", []).append(
                {"phase": name, "wall_s": round(end - start, 6)})
            self.span(name, start - self._wall_epoch,
                      end - self._wall_epoch, track="phases", unit="s",
                      wall=True)

    # -- deferred aggregation ------------------------------------------

    def register_flush(self, callback) -> None:
        """Register a provider's deferred-aggregation hook.

        Instrumented hot paths may accumulate raw observations in plain
        Python structures (integer tallies, pending lists) instead of
        calling instruments per event; the callback folds them into the
        registry.  Every reader — :meth:`value` and the exporters —
        flushes first, so consumers never see a stale registry while
        producers pay list-append prices.  Callbacks must be
        delta-based (safe to invoke repeatedly).
        """
        self._flush_callbacks.append(callback)

    def flush(self) -> None:
        """Run every registered deferred-aggregation callback."""
        for callback in self._flush_callbacks:
            callback()

    # -- reading back --------------------------------------------------

    def value(self, name: str, **labels: str):
        """Current value of a counter/gauge, or ``None`` if absent."""
        self.flush()
        items = tuple(sorted(labels.items()))
        for kind in ("counter", "gauge"):
            metric = self.registry._metrics.get((kind, name, items))
            if metric is not None:
                return metric.value
        return None

    # -- exports -------------------------------------------------------

    def to_jsonl(self) -> str:
        """JSONL rendering (see :func:`repro.telemetry.export.to_jsonl`)."""
        self.flush()
        return _export.to_jsonl(self)

    def write_jsonl(self, path) -> None:
        """Write :meth:`to_jsonl` to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON as a dict (Perfetto-loadable)."""
        self.flush()
        return _export.chrome_trace(self)

    def write_chrome_trace(self, path) -> None:
        """Write :meth:`chrome_trace` to ``path`` as JSON."""
        import json
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh, sort_keys=True)


class NullTelemetry(Telemetry):
    """The disabled hub: every instrument is a shared no-op singleton.

    Hot paths cache the instruments it returns and call them freely;
    nothing is ever recorded and no per-call allocation happens.

    >>> tel = NullTelemetry()
    >>> tel.counter("hits").inc(10**6)
    >>> tel.value("hits") is None
    True
    >>> tel.to_jsonl().count("\\n")
    2
    """

    enabled = False

    def __init__(self):
        super().__init__("null")

    def counter(self, name: str, *, wall: bool = False,
                **labels: str) -> Counter:
        """The shared no-op counter."""
        return NULL_COUNTER

    def gauge(self, name: str, *, wall: bool = False,
              **labels: str) -> Gauge:
        """The shared no-op gauge."""
        return NULL_GAUGE

    def histogram(self, name: str, *, bounds: Iterable[float],
                  wall: bool = False, **labels: str) -> Histogram:
        """The shared no-op histogram."""
        return NULL_HISTOGRAM

    def span(self, name: str, start: float, end: float, *,
             track: str = "main", unit: str = "ms", wall: bool = False,
             **args) -> None:
        """Discard the span."""

    def counter_track(self, name: str, points, *, track: str = "counters",
                      unit: str = "slot") -> None:
        """Discard the counter series."""

    def register_flush(self, callback) -> None:
        """Discard the callback (nothing will ever read this hub)."""

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Run the block untimed."""
        yield


NULL_TELEMETRY = NullTelemetry()


def coalesce(telemetry: Telemetry | None) -> Telemetry:
    """``telemetry`` if given, else the shared :data:`NULL_TELEMETRY`.

    The one-liner every instrumented constructor uses to normalise its
    optional ``telemetry=None`` argument.

    >>> coalesce(None) is NULL_TELEMETRY
    True
    """
    return telemetry if telemetry is not None else NULL_TELEMETRY
