"""The simulation backend protocol: the one way to run a simulation.

aelite is flit-synchronous — whatever the clocking underneath, the
network is one logical machine whose unit of time is the flit cycle — so
one request (a horizon in slots, traffic per channel, optionally a
reconfiguration timeline) drives all three models: the flit-level TDM
executor (:mod:`repro.simulation.compiled`; its per-flit oracle
:mod:`repro.simulation.flitsim` is called directly, never through a
backend), the cycle-accurate multi-clock model
(:mod:`repro.simulation.cyclesim`) and the best-effort wormhole engine
(:mod:`repro.baseline.be_network`).  None of them has an entry point of
its own; this module is the only one under ``src/repro`` that imports
them, and it does so inside ``run``, so importing the package loads
neither numpy nor an engine:

* :class:`SimRequest` — *what* to simulate: a horizon in flit cycles, a
  traffic assignment, a seed for backends with randomised state
  (mesochronous phases, plesiochronous drift) and an optional operating
  frequency override for backends that support retiming;
* :class:`SimResult` — *what came out*, in one schema: the shared
  :class:`~repro.simulation.monitors.StatsCollector` record log, the
  composability trace (read off that log, the same way for every
  backend), latency/throughput summaries, a
  backend-independent *logical flit schedule* for equivalence checking,
  and a JSON-serializable record for campaign aggregation;
* :class:`SimulationBackend` — the protocol itself: construct with a
  validated :class:`~repro.core.configuration.NocConfiguration` plus
  backend-specific options (validated there), then ``run(request)`` any
  number of times.  Each request is vetted exactly once, before an
  engine is imported: a timeline request by
  :meth:`~repro.core.timeline.ReconfigurationTimeline.check_replay`, a
  static one against the configuration's channel set.  What runs is
  then one lifetime table — ``channel → ((start, stop, allocation),
  …)``, the timeline's or :func:`~repro.core.timeline.static_lifetimes`
  — which every engine, and :func:`check_lifetime_contention`, reads.

Backends are registered by name (``"flit"``, ``"cycle"``, ``"be"``) so
declarative campaign specs can name them without importing simulator
classes.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Mapping

from repro.clocking.domains import CLOCKING_MODES
from repro.core.configuration import NocConfiguration
from repro.core.exceptions import (ConfigurationError, SimulationError,
                                   require_finite_positive, require_whole)
from repro.core.timeline import (ReconfigurationTimeline,
                                 lifetime_boundaries, static_lifetimes)
from repro.core.words import WordFormat
from repro.simulation.monitors import (LatencySummary, StatsCollector,
                                       TraceRecorder, latency_digest)
from repro.simulation.traffic import TrafficPattern
from repro.telemetry.hub import coalesce

__all__ = ["SimRequest", "SimResult", "SimulationBackend",
           "FlitLevelBackend", "CycleAccurateBackend", "BestEffortBackend",
           "available_backends", "create_backend"]


@dataclass(frozen=True)
class SimRequest:
    """One simulation job, independent of which backend executes it.

    Parameters
    ----------
    n_slots:
        Horizon in flit cycles (TDM slots for the GS simulators, wormhole
        ticks for the best-effort baseline).
    traffic:
        Traffic pattern per channel name; channels absent from the map
        stay silent but keep their resource reservations.
    seed:
        Seed for backends with randomised physical state (mesochronous
        phase offsets, plesiochronous drift).  Purely logical backends
        ignore it, so equal requests stay comparable across backends.
    frequency_hz:
        Operating-frequency override for backends that support retiming
        without reallocation (the best-effort baseline's frequency
        sweep).  TDM backends reject an override: their slot tables are
        allocated for the configuration's frequency.
    timeline:
        Optional :class:`~repro.core.timeline.ReconfigurationTimeline`
        of live start/stop transitions to execute instead of a static
        channel set.  The channel universe then comes from the
        timeline's events; traffic names must refer to timeline
        channels.  Backends that cannot reconfigure mid-run (the
        cycle-accurate model) reject timeline requests.
    """

    n_slots: int
    traffic: Mapping[str, TrafficPattern] = field(default_factory=dict)
    seed: int = 1
    frequency_hz: float | None = None
    timeline: ReconfigurationTimeline | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_slots",
                           require_whole("n_slots", self.n_slots, 1))
        if self.frequency_hz is not None:
            require_finite_positive("frequency_hz override", self.frequency_hz)
        if self.timeline is not None and \
                self.n_slots > self.timeline.horizon_slots:
            raise ConfigurationError(
                f"n_slots {self.n_slots} exceeds the timeline horizon "
                f"of {self.timeline.horizon_slots} slots")


def _rounded(summary: LatencySummary) -> dict[str, float]:
    """A summary's five statistics at a record's fixed precision."""
    return {"min": round(summary.minimum, 3),
            "mean": round(summary.mean, 3), "p50": round(summary.p50, 3),
            "p99": round(summary.p99, 3), "max": round(summary.maximum, 3)}


@dataclass
class SimResult:
    """Uniform result schema shared by every backend.

    ``stats`` is the ground truth: the per-channel injection/delivery
    record log both simulators already emit.  Everything else — traces,
    summaries, logical schedules, campaign records — derives from it,
    which is what makes results comparable across backends.
    """

    backend: str
    stats: StatsCollector
    simulated_slots: int
    frequency_hz: float
    fmt: WordFormat
    meta: dict[str, object] = field(default_factory=dict)

    @property
    def period_ps(self) -> int:
        """Word-clock period of the run."""
        return round(1e12 / self.frequency_hz)

    @property
    def simulated_ns(self) -> float:
        """Simulated wall-clock time."""
        return (self.simulated_slots * self.fmt.flit_size /
                self.frequency_hz * 1e9)

    # -- derived views ---------------------------------------------------------

    def channel_throughput_bytes_per_s(self, channel: str, *,
                                       warmup_fraction: float = 0.1
                                       ) -> float:
        """Delivered payload rate of one channel after warm-up.

        ``warmup_fraction`` is the share of the run skipped before
        measuring, in ``[0, 1)``; anything else is refused (a negative
        one would open the window before the run).
        """
        if not 0 <= warmup_fraction < 1:
            raise ConfigurationError(
                f"warmup_fraction must lie in [0, 1), got "
                f"{warmup_fraction!r}")
        total_ps = int(self.simulated_slots * self.fmt.flit_size *
                       1e12 / self.frequency_hz)
        start = int(total_ps * warmup_fraction)
        return self.stats.channel(channel).throughput_bytes_per_s(
            start, total_ps)

    def latency_summary(self) -> LatencySummary | None:
        """Latency order statistics over all channels."""
        latencies = self.stats.all_latencies_ns()
        if not latencies:
            return None
        return LatencySummary.of(latencies)

    def logical_schedule(self, channel: str
                         ) -> tuple[tuple[int, int, int], ...]:
        """Backend-independent flit schedule of one channel.

        Each delivered message contributes ``(message_id, created_cycle,
        latency_cycles)``, ordered by creation then id.  Latency is
        measured on the wall clock and quantised to word cycles, so
        flit-level and cycle-accurate runs of the same configuration must
        produce identical schedules (the flit-synchronous abstraction is
        exact) regardless of each backend's internal cycle numbering.
        """
        entries = [
            (d.created_cycle, d.message_id,
             round(d.latency_ps / self.period_ps))
            for d in self.stats.channel(channel).deliveries]
        entries.sort()
        return tuple((mid, created, lat) for created, mid, lat in entries)

    def composability_trace(self) -> TraceRecorder:
        """The ``(message_id, final_injection_slot, delivery_cycle)``
        trace of every channel, read off the record log (see
        :meth:`~repro.simulation.monitors.StatsCollector.
        composability_trace`) — the same read for every backend."""
        return self.stats.composability_trace()

    # -- presentation ----------------------------------------------------------

    def summary(self) -> str:
        """One-line latency digest for campaign logs and the REPL.

        Every backend names its execution path in ``meta["executor"]``
        (``"compiled"`` for the flit backend, ``"per-flit"`` for its
        oracle, ``"cycle-accurate"``, ``"wormhole"``); the digest label
        carries it so logs show *which* engine produced the numbers.
        """
        label = self.backend
        executor = self.meta.get("executor")
        if executor:
            label = f"{label}[{executor}]"
        return latency_digest(label, self.stats,
                              self.simulated_slots, "slots",
                              self.frequency_hz)

    def __repr__(self) -> str:
        return f"SimResult({self.summary()})"

    def to_record(self) -> dict[str, object]:
        """JSON-serializable aggregate for campaign trajectories.

        Floats are rounded to fixed precision so serialisation is
        byte-stable across processes and platforms.
        """
        channels: dict[str, dict[str, object]] = {}
        # Each channel's sample is sorted once; the overall summary
        # sorts the concatenated runs, which Timsort merges (the same
        # ascending sequence, so the same sum and mean, at under half
        # the cost of sorting every latency afresh; heapq.merge is
        # slower than either).
        runs: list[list[float]] = []
        for name in self.stats.channels:
            messages, flits, delivered_bytes, latencies = \
                self.stats.channel_aggregate(name)
            entry: dict[str, object] = {
                "messages": messages,
                "flits": flits,
                "delivered_bytes": delivered_bytes,
            }
            if messages:
                runs.append(sorted(latencies))
                entry["latency_ns"] = _rounded(
                    LatencySummary.of_sorted(runs[-1]))
            channels[name] = entry
        overall = sorted(chain.from_iterable(runs))
        return {
            "backend": self.backend,
            "simulated_slots": self.simulated_slots,
            "frequency_mhz": round(self.frequency_hz / 1e6, 3),
            "messages_delivered": self.stats.delivery_count(),
            "latency_ns": _rounded(LatencySummary.of_sorted(overall))
            if overall else None,
            "channels": channels,
        }


class SimulationBackend(ABC):
    """Protocol every simulator adapter implements.

    A backend binds one validated configuration plus backend-specific
    options at construction; :meth:`run` is then a pure function of the
    request (every call builds fresh engine state), so one backend
    instance can serve many requests — the property the campaign engine
    relies on.
    """

    #: Registry key; subclasses override.
    name: str = "abstract"

    def __init__(self, config: NocConfiguration, *, telemetry=None):
        self.config = config
        #: Instrumentation hub; the shared no-op singleton by default.
        self.telemetry = coalesce(telemetry)

    @abstractmethod
    def run(self, request: SimRequest) -> SimResult:
        """Execute one request and return the uniform result."""

    def _vet(self, request: SimRequest, **replay_fields
             ) -> dict[str, TrafficPattern]:
        """The one vetting of a request; returns its traffic as a dict.

        A timeline request is checked by
        :meth:`~repro.core.timeline.ReconfigurationTimeline.check_replay`
        against this backend's configuration plus the ``replay_fields``
        that bind this backend only (TDM schedules cannot be retimed,
        so ``frequency_hz``; the baseline counts ``units="ticks"``); a
        static one against the configuration's channel set.
        """
        traffic = dict(request.traffic)
        if request.timeline is None:
            self._check_traffic(request)
        else:
            request.timeline.check_replay(
                request.n_slots, traffic, topology=self.config.topology,
                table_size=self.config.table_size, fmt=self.config.fmt,
                holder="configuration", **replay_fields)
        return traffic

    def _lifetimes(self, request: SimRequest) -> dict:
        """The lifetime table a vetted request replays: its timeline's
        (:meth:`~repro.core.timeline.ReconfigurationTimeline.
        channel_intervals`), or for a static request every allocated
        channel over the whole horizon."""
        if request.timeline is None:
            return static_lifetimes(self.config.allocation, request.n_slots)
        return request.timeline.channel_intervals()

    def _check_traffic(self, request: SimRequest) -> None:
        unknown = sorted(set(request.traffic) -
                         set(self.config.allocation.channels))
        if unknown:
            raise ConfigurationError(
                f"traffic names channels outside the configuration: "
                f"{unknown}")

    def _reject_frequency_override(self, request: SimRequest) -> None:
        if request.frequency_hz is not None and \
                request.frequency_hz != self.config.frequency_hz:
            raise ConfigurationError(
                f"backend {self.name!r} cannot retime a TDM allocation; "
                "reallocate at the new frequency instead")

    def __repr__(self) -> str:
        return (f"{type(self).__name__}("
                f"{len(self.config.allocation.channels)} channels)")


def check_lifetime_contention(lifetimes: Mapping, n_slots: int,
                              table_size: int) -> None:
    """Raise unless no two flits a lifetime table may send share a link
    slot within the first ``n_slots`` slots.

    A channel incarnation that holds table slot ``s`` over ``[start,
    stop)`` — clipped to the window — and reaches a link ``k`` slots
    after injection occupies that link at the absolute slots of
    ``[start + k, stop + k)`` that are ``s + k`` modulo the table size,
    including the flits still in flight after it stops.  Two
    incarnations (of any names) that share such a slot raise
    :class:`~repro.core.exceptions.SimulationError`.  Reservation-level,
    so it needs no traffic: a valid static configuration and a valid
    timeline whose stopped channels have drained before their link
    slots are reused pass.
    """
    held: dict[tuple, list[tuple[int, int, str]]] = {}
    for name, spans in lifetimes.items():
        for start, stop, ca in spans:
            stop = min(stop, n_slots)
            if start >= stop:
                continue
            for link, shift in zip(ca.path.links, ca.path.link_shifts):
                for slot in ca.slots:
                    phase = (slot + shift) % table_size
                    holders = held.setdefault((link.key, phase), [])
                    for low, high, holder in holders:
                        first = max(low, start + shift)
                        first += (phase - first) % table_size
                        if first < min(high, stop + shift):
                            raise SimulationError(
                                f"link {link.key} carries two flits in "
                                f"absolute slot {first}: {holder!r} and "
                                f"{name!r}")
                    holders.append((start + shift, stop + shift, name))


class FlitLevelBackend(SimulationBackend):
    """Fast flit-level TDM simulation (the paper's aelite network).

    Runs the request's lifetime table through the compiled vectorised
    executor (:func:`repro.simulation.compiled.execute`), which runs the
    TDM schedule and nothing else; ``meta["executor"]`` names it, and
    the epoch count and the ``epochs`` spans come from the table's
    boundaries, here.  Its oracle, :func:`repro.simulation.flitsim.
    execute`, and the contention check, :func:`check_lifetime_contention`,
    read the same table and are called directly by whoever wants them:
    the slot tables fix every flit's link slots at configuration time,
    so a run has one executor and no checking mode.
    """

    name = "flit"

    def run(self, request: SimRequest) -> SimResult:
        self._reject_frequency_override(request)
        config = self.config
        n_slots = request.n_slots
        patterns = self._vet(request, frequency_hz=config.frequency_hz)
        lifetimes = self._lifetimes(request)
        from repro.simulation.compiled import execute
        telemetry = self.telemetry
        stats, meta = execute(config, lifetimes, n_slots, patterns,
                              telemetry)
        boundaries = lifetime_boundaries(lifetimes, n_slots)
        meta["n_epochs"] = len(boundaries)
        if telemetry.enabled:
            telemetry.counter("executor.epochs").inc(len(boundaries))
            for index, (start, end) in enumerate(
                    zip(boundaries, (*boundaries[1:], n_slots))):
                telemetry.span(f"epoch {index}", start, end, track="epochs",
                               unit="slot", slots=end - start)
        return SimResult(
            backend=self.name, stats=stats, simulated_slots=n_slots,
            frequency_hz=config.frequency_hz, fmt=config.fmt, meta=meta)


class CycleAccurateBackend(SimulationBackend):
    """Detailed word-level simulation on the multi-clock engine."""

    name = "cycle"

    def __init__(self, config: NocConfiguration, *,
                 clocking: str = "synchronous",
                 plesiochronous_ppm: float = 200.0,
                 telemetry=None):
        super().__init__(config, telemetry=telemetry)
        if clocking not in CLOCKING_MODES:
            raise ConfigurationError(
                f"unknown clocking mode {clocking!r}; expected one of "
                f"{CLOCKING_MODES}")
        if not 0 <= plesiochronous_ppm < math.inf:
            raise ConfigurationError(
                f"plesiochronous_ppm must be a finite number >= 0, got "
                f"{plesiochronous_ppm!r}")
        self.clocking = clocking
        self.plesiochronous_ppm = plesiochronous_ppm

    def run(self, request: SimRequest) -> SimResult:
        if request.timeline is not None:
            raise ConfigurationError(
                "backend 'cycle' cannot execute reconfiguration "
                "timelines; replay on 'flit' (TDM) or 'be'")
        self._check_traffic(request)
        self._reject_frequency_override(request)
        from repro.simulation.cyclesim import DetailedNetwork
        network = DetailedNetwork(
            self.config, clocking=self.clocking,
            mesochronous_seed=request.seed,
            plesiochronous_ppm=self.plesiochronous_ppm,
            traffic=dict(request.traffic),
            horizon_slots=request.n_slots)
        result = network.run(request.n_slots)
        self.telemetry.counter("executor.dispatch",
                               path="cycle-accurate").inc()
        return SimResult(
            backend=self.name, stats=result.stats,
            simulated_slots=request.n_slots,
            frequency_hz=result.frequency_hz, fmt=self.config.fmt,
            meta={"clocking": self.clocking,
                  "executor": "cycle-accurate",
                  "fifo_max_occupancy": result.fifo_max_occupancy,
                  "wrapper_firings": result.wrapper_firings,
                  "ni_counters": result.ni_counters})


class BestEffortBackend(SimulationBackend):
    """Æthereal-style best-effort wormhole baseline (no TDM).

    Without slot tables it can be retimed: a request's
    ``frequency_hz`` runs it at that frequency instead of the
    configuration's.
    """

    name = "be"

    def __init__(self, config: NocConfiguration, *,
                 buffer_flits: int = 4,
                 max_packet_flits: int = 4,
                 telemetry=None):
        super().__init__(config, telemetry=telemetry)
        for name, value in (("buffer_flits", buffer_flits),
                            ("max_packet_flits", max_packet_flits)):
            if isinstance(value, bool) or not isinstance(value, int) or \
                    value < 1:
                raise ConfigurationError(
                    f"{name} must be a positive int, got {value!r}")
        self.buffer_flits = buffer_flits
        self.max_packet_flits = max_packet_flits

    def run(self, request: SimRequest) -> SimResult:
        patterns = self._vet(request, units="ticks")
        lifetimes = self._lifetimes(request)
        from repro.baseline.be_network import BeNetworkSimulator
        engine = BeNetworkSimulator(
            self.config, frequency_hz=request.frequency_hz,
            buffer_flits=self.buffer_flits,
            max_packet_flits=self.max_packet_flits)
        stats = engine.run(lifetimes, patterns, request.n_slots)
        self.telemetry.counter("executor.dispatch",
                               path="wormhole").inc()
        return SimResult(
            backend=self.name, stats=stats,
            simulated_slots=request.n_slots,
            frequency_hz=engine.frequency_hz, fmt=self.config.fmt,
            meta={"buffer_flits": self.buffer_flits,
                  "max_packet_flits": self.max_packet_flits,
                  "executor": "wormhole"})


_REGISTRY: dict[str, Callable[..., SimulationBackend]] = {
    FlitLevelBackend.name: FlitLevelBackend,
    CycleAccurateBackend.name: CycleAccurateBackend,
    BestEffortBackend.name: BestEffortBackend,
}


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`create_backend`, sorted."""
    return tuple(sorted(_REGISTRY))


def create_backend(kind: str, config: NocConfiguration,
                   **options) -> SimulationBackend:
    """Instantiate a registered backend by name."""
    try:
        factory = _REGISTRY[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {kind!r}; expected one of "
            f"{available_backends()}")
    return factory(config, **options)
