"""Composability verification: the paper's isolation claim, made testable.

aelite claims *composable* services: applications can be developed and
verified in isolation because sharing the NoC does not change their
temporal behaviour at all.  The strongest checkable form of that claim is
trace equality — every flit of an application injects and arrives at
exactly the same cycle whether or not any other application runs, and
regardless of how other applications behave.

:func:`compare_subsets` runs a configured network once with all
applications active and once per scenario (subsets, perturbed traffic) and
reports per-channel trace equality.  The comparison is phrased entirely in
terms of the :class:`~repro.simulation.backend.SimulationBackend`
protocol, so *any* backend can be put under the isolation microscope: the
TDM backends pass by construction; the best-effort baseline
(:mod:`repro.baseline`) measurably fails, which is the point of the
paper's Section VII comparison.

:func:`verify_timeline` is the *dynamic* form of the same claim — the
paper's strongest statement, that starting or stopping an application
does not perturb a running application *by a single cycle*.  It executes
a :class:`~repro.core.timeline.ReconfigurationTimeline` of live churn
twice: once in full and once restricted to the surviving channels (the
solo reference), then requires the survivors' flit traces to be
bit-identical across every reconfiguration epoch.  On the TDM flit
backend that holds by construction; on the best-effort baseline the same
timeline measurably diverges.

Both checks consume traces through the
:class:`~repro.simulation.monitors.TraceRecorder` interface only — the
one a result's record log reads out
(:meth:`~repro.simulation.backend.SimResult.composability_trace`) — so
they work unchanged over the compiled vectorised executor
(:mod:`repro.simulation.compiled`): its recorder compares two runs on
the interval arrays and builds a channel's tuples only against a
recorder of another kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.configuration import NocConfiguration
from repro.core.timeline import (ReconfigurationTimeline,
                                 lifetime_boundaries, replay_configuration)
from repro.simulation.backend import (FlitLevelBackend, SimRequest,
                                      SimulationBackend)
from repro.simulation.monitors import TraceRecorder
from repro.simulation.traffic import ConstantBitRate, TrafficPattern

__all__ = ["ComposabilityReport", "run_with_channels", "compare_subsets",
           "DynamicComposabilityReport", "replay_traffic",
           "verify_timeline"]

#: Builds the backend a comparison runs on; defaults to flit-level.
BackendFactory = Callable[[NocConfiguration], SimulationBackend]


@dataclass(frozen=True)
class ComposabilityReport:
    """Outcome of one isolation comparison.

    ``identical`` lists channels whose traces matched exactly between the
    reference run and the scenario run; ``diverged`` lists those that did
    not (for aelite this must always be empty).
    """

    scenario: str
    identical: tuple[str, ...]
    diverged: tuple[str, ...]

    @property
    def is_composable(self) -> bool:
        """True when every compared channel behaved identically."""
        return not self.diverged


def run_with_channels(config: NocConfiguration,
                      traffic: dict[str, TrafficPattern],
                      active_channels: set[str], n_slots: int, *,
                      backend_factory: BackendFactory | None = None
                      ) -> TraceRecorder:
    """Run one backend with only some channels offered traffic.

    Channels outside ``active_channels`` keep their slot reservations (the
    allocation is untouched — stopping an application does not reconfigure
    the network) but offer no traffic, exactly like a stopped application.
    ``backend_factory`` selects and configures the simulator (say
    ``lambda c: CycleAccurateBackend(c, clocking="mesochronous")``); the
    default is the fast flit-level backend.
    """
    backend = (backend_factory or FlitLevelBackend)(config)
    request = SimRequest(
        n_slots=n_slots,
        traffic={channel: pattern for channel, pattern in traffic.items()
                 if channel in active_channels})
    return backend.run(request).composability_trace()


def compare_subsets(config: NocConfiguration,
                    traffic: dict[str, TrafficPattern],
                    scenarios: dict[str, set[str]],
                    n_slots: int, *,
                    backend_factory: BackendFactory | None = None
                    ) -> list[ComposabilityReport]:
    """Compare a full run against every scenario's restricted run.

    Parameters
    ----------
    scenarios:
        Maps a scenario name to the set of channels active in it.  Each
        scenario is compared to the all-channels reference on the channels
        *common* to both (the survivors), which must be unaffected.
    backend_factory:
        Which backend to compare on (default: flit-level).  Passing the
        best-effort backend demonstrates where isolation is lost.
    """
    all_channels = set(traffic)
    reference = run_with_channels(config, traffic, all_channels, n_slots,
                                  backend_factory=backend_factory)
    reports: list[ComposabilityReport] = []
    for name, active in sorted(scenarios.items()):
        restricted = run_with_channels(config, traffic, active, n_slots,
                                       backend_factory=backend_factory)
        identical, diverged = reference.agreement(
            restricted, sorted(active & all_channels))
        reports.append(ComposabilityReport(
            scenario=name, identical=identical, diverged=diverged))
    return reports


@dataclass(frozen=True)
class DynamicComposabilityReport:
    """Outcome of one churn-vs-solo timeline comparison.

    ``survivors`` are the channels compared (present, with identical
    start slots and allocations, in both the full churn run and the solo
    reference); ``n_epochs`` counts the full timeline's reconfiguration
    epochs the survivors lived through.
    """

    scenario: str
    backend: str
    n_epochs: int
    survivors: tuple[str, ...]
    identical: tuple[str, ...]
    diverged: tuple[str, ...]
    #: Optional guarantee-conformance verdict over the survivors
    #: (:class:`~repro.telemetry.monitor.ConformanceReport`), populated
    #: when :func:`verify_timeline` runs with a ``monitor`` spec.
    #: Deliberately excluded from :meth:`to_record`, so monitored runs
    #: serialise byte-identically to unmonitored ones.
    conformance: object = field(default=None, compare=False, repr=False)

    @property
    def is_composable(self) -> bool:
        """True when every survivor behaved identically under churn."""
        return not self.diverged

    def to_record(self) -> dict[str, object]:
        """Deterministic JSON-ready verdict."""
        return {
            "scenario": self.scenario,
            "backend": self.backend,
            "n_epochs": self.n_epochs,
            "n_survivors": len(self.survivors),
            "survivors": list(self.survivors),
            "identical": len(self.identical),
            "diverged": list(self.diverged),
            "composable": self.is_composable,
        }


def replay_traffic(timeline: ReconfigurationTimeline
                   ) -> dict[str, TrafficPattern]:
    """CBR traffic at every timeline channel's required rate.

    Patterns are interpreted relative to each channel's start slot, so
    one pattern per channel covers restarts too.
    """
    return {
        name: ConstantBitRate.from_rate(
            ca.spec.throughput_bytes_per_s,
            timeline.frequency_hz, timeline.fmt)
        for name, ca in sorted(timeline.channel_allocations().items())}


def verify_timeline(timeline: ReconfigurationTimeline,
                    traffic: dict[str, TrafficPattern], *,
                    n_slots: int | None = None,
                    backend_factory: BackendFactory | None = None,
                    scenario: str = "churn-vs-solo",
                    monitor: object | None = None
                    ) -> DynamicComposabilityReport:
    """Replay a churn timeline and check survivors against a solo run.

    The timeline is executed twice on the same backend: once in full
    (every recorded start/stop applied at its slot) and once restricted
    to the survivors: the channels still running when the simulated
    window ends, even if the full timeline stops them later.  A TDM
    backend must produce bit-identical survivor traces; the best-effort
    baseline (:class:`~repro.simulation.backend.BestEffortBackend` via
    ``backend_factory``) demonstrably does not.

    ``monitor`` (a :class:`~repro.telemetry.monitor.MonitorSpec`) adds
    the guarantee-conformance watchdog: the churn run's observed
    latencies and delivered throughput, restricted to the survivors
    (whose allocations never change, so the static bounds apply), are
    checked against the analytical bounds and attached as
    ``report.conformance``.  The canonical record is unaffected.
    """
    backend = (backend_factory or FlitLevelBackend)(
        replay_configuration(timeline))
    if n_slots is None:
        n_slots = timeline.horizon_slots
    survivors = tuple(sorted(timeline.survivors(until=n_slots)))
    churn_result = backend.run(SimRequest(
        n_slots=n_slots, traffic=traffic, timeline=timeline))
    churn = churn_result.composability_trace()
    survivor_set = set(survivors)
    solo = backend.run(SimRequest(
        n_slots=n_slots,
        traffic={ch: pattern for ch, pattern in traffic.items()
                 if ch in survivor_set},
        timeline=timeline.restricted_to(survivors))).composability_trace()
    identical, diverged = churn.agreement(solo, survivors)
    # Count only epochs the run actually entered (boundaries beyond a
    # truncated window were never simulated).
    n_epochs = len(lifetime_boundaries(timeline.channel_intervals(),
                                       n_slots))
    conformance = None
    if monitor is not None and monitor is not False:
        from repro.telemetry.monitor import MonitorSpec, timeline_conformance
        if monitor is True:
            monitor = MonitorSpec()
        conformance = timeline_conformance(
            timeline, churn_result, n_slots=n_slots, channels=survivors,
            spec=monitor, scenario=scenario)
    return DynamicComposabilityReport(
        scenario=scenario, backend=backend.name,
        n_epochs=n_epochs, survivors=survivors,
        identical=identical, diverged=diverged,
        conformance=conformance)
