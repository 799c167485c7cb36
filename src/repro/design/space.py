"""The joint design space and the workloads that drive its search.

A *design problem* is a workload — an explicit
:class:`~repro.core.application.UseCase`, or a
:class:`~repro.service.churn.ChurnSpec` profile translated into its
expected concurrent session set at a target admission rate
(:func:`workload_from_churn`, Little's law) — and a
:class:`DesignSpace`: the cross product of topology family x extent x
NIs-per-router x slot-table size x word format x mapping strategy.

:class:`DesignSpec` is the per-candidate evaluation recipe that rides
inside a campaign :class:`~repro.campaign.spec.ScenarioSpec` (mode
``"design"``), so candidate evaluation fans out over the existing
multiprocessing campaign runner unchanged; :meth:`DesignSpace.scenarios`
is the one place a problem becomes those scenarios.  Everything here is
a frozen, picklable value.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.campaign.spec import ScenarioSpec, TopologySpec
from repro.core.application import Application, UseCase
from repro.core.connection import MB, ChannelSpec
from repro.core.exceptions import ConfigurationError
from repro.service.churn import ChurnSpec

__all__ = ["DesignSpec", "Candidate", "DesignSpace", "workload_from_churn",
           "provisioned_use_case", "section7_demo_use_case", "demo_space",
           "MAPPING_STRATEGIES"]

MAPPING_STRATEGIES = ("optimized", "traffic_balanced", "round_robin",
                      "communication_clustered")


@dataclass(frozen=True)
class DesignSpec:
    """How to evaluate one design candidate (rides in a ScenarioSpec).

    The topology, slot-table size and seed come from the surrounding
    scenario; this carries the workload and everything else the worker
    needs to rebuild the evaluation from scratch.  Built by
    :meth:`DesignSpace.scenarios`, which copies the search interval off
    the space.
    """

    use_case: UseCase
    data_width: int = 32
    mapping: str = "optimized"
    min_frequency_mhz: float = 100.0
    max_frequency_mhz: float = 1000.0
    tolerance_mhz: float = 10.0
    prune: bool = True
    #: Fault-tolerance headroom: every channel requirement is inflated
    #: by this fraction during evaluation, so the dimensioned network
    #: keeps slack for degraded-mode re-allocation after failures.
    spare_capacity: float = 0.0

    def __post_init__(self) -> None:
        if not self.use_case.channels:
            raise ConfigurationError(
                f"design workload {self.use_case.name!r} has no channels")
        if self.mapping not in MAPPING_STRATEGIES:
            raise ConfigurationError(
                f"unknown mapping strategy {self.mapping!r}; expected one "
                f"of {MAPPING_STRATEGIES}")
        if self.data_width < 8:
            raise ConfigurationError("data_width must be >= 8")
        if not 0 < self.min_frequency_mhz < self.max_frequency_mhz:
            raise ConfigurationError("bad frequency interval")
        if self.tolerance_mhz <= 0:
            raise ConfigurationError("tolerance must be positive")
        if self.spare_capacity < 0:
            raise ConfigurationError("spare_capacity must be >= 0")


@dataclass(frozen=True)
class Candidate:
    """One point of the joint space, before evaluation."""

    topology: TopologySpec
    table_size: int
    data_width: int = 32
    mapping: str = "optimized"

    @property
    def label(self) -> str:
        """Deterministic scenario/run identifier."""
        return (f"{self.topology.label}-t{self.table_size}"
                f"-w{self.data_width}-{self.mapping}")


@dataclass(frozen=True)
class DesignSpace:
    """The cross product the explorer enumerates.

    Deliberately explicit (a tuple of topology specs rather than ranges)
    so spaces are values: picklable, comparable, and reportable.
    """

    topologies: tuple[TopologySpec, ...]
    table_sizes: tuple[int, ...] = (8, 16, 32)
    data_widths: tuple[int, ...] = (32,)
    mappings: tuple[str, ...] = ("optimized",)
    min_frequency_mhz: float = 100.0
    max_frequency_mhz: float = 1000.0
    tolerance_mhz: float = 10.0
    prune: bool = True
    #: Fault-tolerance headroom applied to every candidate evaluation
    #: (see :attr:`DesignSpec.spare_capacity`): dimension the network
    #: as if every channel asked for ``1 + spare_capacity`` times its
    #: throughput, so post-failure re-allocation has room to reroute.
    spare_capacity: float = 0.0

    def __post_init__(self) -> None:
        if not self.topologies:
            raise ConfigurationError("design space needs >= 1 topology")
        if not self.table_sizes or any(t < 2 for t in self.table_sizes):
            raise ConfigurationError("table sizes must all be >= 2")
        if not self.data_widths:
            raise ConfigurationError("design space needs >= 1 data width")
        for strategy in self.mappings:
            if strategy not in MAPPING_STRATEGIES:
                raise ConfigurationError(
                    f"unknown mapping strategy {strategy!r}")
        if self.spare_capacity < 0:
            raise ConfigurationError("spare_capacity must be >= 0")

    def candidates(self) -> tuple[Candidate, ...]:
        """The full ordered candidate list (label-sorted, unique)."""
        out = [Candidate(topology=topo, table_size=size, data_width=width,
                         mapping=strategy)
               for topo in self.topologies
               for size in self.table_sizes
               for width in self.data_widths
               for strategy in self.mappings]
        labels = [c.label for c in out]
        if len(set(labels)) != len(labels):
            raise ConfigurationError("duplicate candidates in design space")
        return tuple(sorted(out, key=lambda c: c.label))

    def scenarios(self, use_case: UseCase) -> tuple[ScenarioSpec, ...]:
        """One ``mode="design"`` scenario per candidate, for ``use_case``.

        The only candidate -> scenario expansion: every design campaign
        (the explorer's, the ``design_campaign`` preset) is this tuple.
        """
        return tuple(
            ScenarioSpec(
                name=candidate.label, mode="design",
                topology=candidate.topology,
                table_size=candidate.table_size,
                design=DesignSpec(
                    use_case=use_case, data_width=candidate.data_width,
                    mapping=candidate.mapping,
                    min_frequency_mhz=self.min_frequency_mhz,
                    max_frequency_mhz=self.max_frequency_mhz,
                    tolerance_mhz=self.tolerance_mhz, prune=self.prune,
                    spare_capacity=self.spare_capacity))
            for candidate in self.candidates())


def workload_from_churn(churn: ChurnSpec, *,
                        target_admission_rate: float = 1.0,
                        seed: int = 2009,
                        n_ips: int | None = None) -> UseCase:
    """Translate a churn profile into a static dimensioning workload.

    By Little's law the expected number of concurrently open sessions is
    ``arrival_rate x mean_duration``; scaled by the target admission
    rate, that is the steady-state channel population a network must be
    dimensioned for.  Each expected-concurrent session draws its QoS
    class from the weighted mix and endpoints from a synthetic IP
    population, all deterministically from ``seed`` — so churn-driven
    and use-case-driven design problems flow through the same explorer.
    """
    if not 0 < target_admission_rate <= 1:
        raise ConfigurationError(
            "target_admission_rate must be in (0, 1]")
    concurrency = max(1, math.ceil(churn.arrival_rate_per_s *
                                   churn.mean_duration_s *
                                   target_admission_rate))
    n_ips = n_ips or max(4, 2 * math.ceil(math.sqrt(concurrency)))
    if n_ips < 2:
        raise ConfigurationError("workload needs >= 2 IPs")
    rng = random.Random(seed)
    ips = [f"ip{i:02d}" for i in range(n_ips)]
    classes = list(churn.classes)
    weights = [c.weight for c in classes]
    by_class: dict[str, list[ChannelSpec]] = {}
    for index in range(concurrency):
        qos = rng.choices(classes, weights)[0]
        src, dst = rng.sample(ips, 2)
        by_class.setdefault(qos.name, []).append(ChannelSpec(
            name=f"{qos.name}_s{index:04d}", src_ip=src, dst_ip=dst,
            throughput_bytes_per_s=qos.throughput_mb_s * MB,
            max_latency_ns=qos.max_latency_ns, application=qos.name))
    applications = tuple(Application(name, tuple(channels))
                         for name, channels in sorted(by_class.items()))
    return UseCase(
        f"churn{churn.n_sessions}a{target_admission_rate:g}s{seed}",
        applications)


def provisioned_use_case(use_case: UseCase,
                         spare_capacity: float) -> UseCase:
    """The workload with every throughput inflated for fault headroom.

    ``spare_capacity=0.25`` dimensions the network as if every channel
    asked for 25 % more bandwidth than it needs — the slack a
    degraded-mode re-allocation draws on when failures concentrate the
    surviving traffic onto fewer links.  Latency requirements are
    untouched (a fault does not change what the application can
    tolerate).

    >>> from repro.core.application import Application, UseCase
    >>> from repro.core.connection import MB, ChannelSpec
    >>> uc = UseCase("w", (Application("a", (
    ...     ChannelSpec("c", "x", "y", 8 * MB, application="a"),)),))
    >>> provisioned_use_case(uc, 0.25).channels[0] \\
    ...     .throughput_bytes_per_s / MB
    10.0
    """
    if spare_capacity < 0:
        raise ConfigurationError("spare_capacity must be >= 0")
    if spare_capacity == 0:
        return use_case
    factor = 1.0 + spare_capacity
    applications = tuple(
        Application(app.name,
                    tuple(ch.scaled(factor) for ch in app.channels))
        for app in use_case.applications)
    return UseCase(f"{use_case.name}+sc{spare_capacity:g}", applications)


def section7_demo_use_case(seed: int = 2009) -> UseCase:
    """The Section VII workload at the scale of the paper's 2x2 point.

    Same generator, same distributions and feasibility negotiation as
    the full 200-connection instance, scaled to the 2x2/500 MHz design
    the ISSUE's dimensioning demo has to rediscover: 16 IPs, four
    applications of eight connections each.
    """
    from repro.usecase.generator import (Section7Parameters,
                                         generate_section7)
    params = Section7Parameters(
        seed=seed, cols=2, rows=2, nis_per_router=4, n_ips=16,
        n_applications=4, connections_per_application=8,
        table_size=16, frequency_hz=500e6)
    return generate_section7(params).use_case


def demo_space() -> DesignSpace:
    """The demo candidate grid around the paper's operating point.

    Six topology families that can all host the 16-IP demo workload
    (>= 16 NIs each), three slot-table sizes, one word format, optimized
    mapping — 18 candidates, of which the 2x2 concentrated mesh is the
    least silicon whenever it is feasible (fewest routers and fewest
    NIs in the grid).  The frequency ceiling is the paper's 500 MHz
    clock, so the search asks exactly the Section VII question: the
    cheapest network that carries the workload at or below that clock.
    """
    return DesignSpace(
        topologies=(
            TopologySpec(kind="mesh", cols=2, rows=2, nis_per_router=4),
            TopologySpec(kind="mesh", cols=3, rows=2, nis_per_router=3),
            TopologySpec(kind="mesh", cols=3, rows=3, nis_per_router=2),
            TopologySpec(kind="cmesh", cols=4, rows=3, nis_per_router=4),
            TopologySpec(kind="torus", cols=3, rows=3, nis_per_router=2),
            TopologySpec(kind="ring", cols=6, nis_per_router=3),
        ),
        table_sizes=(8, 16, 32),
        data_widths=(32,),
        mappings=("optimized",),
        min_frequency_mhz=100.0,
        max_frequency_mhz=500.0,
        tolerance_mhz=10.0)
