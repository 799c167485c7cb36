"""Declarative scenario specifications for simulation campaigns.

A *campaign* is a grid of simulation runs: topology × workload ×
traffic mix × backend/clocking scheme × seed.  Every axis is described
by a small frozen dataclass, so a campaign spec is a plain value —
picklable (it crosses process boundaries in the parallel runner),
hashable where it matters, and serialisable into the aggregated report
for provenance.

The specs are deliberately self-contained: a :class:`RunSpec` carries
everything needed to *rebuild* its configuration and traffic from
scratch inside a worker process.  Nothing simulated is ever shipped
between processes except the JSON-ready result record, which is what
makes serial and parallel execution byte-identical.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

from repro.clocking.domains import CLOCKING_MODES
from repro.core.application import Application, UseCase
from repro.core.configuration import NocConfiguration, configure
from repro.core.connection import MB, ChannelSpec
from repro.core.exceptions import (ConfigurationError,
                                   require_finite_positive, require_whole)
from repro.faults.model import FaultSpec
from repro.service.churn import ChurnSpec
from repro.simulation.traffic import (BernoulliMessages, Saturating,
                                      TrafficPattern)
from repro.topology.builders import concentrated_mesh, mesh, ring, torus
from repro.topology.graph import Topology
from repro.topology.mapping import Mapping, round_robin

__all__ = ["TopologySpec", "WorkloadSpec", "TrafficSpec", "SyntheticSpec",
           "ScenarioSpec", "RunSpec", "CampaignSpec", "scenario_grid",
           "derive_seed"]


def derive_seed(base_seed: int, *labels: object) -> int:
    """Stable 63-bit seed from a base seed and a label path.

    Uses SHA-256 rather than :func:`hash` so the derivation is identical
    across processes (``PYTHONHASHSEED`` does not leak in) and across
    runs — the foundation of campaign determinism.

    >>> derive_seed(2009, "demo/seed1") == derive_seed(2009, "demo/seed1")
    True
    >>> derive_seed(2009, "a") != derive_seed(2009, "b")
    True
    """
    digest = hashlib.sha256(
        ":".join([str(base_seed), *map(str, labels)]).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class TopologySpec:
    """A named topology family plus its extent parameters."""

    kind: str = "mesh"        # mesh | cmesh | ring | line | torus | single
    cols: int = 2
    rows: int = 2
    nis_per_router: int = 1
    pipeline_stages: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _TOPOLOGY_BUILDERS:
            raise ConfigurationError(
                f"unknown topology kind {self.kind!r}; expected one of "
                f"{sorted(_TOPOLOGY_BUILDERS)}")
        for name, minimum in (("cols", 1), ("rows", 1),
                              ("nis_per_router", 0), ("pipeline_stages", 0)):
            require_whole(name, getattr(self, name), minimum)

    @property
    def label(self) -> str:
        """Compact identifier used in run ids."""
        if self.kind == "single":
            return f"single{self.nis_per_router}"
        extent = (f"{self.cols}" if self.kind in ("ring", "line")
                  else f"{self.cols}x{self.rows}")
        return (f"{self.kind}{extent}"
                f"n{self.nis_per_router}p{self.pipeline_stages}")

    def build(self) -> Topology:
        """Construct the topology graph."""
        return _TOPOLOGY_BUILDERS[self.kind](self)


_TOPOLOGY_BUILDERS: dict[str, Callable[[TopologySpec], Topology]] = {
    "mesh": lambda s: mesh(s.cols, s.rows,
                           nis_per_router=s.nis_per_router,
                           pipeline_stages=s.pipeline_stages),
    "cmesh": lambda s: concentrated_mesh(
        s.cols, s.rows, nis_per_router=s.nis_per_router,
        pipeline_stages=s.pipeline_stages),
    "torus": lambda s: torus(s.cols, s.rows,
                             nis_per_router=s.nis_per_router,
                             pipeline_stages=s.pipeline_stages),
    "ring": lambda s: ring(s.cols, nis_per_router=s.nis_per_router,
                           pipeline_stages=s.pipeline_stages),
    "line": lambda s: mesh(s.cols, 1, nis_per_router=s.nis_per_router,
                           pipeline_stages=s.pipeline_stages,
                           name=f"line{s.cols}"),
    "single": lambda s: mesh(1, 1, nis_per_router=s.nis_per_router,
                             name="single"),
}


@dataclass(frozen=True)
class WorkloadSpec:
    """A randomly generated but seed-deterministic channel set."""

    n_channels: int = 6
    n_ips: int = 8
    n_applications: int = 2
    min_throughput_mb_s: float = 5.0
    max_throughput_mb_s: float = 40.0

    def __post_init__(self) -> None:
        require_whole("n_channels", self.n_channels, 1)
        require_whole("n_ips", self.n_ips, 2)
        require_whole("n_applications", self.n_applications, 1)
        if not 0 < self.min_throughput_mb_s <= self.max_throughput_mb_s:
            raise ConfigurationError("bad throughput range")

    def build(self, topology: Topology, seed: int
              ) -> tuple[UseCase, Mapping]:
        """Generate the channel set and IP mapping for one run."""
        rng = random.Random(seed)
        ips = [f"ip{i}" for i in range(self.n_ips)]
        mapping = round_robin(ips, topology)
        if len({mapping.ni_of(ip) for ip in ips}) < 2:
            raise ConfigurationError(
                "workload needs IPs on at least two distinct NIs; "
                f"topology {topology.name!r} offers too few NIs")
        channels: list[ChannelSpec] = []
        for index in range(self.n_channels):
            src, dst = rng.sample(ips, 2)
            while mapping.ni_of(src) == mapping.ni_of(dst):
                src, dst = rng.sample(ips, 2)
            rate = rng.uniform(self.min_throughput_mb_s,
                               self.max_throughput_mb_s) * MB
            channels.append(ChannelSpec(
                f"c{index}", src, dst, rate,
                application=f"app{index % self.n_applications}"))
        applications = tuple(
            Application(f"app{k}", tuple(
                c for c in channels if c.application == f"app{k}"))
            for k in range(self.n_applications))
        applications = tuple(a for a in applications if a.channels)
        return UseCase(f"campaign_s{seed}", applications), mapping


@dataclass(frozen=True)
class TrafficSpec:
    """Which arrival process drives every channel, and how hard."""

    pattern: str = "cbr"         # cbr | burst | bernoulli | saturating
    rate_factor: float = 1.0
    burst_messages: int = 3
    probability: float = 0.25

    def __post_init__(self) -> None:
        if self.pattern not in ("cbr", "burst", "bernoulli", "saturating"):
            raise ConfigurationError(
                f"unknown traffic pattern {self.pattern!r}")
        require_finite_positive("rate_factor", self.rate_factor)
        require_whole("burst_messages", self.burst_messages, 1)
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("probability must be in [0, 1]")

    def build(self, config: NocConfiguration, seed: int
              ) -> dict[str, TrafficPattern]:
        """Instantiate per-channel patterns, deterministically.

        The rate-driven mixes delegate to the canonical Section VII
        builders (:func:`repro.usecase.runner.cbr_traffic` /
        :func:`~repro.usecase.runner.burst_traffic`), so campaign
        traffic and paper-experiment traffic stay one implementation.
        """
        from repro.usecase.runner import burst_traffic, cbr_traffic

        fmt = config.fmt
        if self.pattern == "cbr":
            return cbr_traffic(config, rate_factor=self.rate_factor)
        if self.pattern == "burst":
            return burst_traffic(config,
                                 burst_messages=self.burst_messages,
                                 rate_factor=self.rate_factor)
        patterns: dict[str, TrafficPattern] = {}
        for name in sorted(config.allocation.channels):
            if self.pattern == "bernoulli":
                patterns[name] = BernoulliMessages(
                    self.probability, fmt.payload_words_per_flit,
                    fmt.flit_size, seed=derive_seed(seed, name))
            else:
                patterns[name] = Saturating(fmt.payload_words_per_flit,
                                            fmt.flit_size)
        return patterns


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a ``mode="synthetic"`` scenario.

    Synthetic runs execute a seed-deterministic hash chain instead of a
    simulation — microseconds per run — which is what lets dispatch
    overhead, checkpointing and resume be exercised (and benchmarked)
    on grids of tens of thousands of runs.  ``work`` counts SHA-256
    rounds per run; ``fail_seeds`` names seeds whose runs raise inside
    the worker, the deterministic probe for the fabric's
    failed-envelope (graceful-degradation) path.
    """

    work: int = 200
    fail_seeds: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        require_whole("synthetic work", self.work, 0)


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of the campaign grid (before seed expansion).

    ``mode`` names the scenario's *kind*; the kinds — what each runs,
    which of the optional payload fields (``churn``, ``design``,
    ``faults``, ``synthetic``) and which backends it accepts, and
    which axes it ignores — are the entries of
    :data:`repro.campaign.kinds.KINDS`.  A payload field left ``None``
    takes its kind's default; one set on a kind that does not accept
    it is rejected.

    ``policy`` selects the admission policy of the control-plane kinds:
    ``"fcfs"`` (the default, byte-identical to the pre-fairness
    reports) or ``"wfq"`` for ``mode="serve"`` runs over a tenant-
    tagged churn spec; ``mode="fairness"`` always compares both.
    """

    name: str
    topology: TopologySpec = TopologySpec()
    workload: WorkloadSpec = WorkloadSpec()
    traffic: TrafficSpec = TrafficSpec()
    backend: str = "flit"
    clocking: str = "synchronous"   # cycle backend only
    n_slots: int = 800
    table_size: int = 16
    frequency_mhz: float = 500.0
    mode: str = "simulate"  # a key of repro.campaign.kinds.KINDS
    policy: str = "fcfs"    # fcfs|wfq
    churn: ChurnSpec | None = None
    design: object | None = None    # a repro.design.space.DesignSpec
    faults: FaultSpec | None = None
    synthetic: SyntheticSpec | None = None

    def __post_init__(self) -> None:
        # Local imports: kinds imports this module, and the backend
        # registry pulls in the simulators.
        from repro.campaign.kinds import validate_scenario
        from repro.simulation.backend import available_backends
        if self.policy not in ("fcfs", "wfq"):
            raise ConfigurationError(
                f"unknown admission policy {self.policy!r}; expected "
                "'fcfs' or 'wfq'")
        if self.backend not in available_backends():
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{available_backends()}")
        if self.backend == "cycle" and self.clocking not in CLOCKING_MODES:
            raise ConfigurationError(
                f"unknown clocking scheme {self.clocking!r}")
        object.__setattr__(self, "n_slots",
                           require_whole("n_slots", self.n_slots, 1))
        object.__setattr__(self, "table_size",
                           require_whole("table_size", self.table_size, 2))
        require_finite_positive("frequency_mhz", self.frequency_mhz)
        validate_scenario(self)


@dataclass(frozen=True)
class RunSpec:
    """One executable run: a scenario bound to a seed."""

    run_id: str
    scenario: ScenarioSpec
    seed: int
    base_seed: int

    @property
    def run_seed(self) -> int:
        """The derived seed all of this run's randomness flows from."""
        return derive_seed(self.base_seed, self.run_id)


@dataclass(frozen=True)
class CampaignSpec:
    """A full campaign: scenarios × seed grid."""

    name: str
    scenarios: tuple[ScenarioSpec, ...]
    seeds: tuple[int, ...] = (1,)
    base_seed: int = 2009

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ConfigurationError("campaign needs at least one scenario")
        if not self.seeds:
            raise ConfigurationError("campaign needs at least one seed")
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate scenario names in campaign {self.name!r}")

    def expand(self) -> tuple[RunSpec, ...]:
        """The deterministic, ordered run list of the campaign."""
        runs = []
        for scenario in self.scenarios:
            for seed in self.seeds:
                runs.append(RunSpec(
                    run_id=f"{scenario.name}/seed{seed}",
                    scenario=scenario, seed=seed,
                    base_seed=self.base_seed))
        return tuple(runs)


def scenario_grid(topologies: dict[str, TopologySpec],
                  traffic_mixes: dict[str, TrafficSpec],
                  backends: dict[str, tuple[str, str]], *,
                  workload: WorkloadSpec | None = None,
                  n_slots: int = 800, table_size: int = 16
                  ) -> tuple[ScenarioSpec, ...]:
    """Cross labelled axes into the scenario list of a campaign.

    ``backends`` maps a label to a ``(backend, clocking)`` pair so the
    clocking-scheme axis and the backend axis stay one grid dimension
    (only the cycle backend distinguishes clockings).
    """
    workload = workload or WorkloadSpec()
    scenarios = []
    for topo_label, topology in sorted(topologies.items()):
        for traffic_label, traffic in sorted(traffic_mixes.items()):
            for backend_label, (backend, clocking) in sorted(
                    backends.items()):
                scenarios.append(ScenarioSpec(
                    name=f"{topo_label}-{traffic_label}-{backend_label}",
                    topology=topology, workload=workload,
                    traffic=traffic, backend=backend, clocking=clocking,
                    n_slots=n_slots, table_size=table_size))
    return tuple(scenarios)
