"""Seeded fault schedules: link and router failures/repairs over time.

Aelite's composability and predictability claims assume a healthy
fabric; this module supplies the adversary.  A :class:`FaultSpec`
parameterises a deterministic per-seed schedule of link and router
failures (Poisson fault arrivals, exponential repair times), and
:class:`FaultSchedule` materialises it over one topology — the same
eager, replayable construction as :class:`~repro.service.churn.
ChurnWorkload`, so the identical fault timeline can be injected into
several consumers (the control plane, the campaign layer, a rebuild
study) and byte-identical reports fall out.

Targets are drawn deterministically: link faults hit router-to-router
links only (an NI's single attachment link dying is modelled as its
router failing), router faults hit any router.  Repairs restore the
exact resource that failed; a fault on an already-failed resource is
redrawn so every failure changes the surviving set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.exceptions import (ConfigurationError,
                                   require_finite_positive, require_whole)
from repro.topology.graph import NodeKind, Topology

__all__ = ["FaultSpec", "FaultEvent", "FaultSchedule"]

_KINDS = ("link", "router")
_ACTIONS = ("fail", "repair")


@dataclass(frozen=True)
class FaultSpec:
    """Parameters of a fault workload (plain value, picklable).

    Attributes
    ----------
    n_faults:
        Failures to generate; every failure is repaired, so the event
        stream has up to twice as many events.
    fault_rate_per_s:
        Poisson arrival rate of new failures.
    mean_repair_s:
        Mean of the exponential repair time.
    router_fraction:
        Probability that a failure hits a whole router rather than a
        single link.

    >>> FaultSpec(n_faults=2).label
    'faults2r20f0.25d0.05'
    """

    n_faults: int = 4
    fault_rate_per_s: float = 20.0
    mean_repair_s: float = 0.05
    router_fraction: float = 0.25

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_faults",
                           require_whole("n_faults", self.n_faults, 1))
        require_finite_positive("fault_rate_per_s", self.fault_rate_per_s)
        require_finite_positive("mean_repair_s", self.mean_repair_s)
        if not 0 <= self.router_fraction <= 1:
            raise ConfigurationError(
                "router_fraction must be in [0, 1]")

    @property
    def label(self) -> str:
        """Compact identifier used in run ids and reports.

        Encodes every numeric axis a sweep might vary (fault count,
        rate, router fraction and repair time), so two adversaries are
        distinguishable in any report row.
        """
        return (f"faults{self.n_faults}"
                f"r{self.fault_rate_per_s:g}"
                f"f{self.router_fraction:g}"
                f"d{self.mean_repair_s:g}")


@dataclass(frozen=True)
class FaultEvent:
    """One fabric transition: a resource fails or is repaired.

    ``target`` is a directed link key ``(src, dst)`` for ``kind="link"``
    and a router name for ``kind="router"``.
    """

    time_s: float
    action: str   # "fail" | "repair"
    kind: str     # "link" | "router"
    target: tuple[str, str] | str

    def __post_init__(self) -> None:
        if not 0 <= self.time_s < float("inf"):
            raise ConfigurationError(
                f"fault event time_s must be finite and >= 0, got "
                f"{self.time_s!r}")
        if self.action not in _ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r}")
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}")

    @property
    def target_label(self) -> str:
        """Stable printable identity of the failed resource."""
        if self.kind == "link":
            return f"{self.target[0]}->{self.target[1]}"
        return str(self.target)


class FaultSchedule:
    """Deterministic fault/repair event stream over one topology.

    Generation is eager, so the same schedule object can be replayed
    against several consumers; everything flows from one
    ``random.Random(seed)``.

    >>> from repro.topology.builders import mesh
    >>> schedule = FaultSchedule(FaultSpec(n_faults=2), mesh(2, 2), 7)
    >>> [e.action for e in schedule.events()].count("fail")
    2
    >>> schedule.events() == FaultSchedule(
    ...     FaultSpec(n_faults=2), mesh(2, 2), 7).events()
    True
    """

    def __init__(self, spec: FaultSpec, topology: Topology, seed: int):
        router_links = tuple(sorted(
            link.key for link in topology.links
            if topology.kind(link.src) is NodeKind.ROUTER
            and topology.kind(link.dst) is NodeKind.ROUTER))
        routers = topology.routers
        if not router_links and not routers:
            raise ConfigurationError(
                f"topology {topology.name!r} has nothing to fail")
        self.spec = spec
        self.topology = topology
        self.seed = seed
        self._events = self._generate(router_links, routers)

    def _generate(self, router_links: tuple[tuple[str, str], ...],
                  routers: tuple[str, ...]) -> tuple[FaultEvent, ...]:
        spec = self.spec
        rng = random.Random(self.seed)
        clock = 0.0
        events: list[FaultEvent] = []
        down: set[object] = set()
        pending: list[tuple[float, object]] = []  # (repair time, target)
        for _ in range(spec.n_faults):
            clock += rng.expovariate(spec.fault_rate_per_s)
            # Repairs scheduled before this fault free their resource
            # for re-failure.
            for at, target in sorted(pending, key=lambda p: p[0]):
                if at <= clock:
                    down.discard(target)
            pending = [(at, t) for at, t in pending if at > clock]
            kind, target = self._draw_target(rng, router_links, routers,
                                             down)
            if target is None:
                break  # everything that can fail is already down
            down.add(target)
            events.append(FaultEvent(clock, "fail", kind, target))
            repair_at = clock + rng.expovariate(1.0 / spec.mean_repair_s)
            events.append(FaultEvent(repair_at, "repair", kind, target))
            pending.append((repair_at, target))
        events.sort(key=lambda e: (e.time_s, e.action != "repair",
                                   e.kind, e.target_label))
        return tuple(events)

    def _draw_target(self, rng: random.Random,
                     router_links: tuple[tuple[str, str], ...],
                     routers: tuple[str, ...],
                     down: set[object]):
        """Draw a not-currently-failed resource, deterministically."""
        want_router = (rng.random() < self.spec.router_fraction
                       or not router_links)
        if want_router and routers:
            alive = [r for r in routers if r not in down]
            if alive:
                return "router", rng.choice(alive)
        # A link incident to a failed router is already dead, so it is
        # not a valid draw: every failure must shrink the surviving set.
        alive_links = [key for key in router_links
                       if key not in down
                       and key[0] not in down and key[1] not in down]
        if alive_links:
            return "link", rng.choice(alive_links)
        alive = [r for r in routers if r not in down]
        if alive:
            return "router", rng.choice(alive)
        return "link", None

    def events(self) -> tuple[FaultEvent, ...]:
        """The time-ordered fail/repair stream."""
        return self._events
