"""Seeded session-churn workloads: Poisson arrivals, heavy-tailed holds.

The control plane's input is a time-ordered stream of session open/close
requests.  :class:`ChurnWorkload` generates that stream deterministically
from a :class:`ChurnSpec` and a seed:

* arrivals are a Poisson process (exponential inter-arrival times) at a
  configurable rate — the aggregate of many independent users;
* session durations are heavy-tailed (truncated Pareto), so most
  sessions are short but a few pin their slots for a long time — the
  regime that actually stresses incremental admission;
* each session draws a QoS class from the weighted mix and a distinct
  source/destination NI pair from the topology.

Everything is derived from one ``random.Random(seed)``; the same spec,
topology, and seed always produce the byte-identical event stream, which
is what lets service reports be compared across commits like campaign
reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.connection import ChannelSpec
from repro.core.exceptions import (ConfigurationError,
                                   require_finite_positive, require_whole)
from repro.service.fairness import TenantSpec
from repro.service.qos import DEFAULT_CLASSES, QosClass
from repro.topology.graph import Topology

__all__ = ["ChurnSpec", "SessionRequest", "SessionEvent", "ChurnWorkload"]


@dataclass(frozen=True)
class ChurnSpec:
    """Parameters of a churn workload (plain value, picklable).

    Attributes
    ----------
    n_sessions:
        Sessions to generate; the event stream has up to twice as many
        events (one open and one close per session).
    arrival_rate_per_s:
        Poisson arrival rate of new sessions.
    mean_duration_s:
        Mean session hold time (of the untruncated Pareto).
    pareto_shape:
        Tail index of the duration distribution (> 1 so the mean
        exists; smaller = heavier tail).
    max_duration_s:
        Truncation cap on a single session's duration.
    classes:
        The weighted QoS mix sessions are drawn from.
    tenants:
        Optional multi-tenant mix: every session is additionally tagged
        with a tenant (drawn proportionally to each tenant's
        ``rate_multiplier``) and one of that tenant's apps.  The empty
        default adds no RNG draws, so untenanted streams — and their
        reports — stay byte-identical to earlier releases.

    >>> ChurnSpec(n_sessions=100, arrival_rate_per_s=1000.0).label
    'churn100r1000d0.02'
    >>> from repro.service.fairness import TenantSpec
    >>> ChurnSpec(tenants=(TenantSpec("a"), TenantSpec("b"))).label
    'churn1000r5000d0.02t2'
    """

    n_sessions: int = 1000
    arrival_rate_per_s: float = 5000.0
    mean_duration_s: float = 0.02
    pareto_shape: float = 1.5
    max_duration_s: float = 2.0
    classes: tuple[QosClass, ...] = DEFAULT_CLASSES
    tenants: tuple[TenantSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_sessions",
                           require_whole("n_sessions", self.n_sessions, 1))
        require_finite_positive("arrival_rate_per_s",
                                self.arrival_rate_per_s)
        require_finite_positive("mean_duration_s", self.mean_duration_s)
        require_finite_positive("max_duration_s", self.max_duration_s)
        if not 1.0 < self.pareto_shape < float("inf"):
            raise ConfigurationError(
                "pareto_shape must be finite and exceed 1 (finite mean), "
                f"got {self.pareto_shape!r}")
        if not self.classes:
            raise ConfigurationError("churn needs at least one QoS class")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate QoS class names")
        tenant_names = [t.name for t in self.tenants]
        if len(set(tenant_names)) != len(tenant_names):
            raise ConfigurationError("duplicate tenant names")

    @property
    def label(self) -> str:
        """Compact identifier used in run ids and reports."""
        label = (f"churn{self.n_sessions}"
                 f"r{self.arrival_rate_per_s:g}"
                 f"d{self.mean_duration_s:g}")
        if self.tenants:
            label += f"t{len(self.tenants)}"
        return label


@dataclass(frozen=True)
class SessionRequest:
    """One user session: who talks to whom, how, and for how long.

    ``tenant``/``app`` carry the multi-tenant tags of a tenanted churn
    mix; both stay empty (and invisible in reports) for untenanted
    workloads.
    """

    session_id: str
    qos: QosClass
    src_ni: str
    dst_ni: str
    arrival_s: float
    duration_s: float
    tenant: str = ""
    app: str = ""

    @property
    def departure_s(self) -> float:
        """Instant the session closes (if admitted)."""
        return self.arrival_s + self.duration_s

    def channel_spec(self) -> ChannelSpec:
        """The allocator-facing channel of this session."""
        return self.qos.channel_spec(self.session_id, self.src_ni,
                                     self.dst_ni)


@dataclass(frozen=True)
class SessionEvent:
    """One control-plane request: open or close a session."""

    time_s: float
    kind: str  # "open" | "close"
    session: SessionRequest

    def __post_init__(self) -> None:
        if not 0 <= self.time_s < float("inf"):
            raise ConfigurationError(
                f"session event time_s must be finite and >= 0, got "
                f"{self.time_s!r}")


class ChurnWorkload:
    """Deterministic event stream over one topology.

    Generation is eager (sessions are materialised on construction) so
    the same workload object can be replayed against several service
    instances — the determinism check replays the identical stream.
    """

    def __init__(self, spec: ChurnSpec, topology: Topology, seed: int):
        nis = list(topology.nis)
        if len(nis) < 2:
            raise ConfigurationError(
                f"churn needs >= 2 NIs; topology {topology.name!r} "
                f"has {len(nis)}")
        self.spec = spec
        self.topology = topology
        self.seed = seed
        self.sessions = self._generate(nis)

    def _generate(self, nis: list[str]) -> tuple[SessionRequest, ...]:
        spec = self.spec
        rng = random.Random(self.seed)
        names = list(spec.classes)
        weights = [c.weight for c in names]
        # Truncated Pareto: scale so the *untruncated* mean matches.
        shape = spec.pareto_shape
        scale = spec.mean_duration_s * (shape - 1.0) / shape
        clock = 0.0
        # Tenant draws happen strictly *after* the legacy per-session
        # draws and only when the mix is tenanted, so an untenanted
        # spec consumes the identical RNG sequence as earlier releases
        # (byte-identical streams and reports).
        tenants = list(spec.tenants)
        tenant_weights = [t.rate_multiplier for t in tenants]
        sessions = []
        for index in range(spec.n_sessions):
            clock += rng.expovariate(spec.arrival_rate_per_s)
            qos = rng.choices(names, weights)[0]
            src, dst = rng.sample(nis, 2)
            duration = min(scale * (1.0 - rng.random()) ** (-1.0 / shape),
                           spec.max_duration_s)
            tenant = app = ""
            if tenants:
                owner = rng.choices(tenants, tenant_weights)[0]
                tenant = owner.name
                app = owner.apps[rng.randrange(len(owner.apps))]
            sessions.append(SessionRequest(
                session_id=f"s{index:06d}", qos=qos, src_ni=src,
                dst_ni=dst, arrival_s=clock, duration_s=duration,
                tenant=tenant, app=app))
        return tuple(sessions)

    def events(self, limit: int | None = None) -> tuple[SessionEvent, ...]:
        """The time-ordered open/close stream (optionally truncated).

        Closes sort before opens at equal instants so slots freed by a
        departing session are available to a simultaneous arrival.
        """
        stream = [SessionEvent(s.arrival_s, "open", s)
                  for s in self.sessions]
        stream += [SessionEvent(s.departure_s, "close", s)
                   for s in self.sessions]
        stream.sort(key=lambda e: (e.time_s, e.kind != "close",
                                   e.session.session_id))
        if limit is not None:
            stream = stream[:require_whole("limit", limit, 0)]
        return tuple(stream)
