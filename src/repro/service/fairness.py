"""Multi-tenant weighted-fair admission, throttling, and shedding.

The control plane's FCFS admission answers "does this session fit?" —
it never asks "*whose* session is this?".  At millions-of-users scale
that is the open fairness hole: one abusive tenant flooding arrivals
starves every other application even though each individual admission
was legitimate.  This module closes it with three policy layers applied
*in front of* the allocator (the allocator itself stays untouched —
composability of admitted sessions is still the paper's per-connection
property):

* **weighted-fair queueing (WFQ)** — every tenant accumulates
  *virtual service* ``S_t`` (admitted capacity cost over its weight)
  inside the current accounting window.  While the allocator shows
  capacity pressure (trailing reject fraction at or above
  ``pressure_threshold``), an arrival from tenant ``t`` is gated
  against the least-served tenant seen this window: admit only if
  ``S_t`` stays within a ``quantum``-scaled burst allowance of that
  reference.  Heavier weights drain service slower, so a tenant's
  admitted-capacity share grows with its weight; the window reset
  means an idle tenant banks no credit and a busy one carries no
  eternal debt.  Without pressure the gate stands down — fairness
  never idles a network that has room (work conservation).  The same
  accounting nests one level down across a tenant's apps;
* **windowed rate throttling** — fixed time-binned open counters per
  tenant and per (tenant, app) with configurable ceilings;
* **QoS-class-aware load shedding** — when the trailing
  capacity-reject fraction crosses per-rank thresholds, arrivals are
  shed in :func:`shed_rank` order (bulk first, voice last).

All three layers honour the **guaranteed floor**: a tenant whose
admissions in the current window are below its ``floor_opens_per_window``
is exempt from every policy rejection and goes straight to the
allocator.  Policy decisions are pure functions of the (simulated)
event stream, so weighted-fair reports inherit the repo's
byte-determinism contract unchanged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.exceptions import (ConfigurationError,
                                   require_finite_positive, require_whole)
from repro.service.qos import QosClass

__all__ = ["TenantSpec", "FairnessSpec", "PolicyEvent",
           "WeightedFairScheduler", "shed_rank", "abusive_tenant_mix",
           "tenant_events"]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the control plane (plain value, picklable).

    Attributes
    ----------
    name:
        Tenant label (unique within a mix); tags every session the
        workload generator draws for this tenant.
    weight:
        Weighted-fair share.  Doubling the weight doubles the virtual
        service a tenant may accumulate before the WFQ gate holds it
        back, i.e. roughly doubles its admitted-capacity share under
        contention.
    rate_multiplier:
        Relative *arrival* intensity in a churn mix (how much traffic
        the tenant offers, not how much it deserves) — the adversary
        knob: an abusive tenant offers 10x while its weight stays 1.
    apps:
        The tenant's applications; sessions draw one uniformly and the
        WFQ accounting nests per app inside the tenant.
    floor_opens_per_window:
        Guaranteed floor: while the tenant has fewer admissions than
        this in the current throttle window, no policy layer may reject
        it (the allocator still can — physics beats policy).
    """

    name: str
    weight: float = 1.0
    rate_multiplier: float = 1.0
    apps: tuple[str, ...] = ("app0",)
    floor_opens_per_window: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        require_finite_positive(f"tenant {self.name!r} weight", self.weight)
        require_finite_positive(f"tenant {self.name!r} rate_multiplier",
                                self.rate_multiplier)
        if not self.apps:
            raise ConfigurationError(
                f"tenant {self.name!r} needs at least one app")
        if len(set(self.apps)) != len(self.apps):
            raise ConfigurationError(
                f"tenant {self.name!r} has duplicate app names")
        require_whole(f"tenant {self.name!r} floor_opens_per_window",
                      self.floor_opens_per_window, 0)


@dataclass(frozen=True)
class FairnessSpec:
    """Tunables of the weighted-fair admission policy.

    Attributes
    ----------
    quantum:
        Burst allowance of the WFQ gate, in units of the costliest
        session seen so far: an arrival is admitted only if its
        tenant's post-admission windowed virtual service stays within
        ``quantum * max_cost / weight`` of the least-served tenant of
        the current window.  ``1.0`` is strict head-of-line fairness;
        must be >= 1 or even the least-served tenant could be
        unadmittable.
    window_s:
        Width of the fixed throttle/floor/WFQ accounting time bins.
        Virtual service resets on every bin roll, so fairness is
        enforced per window: an idle tenant banks no credit, a busy
        one carries no eternal debt.
    pressure_threshold:
        Trailing capacity-reject fraction at or above which the WFQ
        gates engage.  ``0.0`` enforces fairness unconditionally (the
        deterministic property-test mode); the default keeps the gate
        out of the way of any workload the allocator is absorbing
        without rejects (work conservation).
    tenant_opens_per_window / app_opens_per_window:
        Windowed rate ceilings (``None`` disables a layer).  Arrivals
        beyond the ceiling in the current bin are shed with reason
        ``"throttle"``.
    overload_window:
        Trailing allocator outcomes folded into the overload signal.
    min_overload_samples:
        Outcomes required before shedding may trigger at all.
    shed_thresholds:
        Capacity-reject fraction above which arrivals of shed rank
        ``i`` (see :func:`shed_rank`) are shed; rank 0 (bulk) sheds
        first, ranks beyond the tuple never shed.

    >>> FairnessSpec().quantum
    2.0
    """

    quantum: float = 2.0
    window_s: float = 0.01
    pressure_threshold: float = 0.02
    tenant_opens_per_window: int | None = None
    app_opens_per_window: int | None = None
    overload_window: int = 64
    min_overload_samples: int = 16
    shed_thresholds: tuple[float, ...] = (0.25, 0.5, 0.75)

    def __post_init__(self) -> None:
        if not 1.0 <= self.quantum < float("inf"):
            raise ConfigurationError(
                "quantum must be finite and >= 1 (the least-served "
                f"tenant must be admittable), got {self.quantum!r}")
        require_finite_positive("window_s", self.window_s)
        if not 0.0 <= self.pressure_threshold <= 1.0:
            raise ConfigurationError(
                "pressure_threshold must lie in [0, 1]")
        for name, optional in (("tenant_opens_per_window", True),
                               ("app_opens_per_window", True),
                               ("overload_window", False),
                               ("min_overload_samples", False)):
            value = getattr(self, name)
            if value is not None or not optional:
                object.__setattr__(self, name,
                                   require_whole(name, value, 1))
        if any(not 0.0 < t <= 1.0 for t in self.shed_thresholds):
            raise ConfigurationError(
                "shed thresholds must lie in (0, 1]")
        if list(self.shed_thresholds) != sorted(self.shed_thresholds):
            raise ConfigurationError(
                "shed thresholds must be non-decreasing (rank 0 sheds "
                "first)")


@dataclass(frozen=True)
class PolicyEvent:
    """One runtime policy adjustment, mergeable into the event stream.

    ``action`` is ``set_weight`` (re-weight a tenant's fair share),
    ``set_floor`` (adjust its guaranteed floor) or ``set_limit``
    (per-tenant open ceiling override; ``None`` value restores the
    spec-wide ceiling).  Policy events interleave deterministically
    with session and fault events via :func:`~repro.service.controller.
    merge_events`: at equal instants they apply after closes/repairs
    but before failures/opens, so a re-weight at time ``t`` governs the
    arrivals of time ``t``.
    """

    time_s: float
    action: str  # "set_weight" | "set_floor" | "set_limit"
    tenant: str
    value: float | int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.time_s < float("inf"):
            raise ConfigurationError(
                f"policy event time_s must be finite and >= 0, got "
                f"{self.time_s!r}")
        if self.value is not None and \
                not -float("inf") < self.value < float("inf"):
            raise ConfigurationError(
                f"policy event value must be finite, got {self.value!r}")
        if self.action not in ("set_weight", "set_floor", "set_limit"):
            raise ConfigurationError(
                f"unknown policy action {self.action!r}")
        if not self.tenant:
            raise ConfigurationError("policy event needs a tenant name")
        if self.action == "set_weight" and (
                self.value is None or self.value <= 0):
            raise ConfigurationError("set_weight needs a positive value")
        if self.action == "set_floor" and (
                self.value is None or self.value < 0):
            raise ConfigurationError("set_floor needs a value >= 0")


def shed_rank(qos: QosClass) -> int:
    """Shedding order of a QoS class — lower ranks shed first.

    Bandwidth-only classes (no latency requirement: bulk transfers)
    are rank 0 and shed at the lightest overload; latency-bound classes
    rank above them, and the tightest-latency classes (voice-like,
    bound under 200 ns) shed last — they are the sessions a human
    notices dropping.

    >>> from repro.service.qos import DEFAULT_CLASSES
    >>> classes = {qos.name: qos for qos in DEFAULT_CLASSES}
    >>> [shed_rank(classes[n]) for n in ("bulk", "video", "control", "voice")]
    [0, 1, 1, 2]
    """
    if qos.max_latency_ns is None:
        return 0
    return 2 if qos.max_latency_ns < 200.0 else 1


def abusive_tenant_mix(n_well_behaved: int = 3, *,
                       multiplier: float = 10.0,
                       floor_opens_per_window: int = 0
                       ) -> tuple[TenantSpec, ...]:
    """The adversary profile: one flooding tenant among equals.

    Tenant ``abuser`` offers ``multiplier`` times the arrival intensity
    of each well-behaved tenant (``good0`` .. ``good{n-1}``) while every
    weight stays 1 and every tenant runs two apps — exactly the workload
    FCFS admission cannot defend against and weighted-fair admission
    must.

    >>> [t.name for t in abusive_tenant_mix(2)]
    ['abuser', 'good0', 'good1']
    >>> abusive_tenant_mix(2)[0].rate_multiplier
    10.0
    """
    if n_well_behaved < 1:
        raise ConfigurationError("need at least one well-behaved tenant")
    apps = ("app0", "app1")
    tenants = [TenantSpec(
        "abuser", rate_multiplier=multiplier, apps=apps,
        floor_opens_per_window=floor_opens_per_window)]
    tenants += [TenantSpec(
        f"good{i}", apps=apps,
        floor_opens_per_window=floor_opens_per_window)
        for i in range(n_well_behaved)]
    return tuple(tenants)


def tenant_events(events, tenant: str):
    """Filter an event stream down to one tenant's sessions.

    The solo-run baseline of the fairness demo: the tenant keeps its
    exact arrivals/departures from the shared mix, everyone else's
    vanish — so per-tenant admission rates are comparable between the
    contended run and the solo run.
    """
    return tuple(e for e in events if e.session.tenant == tenant)


class _FairQueue:
    """Windowed virtual-service accounting over one set of peers.

    Used twice by the scheduler: across tenants (weights from
    :class:`TenantSpec`) and, inside each tenant, across its apps
    (equal weights).  ``service`` maps peer -> normalised service
    admitted in the *current* window; ``arrived`` tracks which peers
    have offered traffic this window and therefore set the reference
    level (implicitly zero until a peer's first admission).  The
    scheduler rolls both on every window boundary; ``total`` keeps the
    whole-run cumulative service for reporting only.
    """

    def __init__(self):
        self.service: dict[str, float] = {}
        self.total: dict[str, float] = {}
        self.weight: dict[str, float] = {}
        self.arrived: set[str] = set()
        self.max_cost = 0.0

    def register(self, peer: str, weight: float) -> None:
        if peer not in self.service:
            self.service[peer] = 0.0
            self.total[peer] = 0.0
        self.weight[peer] = weight

    def roll(self) -> None:
        for peer in self.service:
            self.service[peer] = 0.0
        self.arrived.clear()

    def gate(self, peer: str, cost: float, quantum: float) -> bool:
        """Would admitting ``cost`` keep ``peer`` inside its share?

        The reference is the least-served peer among those seen this
        window, and the allowance scales with the costliest session
        observed so far — so one expensive admission never locks a
        peer out for longer than ``quantum`` such sessions' worth of
        catch-up by the laggard.  The weakly least-served peer is
        admissible unconditionally: progress never hinges on a
        floating-point boundary comparison.
        """
        self.arrived.add(peer)
        if cost > self.max_cost:
            self.max_cost = cost
        service = self.service[peer]
        reference = min(self.service[p] for p in self.arrived)
        if service <= reference:
            return True
        weight = self.weight[peer]
        return (service + cost / weight - reference
                <= quantum * self.max_cost / weight)

    def charge(self, peer: str, cost: float) -> None:
        share = cost / self.weight[peer]
        self.service[peer] += share
        self.total[peer] += share


class WeightedFairScheduler:
    """The live weighted-fair admission policy of one service run.

    Sits between the event loop and the allocator:
    :meth:`admit_decision` is consulted for every tenant-tagged open
    and returns ``None`` (proceed to the allocator) or a
    ``(reason_kind, reason)`` shed verdict; :meth:`on_admitted` /
    :meth:`on_capacity_reject` feed the accounting and the overload
    signal afterwards.  Unknown tenants self-register with default
    :class:`TenantSpec` parameters, so a tagged workload needs no
    up-front tenant roster.
    """

    #: Policy rejection reasons, in the order the layers apply.
    REASONS = ("throttle", "overload", "fairness")

    def __init__(self, tenants: tuple[TenantSpec, ...] = (), *,
                 spec: FairnessSpec | None = None):
        self.spec = spec or FairnessSpec()
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate tenant names")
        self.tenants: dict[str, TenantSpec] = {}
        self._queue = _FairQueue()
        self._app_queues: dict[str, _FairQueue] = {}
        self._floor: dict[str, int] = {}
        self._limit: dict[str, int | None] = {}
        #: Fixed-bin windowed counters, reset on every bin roll.
        self._bin = -1
        self._window_opens: dict[str, int] = {}
        self._window_admits: dict[str, int] = {}
        self._window_app_opens: dict[tuple[str, str], int] = {}
        #: Trailing allocator outcomes (1 = capacity reject).
        self._outcomes: deque[int] = deque(
            maxlen=self.spec.overload_window)
        self._reject_sum = 0
        self.stats: dict[str, dict[str, int]] = {}
        for tenant in tenants:
            self._register(tenant)

    def _register(self, tenant: TenantSpec) -> None:
        self.tenants[tenant.name] = tenant
        self._queue.register(tenant.name, tenant.weight)
        queue = _FairQueue()
        for app in tenant.apps:
            queue.register(app, 1.0)
        self._app_queues[tenant.name] = queue
        self._floor[tenant.name] = tenant.floor_opens_per_window
        self._limit[tenant.name] = self.spec.tenant_opens_per_window
        self.stats[tenant.name] = {
            "opens": 0, "admitted": 0, "rejected_capacity": 0,
            "shed_throttle": 0, "shed_overload": 0, "shed_fairness": 0}

    def _roll(self, time_s: float) -> None:
        bin_index = int(time_s / self.spec.window_s)
        if bin_index != self._bin:
            self._bin = bin_index
            self._window_opens.clear()
            self._window_admits.clear()
            self._window_app_opens.clear()
            self._queue.roll()
            for queue in self._app_queues.values():
                queue.roll()

    def _overload_fraction(self) -> float:
        if len(self._outcomes) < self.spec.min_overload_samples:
            return 0.0
        return self._reject_sum / len(self._outcomes)

    def admit_decision(self, time_s: float, session
                       ) -> tuple[str, str] | None:
        """Gate one tenant-tagged arrival; ``None`` means proceed.

        Layer order: guaranteed floor (exempts from everything below),
        windowed tenant/app throttle, overload shedding by QoS rank,
        then — only while the allocator shows capacity pressure — the
        tenant-level and app-level WFQ gates.
        """
        tenant = session.tenant
        if tenant not in self.tenants:
            self._register(TenantSpec(tenant))
        spec = self.spec
        self._roll(time_s)
        stats = self.stats[tenant]
        stats["opens"] += 1
        opens = self._window_opens[tenant] = (
            self._window_opens.get(tenant, 0) + 1)
        app_key = (tenant, session.app)
        app_opens = self._window_app_opens[app_key] = (
            self._window_app_opens.get(app_key, 0) + 1)
        admitted_in_window = self._window_admits.get(tenant, 0)
        # The gates run on every arrival (they track who offered
        # traffic this window) even when their verdict is ignored —
        # below the floor or without capacity pressure.
        cost = session.qos.throughput_mb_s
        app_queue = self._app_queues[tenant]
        if session.app not in app_queue.weight:
            app_queue.register(session.app, 1.0)
        tenant_fair = self._queue.gate(tenant, cost, spec.quantum)
        app_fair = app_queue.gate(session.app, cost, spec.quantum)
        verdict: tuple[str, str] | None = None
        if admitted_in_window >= self._floor[tenant]:
            limit = self._limit[tenant]
            app_limit = spec.app_opens_per_window
            rank = shed_rank(session.qos)
            pressured = (self._overload_fraction()
                         >= spec.pressure_threshold)
            if limit is not None and opens > limit:
                verdict = ("throttle",
                           f"tenant {tenant} over {limit} opens per "
                           f"{spec.window_s:g}s window")
            elif app_limit is not None and app_opens > app_limit:
                verdict = ("throttle",
                           f"app {session.app} of tenant {tenant} over "
                           f"{app_limit} opens per {spec.window_s:g}s "
                           "window")
            elif (rank < len(spec.shed_thresholds)
                  and self._overload_fraction()
                  >= spec.shed_thresholds[rank]):
                verdict = ("overload",
                           f"shedding {session.qos.name} (rank {rank}) "
                           f"at {self._overload_fraction():.0%} "
                           "capacity rejects")
            elif pressured and not tenant_fair:
                verdict = ("fairness",
                           f"tenant {tenant} beyond its weighted "
                           "fair share")
            elif pressured and not app_fair:
                verdict = ("fairness",
                           f"app {session.app} beyond its fair "
                           f"share of tenant {tenant}")
        if verdict is not None:
            stats[f"shed_{verdict[0]}"] += 1
        return verdict

    def on_admitted(self, time_s: float, session) -> None:
        """Charge one admitted session to its tenant and app."""
        tenant = session.tenant
        cost = session.qos.throughput_mb_s
        self._queue.charge(tenant, cost)
        self._app_queues[tenant].charge(session.app, cost)
        self._roll(time_s)
        self._window_admits[tenant] = (
            self._window_admits.get(tenant, 0) + 1)
        self.stats[tenant]["admitted"] += 1
        self._push_outcome(0)

    def on_capacity_reject(self, time_s: float, session) -> None:
        """Feed one allocator reject into the overload signal."""
        self.stats[session.tenant]["rejected_capacity"] += 1
        self._push_outcome(1)

    def _push_outcome(self, rejected: int) -> None:
        if len(self._outcomes) == self._outcomes.maxlen:
            self._reject_sum -= self._outcomes[0]
        self._outcomes.append(rejected)
        self._reject_sum += rejected

    def apply_policy(self, event: PolicyEvent) -> None:
        """Apply one runtime :class:`PolicyEvent` to the live state."""
        tenant = event.tenant
        if tenant not in self.tenants:
            self._register(TenantSpec(tenant))
        if event.action == "set_weight":
            self._queue.register(tenant, float(event.value))
        elif event.action == "set_floor":
            self._floor[tenant] = int(event.value)
        else:
            self._limit[tenant] = (
                None if event.value is None else int(event.value))

    def to_record(self) -> dict[str, object]:
        """The deterministic ``fairness`` section of a service report."""
        spec = self.spec
        per_tenant = {}
        for name in sorted(self.tenants):
            stats = self.stats[name]
            shed = (stats["shed_throttle"] + stats["shed_overload"]
                    + stats["shed_fairness"])
            per_tenant[name] = {
                "weight": round(self._queue.weight[name], 4),
                "floor_opens_per_window": self._floor[name],
                "opens": stats["opens"],
                "admitted": stats["admitted"],
                "rejected_capacity": stats["rejected_capacity"],
                "shed": shed,
                "shed_by_reason": {
                    reason: stats[f"shed_{reason}"]
                    for reason in self.REASONS},
                "virtual_service": round(self._queue.total[name], 4),
            }
        return {
            "policy": "wfq",
            "quantum": round(spec.quantum, 4),
            "window_ms": round(spec.window_s * 1e3, 4),
            "pressure_threshold": round(spec.pressure_threshold, 4),
            "tenant_opens_per_window": spec.tenant_opens_per_window,
            "app_opens_per_window": spec.app_opens_per_window,
            "shed_thresholds": list(spec.shed_thresholds),
            "per_tenant": per_tenant,
        }
