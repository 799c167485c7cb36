"""The fairness comparison behind the ``mode="fairness"`` kind.

Runs a tenant-tagged churn stream (by default the abusive-tenant
adversary profile) and answers the question the fairness subsystem
exists for: *does one flooding tenant degrade anyone else's
admission?*  Three runs over the identical tenant-tagged event stream
make the verdict quantitative:

* **wfq** — the weighted-fair policy under test;
* **fcfs** — the legacy first-come-first-served baseline;
* **solo** — each tenant alone on the network (its exact arrivals from
  the shared mix, everyone else's removed), the per-tenant reference
  admission rate.

A tenant's *retention* is its contended admission rate over its solo
rate.  The record's checks say whether every well-behaved tenant
retains at least :data:`RETENTION_FLOOR` under wfq and whether the FCFS
baseline fails that bound; ``python -m repro serve --policy wfq
--demo`` runs the ``fairness_demo`` campaign preset and prints them as
its verdicts.
"""

from __future__ import annotations

from repro.core.allocation import SlotAllocator
from repro.service.churn import ChurnSpec
from repro.service.controller import SessionService
from repro.service.fairness import (FairnessSpec, TenantSpec,
                                    abusive_tenant_mix, tenant_events)

__all__ = ["fairness_churn_spec", "fairness_comparison",
           "demo_fairness_spec", "RETENTION_FLOOR"]

#: Minimum contended/solo admission-rate ratio a well-behaved tenant
#: must retain under the weighted-fair policy.
RETENTION_FLOOR = 0.95


def fairness_churn_spec(n_sessions: int) -> ChurnSpec:
    """The adversarial workload: one abuser among three equals.

    The aggregate arrival rate (18 000 opens/s) is deliberately above
    what the Section VII mesh can hold, with the abuser offering ten
    times each well-behaved tenant's share — so FCFS admission hands the
    abuser the network while the fair-share load alone would fit.
    """
    return ChurnSpec(
        n_sessions=n_sessions, arrival_rate_per_s=18000.0,
        tenants=abusive_tenant_mix(3, floor_opens_per_window=2))


def demo_fairness_spec() -> FairnessSpec:
    """The demo's policy tunables: WFQ plus a windowed throttle.

    The per-tenant ceiling (40 opens per 10 ms window) sits far above
    any well-behaved tenant's arrival rate and well below the abuser's
    flood, so the throttle layer visibly contributes to the defence
    without touching honest traffic; the quantum of four bulk sessions
    lets an honest tenant burst inside a window without tripping the
    WFQ gate.
    """
    return FairnessSpec(window_s=0.01, quantum=4.0,
                        tenant_opens_per_window=40)


def _rate(stats: dict | None) -> float:
    """Admission rate of one per-tenant rollup (1.0 when unexercised)."""
    if not stats or not stats["opens"]:
        return 1.0
    return stats["accepted"] / stats["opens"]


def fairness_comparison(topology, events,
                        tenants: tuple[TenantSpec, ...], *,
                        table_size: int, frequency_hz: float,
                        fairness: FairnessSpec | None = None,
                        name: str = "fairness", seed: int = 0,
                        telemetry=None, monitor=None
                        ) -> dict[str, object]:
    """Run wfq vs FCFS vs per-tenant solo over one tagged stream.

    Returns the canonical JSON-ready fairness record: both contended
    reports, the per-tenant retention table and the verdict flags.
    Solo baselines run under FCFS (pure capacity, no policy in the
    way), so retention isolates what *contention* — not the policy —
    costs each tenant.  ``telemetry``/``monitor`` instrument the wfq
    run only; a monitored run additionally attaches the per-tenant
    quote-conformance verdict under the non-canonical ``_conformance``
    key (the ``fairness`` kind moves it out of its ``result``).
    """
    def one_run(policy: str, run_events, run_name: str,
                run_telemetry=None, run_monitor=None):
        service = SessionService(
            topology, allocator=SlotAllocator(
                topology, table_size=table_size, frequency_hz=frequency_hz),
            name=run_name, seed=seed, record_events=False,
            telemetry=run_telemetry, monitor=run_monitor,
            policy=policy,
            fairness=fairness if policy == "wfq" else None,
            tenants=tenants if policy == "wfq" else ())
        report = service.run(run_events)
        conformance = (service.conformance_report(scenario=run_name)
                       if service.monitor is not None else None)
        return report, conformance

    wfq, conformance = one_run("wfq", events, f"{name}-wfq",
                               telemetry, monitor)
    fcfs, _ = one_run("fcfs", events, f"{name}-fcfs")
    multipliers = [t.rate_multiplier for t in tenants]
    honest = min(multipliers)
    retention: dict[str, dict[str, object]] = {}
    checks_ok = True
    fcfs_fails = False
    min_retention = 1.0
    for tenant in sorted(tenants, key=lambda t: t.name):
        solo, _ = one_run("fcfs", tenant_events(events, tenant.name),
                          f"{name}-solo-{tenant.name}")
        solo_rate = _rate((solo.tenants or {}).get(tenant.name))
        wfq_rate = _rate((wfq.tenants or {}).get(tenant.name))
        fcfs_rate = _rate((fcfs.tenants or {}).get(tenant.name))
        wfq_retention = wfq_rate / solo_rate if solo_rate else 1.0
        fcfs_retention = fcfs_rate / solo_rate if solo_rate else 1.0
        well_behaved = tenant.rate_multiplier <= honest
        if well_behaved:
            min_retention = min(min_retention, wfq_retention)
            if wfq_retention < RETENTION_FLOOR:
                checks_ok = False
            if fcfs_retention < RETENTION_FLOOR:
                fcfs_fails = True
        retention[tenant.name] = {
            "well_behaved": well_behaved,
            "solo_rate": round(solo_rate, 4),
            "wfq_rate": round(wfq_rate, 4),
            "fcfs_rate": round(fcfs_rate, 4),
            "wfq_retention": round(wfq_retention, 4),
            "fcfs_retention": round(fcfs_retention, 4),
        }
    record: dict[str, object] = {
        "demo": "fairness",
        "policy": "wfq",
        "tenants": {t.name: {"weight": t.weight,
                             "rate_multiplier": t.rate_multiplier,
                             "apps": list(t.apps),
                             "floor_opens_per_window":
                                 t.floor_opens_per_window}
                    for t in sorted(tenants, key=lambda t: t.name)},
        "wfq": wfq.to_record(),
        "fcfs": fcfs.to_record(),
        "retention": retention,
        "checks": {
            "retention_floor": RETENTION_FLOOR,
            "min_well_behaved_retention": round(min_retention, 4),
            "wfq_retention_ok": checks_ok,
            "fcfs_fails": fcfs_fails,
        },
    }
    if conformance is not None:
        record["_conformance"] = conformance
    return record
