"""The ``python -m repro faults --demo`` flow.

Measures what survives a degrading fabric, quantitatively:

1. run a seeded churn workload through the online control plane
   *without* faults — the healthy baseline;
2. run the identical churn merged with a seeded fault schedule (link
   and router failures with repairs): fault-hit sessions are
   force-released and re-admitted through the normal admission path,
   every transition recorded onto the reconfiguration timeline;
3. fit the churn+fault timeline into a simulation horizon and verify
   dynamic composability on the flit-level TDM backend — every
   fault-survivor's trace must be bit-identical to its solo reference;
4. exercise the allocator layer directly:
   :meth:`~repro.core.allocation.Allocation.rebuild_excluding` of the
   final live allocation around the schedule's first failure, with
   per-channel verdicts;
5. aggregate everything into one survivability report
   (admission-retention, guarantee-retention, session survival).

The whole flow runs twice and the demo asserts the two canonical JSON
reports are byte-identical — the same self-check as the campaign,
serve, replay and design demos.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.model import FaultSchedule, FaultSpec
from repro.simulation.composability import replay_traffic, verify_timeline
from repro.telemetry.checked import run_twice
from repro.telemetry.hub import coalesce
from repro.topology.builders import mesh

__all__ = ["demo_fault_spec", "survivability_record", "FaultRunOutcome",
           "run_churn_with_faults", "run_faults_demo"]


def demo_fault_spec(n_faults: int) -> FaultSpec:
    """The demo adversary: ``n_faults`` failures paced to land inside
    the ~20 ms the demo churn trace spans, most repaired quickly."""
    return FaultSpec(n_faults=n_faults, fault_rate_per_s=400.0,
                     mean_repair_s=0.004, router_fraction=0.25)


def survivability_record(baseline_totals: dict[str, object],
                         faulty_totals: dict[str, object],
                         fault_section: dict[str, object] | None
                         ) -> dict[str, object]:
    """Fold a faulty run and its healthy baseline into retention metrics.

    ``admission_retention`` is the faulty accept rate over the healthy
    one (capped at 1.0 — a fault cannot *improve* admission, but slot
    fragmentation noise can); ``guarantee_retention`` and
    ``session_survival`` come from the fault section of the degraded
    run's report.
    """
    base_rate = float(baseline_totals["accept_rate"])  # type: ignore
    fault_rate = float(faulty_totals["accept_rate"])  # type: ignore
    retention = fault_rate / base_rate if base_rate > 0 else 1.0
    section = fault_section or {}
    return {
        "baseline_accept_rate": round(base_rate, 4),
        "faulty_accept_rate": round(fault_rate, 4),
        "admission_retention": round(min(1.0, retention), 4),
        "guarantee_retention": section.get("guarantee_retention", 1.0),
        "session_survival": section.get("session_survival", 1.0),
        "n_evicted": section.get("n_evicted", 0),
        "n_reallocated": section.get("n_reallocated", 0),
        "n_dropped": section.get("n_dropped", 0),
    }


@dataclass
class FaultRunOutcome:
    """Everything one churn+faults experiment produces.

    ``baseline`` is the healthy run of the identical churn, ``faulty``
    the degraded run (its report carries the ``faults`` section),
    ``timeline`` the replayable churn+fault trace, ``verdict`` the
    fault-survivor composability check, and ``service`` the degraded
    service instance (its live allocation feeds rebuild studies).
    """

    baseline: object
    faulty: object
    timeline: object
    verdict: object
    service: object


def run_churn_with_faults(topology, events, schedule, *,
                          table_size: int, frequency_hz: float,
                          horizon_slots: int, name: str = "faults",
                          seed: int = 0, backend_factory=None,
                          scenario: str | None = None, telemetry=None,
                          monitor=None) -> FaultRunOutcome:
    """Run identical churn healthy and degraded, then replay and verify.

    The single orchestration shared by the demo and the campaign's
    ``mode="faults"`` runner: healthy baseline, churn merged with the
    fault schedule (timeline recorded only for the degraded run — the
    baseline's would be discarded), timeline fit, and the
    fault-survivor composability check on ``backend_factory`` (default:
    the flit-level TDM backend).  ``telemetry`` instruments the
    *degraded* run — that is the one whose admission/fault behaviour is
    under study.  ``monitor`` (a :class:`~repro.telemetry.monitor.
    MonitorSpec`) arms the conformance watchdog on the degraded service
    (quote conformance via ``outcome.service.conformance_report()``)
    and on the replay verification (``outcome.verdict.conformance``).
    """
    from repro.core.allocation import SlotAllocator
    from repro.service.controller import SessionService, merge_events

    tel = coalesce(telemetry)

    def service(record_timeline: bool, run_telemetry=None,
                run_monitor=None) -> SessionService:
        return SessionService(
            topology, allocator=SlotAllocator(
                topology, table_size=table_size, frequency_hz=frequency_hz),
            name=name, seed=seed, record_events=False,
            record_timeline=record_timeline, telemetry=run_telemetry,
            monitor=run_monitor)

    with tel.phase("baseline"):
        baseline_report = service(False).run(events)
    with tel.phase("degraded"):
        faulty = service(True, telemetry, monitor)
        faulty_report = faulty.run(
            merge_events(events, schedule.events()))
    with tel.phase("verify"):
        timeline = faulty.timeline(horizon_slots=horizon_slots)
        verdict = verify_timeline(timeline, replay_traffic(timeline),
                                  backend_factory=backend_factory,
                                  scenario=scenario or name,
                                  monitor=monitor)
    return FaultRunOutcome(baseline=baseline_report,
                           faulty=faulty_report, timeline=timeline,
                           verdict=verdict, service=faulty)


def run_faults_demo(*, n_events: int = 240, n_slots: int = 3000,
                    n_faults: int = 6, seed: int = 2009, telemetry=None,
                    monitor=None
                    ) -> tuple[dict[str, object], str, bool]:
    """Run the fault demo twice; return (record, json, byte-identical?).

    The record carries the healthy baseline, the degraded run (with its
    ``faults`` section), the survivability fold, the flit-level dynamic
    composability verdict for the churn+fault timeline, and the static
    ``rebuild_excluding`` study around the schedule's first failure.
    ``telemetry`` instruments the *first* run only, so byte-identity
    doubles as the telemetry-leak check.  ``monitor`` arms the
    conformance watchdog on the first run; its fault-survivor
    :class:`~repro.telemetry.monitor.ConformanceReport` rides under the
    record's ``"_conformance"`` key, which the canonical JSON leaves
    out, so the demo report stays byte-identical with the monitor on
    or off.
    """
    # Local imports: campaign.spec imports service.churn which would
    # cycle through the package __init__s at module scope.
    from repro.campaign.spec import derive_seed
    from repro.service.churn import ChurnWorkload
    from repro.service.demo import (DEMO_FREQUENCY_HZ, DEMO_TABLE_SIZE,
                                    demo_churn_spec)

    with coalesce(telemetry).phase("workload"):
        # The replay demo's topology: a 3x3 mesh with two NIs per router
        # has enough path diversity for rerouting to actually happen.
        topology = mesh(3, 3, nis_per_router=2)
        workload = ChurnWorkload(demo_churn_spec(n_events), topology,
                                 derive_seed(seed, "faults-demo"))
        events = workload.events(limit=n_events)
        schedule = FaultSchedule(
            demo_fault_spec(n_faults), topology,
            derive_seed(seed, "faults-demo", "schedule"))

    def one_run(run_telemetry, run_monitor) -> dict[str, object]:
        outcome = run_churn_with_faults(
            topology, events, schedule, table_size=DEMO_TABLE_SIZE,
            frequency_hz=DEMO_FREQUENCY_HZ, horizon_slots=n_slots,
            name="faults-demo", seed=seed, scenario="faults-demo",
            telemetry=run_telemetry, monitor=run_monitor)
        baseline_report = outcome.baseline
        faulty_report = outcome.faulty
        timeline = outcome.timeline
        verdict = outcome.verdict
        first_fail = next(e for e in schedule.events()
                          if e.action == "fail")
        rebuild = outcome.service.allocation.rebuild_excluding(
            failed_links=([first_fail.target]
                          if first_fail.kind == "link" else ()),
            failed_routers=([first_fail.target]
                            if first_fail.kind == "router" else ()),
            telemetry=run_telemetry)
        record = {
            "demo": "faults",
            "seed": seed,
            "n_events": len(events),
            "n_fault_events": len(schedule.events()),
            "horizon_slots": n_slots,
            "fault_schedule": [
                {"t_ms": round(e.time_s * 1e3, 4), "action": e.action,
                 "kind": e.kind, "target": e.target_label}
                for e in schedule.events()],
            "baseline": baseline_report.to_record(),
            "faulty": faulty_report.to_record(),
            "survivability": survivability_record(
                baseline_report.totals, faulty_report.totals,
                faulty_report.faults),
            "composability": verdict.to_record(),
            "rebuild_first_failure": rebuild.to_record(),
        }
        if verdict.conformance is not None:
            record["_conformance"] = verdict.conformance
        return record

    return run_twice(one_run, telemetry=telemetry, monitor=monitor,
                     phases=(None, "re-run"))
