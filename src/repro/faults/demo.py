"""The churn+faults experiment behind the ``mode="faults"`` kind.

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
4. fold the two runs into one survivability record
   (admission-retention, guarantee-retention, session survival).

``python -m repro faults --demo`` runs this through the
``faults_demo`` campaign preset (:mod:`repro.campaign.presets`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simulation.composability import replay_traffic, verify_timeline
from repro.telemetry.hub import coalesce

__all__ = ["survivability_record", "FaultRunOutcome",
           "run_churn_with_faults"]


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
    ``timeline`` the replayable churn+fault trace and ``verdict`` the
    fault-survivor composability check.
    """

    baseline: object
    faulty: object
    timeline: object
    verdict: object


def run_churn_with_faults(topology, events, schedule, *,
                          table_size: int, frequency_hz: float,
                          horizon_slots: int, name: str = "faults",
                          seed: int = 0, backend_factory=None,
                          scenario: str | None = None, telemetry=None,
                          monitor=None) -> FaultRunOutcome:
    """Run identical churn healthy and degraded, then replay and verify.

    The ``mode="faults"`` kind's orchestration: healthy baseline,
    churn merged with the fault schedule (timeline recorded only for
    the degraded run — the baseline's would be discarded), timeline
    fit, and the fault-survivor composability check on
    ``backend_factory`` (default: the flit-level TDM backend).
    ``telemetry`` instruments the *degraded* run — that is the one
    whose admission/fault behaviour is under study.  ``monitor`` (a :class:`~repro.telemetry.monitor.
    MonitorSpec`) arms the conformance watchdog on the degraded service
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
                           verdict=verdict)
