"""The ``python -m repro serve --demo`` flow.

Runs a seeded churn trace on the Section VII mesh (4x3 concentrated
mesh, 4 NIs per router, 32-slot tables at 500 MHz) end to end — twice.
The second run replays the identical event stream against a fresh
service instance and the demo asserts the two canonical JSON reports
are byte-identical, the same self-check the campaign CLI performs for
its serial/parallel split.
"""

from __future__ import annotations

from repro.core.allocation import SlotAllocator
from repro.service.churn import ChurnSpec, ChurnWorkload
from repro.service.controller import SessionService
from repro.service.metrics import ServiceReport
from repro.telemetry.checked import run_twice
from repro.telemetry.hub import coalesce
from repro.topology.builders import concentrated_mesh

__all__ = ["demo_churn_spec", "run_demo"]

#: Section VII operating point.
DEMO_TABLE_SIZE = 32
DEMO_FREQUENCY_HZ = 500e6


def demo_churn_spec(n_events: int) -> ChurnSpec:
    """The demo workload: enough sessions to fill ``n_events`` events."""
    # Every session contributes at most two events; generate a small
    # surplus so truncation, not exhaustion, decides the stream length.
    return ChurnSpec(n_sessions=max(1, (n_events + 1) // 2 + 8))


def run_demo(*, n_events: int = 2000, seed: int = 2009,
             telemetry=None, monitor=None) -> tuple[ServiceReport, bool]:
    """Run the demo trace twice; return (report, byte-identical?).

    ``telemetry`` instruments the *first* run only; the second run is
    always bare, so the byte-identity verdict doubles as proof that
    instrumentation never leaks into the report.  ``monitor`` (a
    :class:`~repro.telemetry.monitor.MonitorSpec`, or ``True`` for the
    default) arms the conformance watchdog on the first run and
    attaches its quote verdict as ``report.conformance`` — outside the
    canonical record, so the byte-identity check still holds.
    """
    # Local import: campaign.spec imports service.churn, so importing it
    # at module scope would cycle through the package __init__s.
    from repro.campaign.spec import derive_seed

    with coalesce(telemetry).phase("workload"):
        topology = concentrated_mesh(4, 3, nis_per_router=4)
        spec = demo_churn_spec(n_events)
        workload = ChurnWorkload(spec, topology,
                                 derive_seed(seed, "serve-demo"))
        events = workload.events(limit=n_events)

    def one_run(run_telemetry=None, run_monitor=None) -> ServiceReport:
        service = SessionService(
            topology, allocator=SlotAllocator(
                topology, table_size=DEMO_TABLE_SIZE,
                frequency_hz=DEMO_FREQUENCY_HZ),
            name="serve-demo",
            seed=seed, telemetry=run_telemetry, monitor=run_monitor)
        report = service.run(events)
        if service.monitor is not None:
            report.conformance = service.conformance_report(
                scenario="serve-demo")
        return report

    report, _, identical = run_twice(
        one_run, ServiceReport.to_json, telemetry=telemetry,
        monitor=monitor, phases=("serve", "verify"))
    return report, identical
