"""The ``python -m repro replay --demo`` flow.

Round-trips a recorded service trace into simulated, verified traces:

1. run a seeded churn workload through the online control plane
   (:class:`~repro.service.controller.SessionService`) with timeline
   recording on;
2. fit the recorded start/stop trace into a simulation horizon as a
   :class:`~repro.core.timeline.ReconfigurationTimeline`;
3. execute the timeline on the flit-level TDM backend and verify
   dynamic composability — every surviving session's trace must be
   bit-identical to its solo reference across all reconfiguration
   epochs;
4. execute the same timeline on the best-effort baseline, where the
   same churn demonstrably perturbs the survivors.

The whole flow runs twice and the demo asserts the two canonical JSON
reports are byte-identical, the same self-check the campaign and serve
demos perform.

The demo topology is a 3x3 mesh with two NIs per router — denser than
the Section VII mesh relative to its size, so best-effort sharing
(queues, ports, buffers) between sessions is actually exercised.
"""

from __future__ import annotations

from repro.simulation.backend import BestEffortBackend
from repro.simulation.composability import replay_traffic, verify_timeline
from repro.telemetry.checked import run_twice
from repro.telemetry.hub import coalesce
from repro.topology.builders import mesh

__all__ = ["run_replay_demo"]


def run_replay_demo(*, n_events: int = 240, n_slots: int = 3000,
                    seed: int = 2009, telemetry=None, monitor=None
                    ) -> tuple[dict[str, object], str, bool]:
    """Run the replay demo twice; return (record, json, byte-identical?).

    The returned record carries the full timeline (every transition with
    its route and slots) plus the churn-vs-solo verdict per backend; the
    JSON string is its canonical serialisation.  ``telemetry``
    instruments the *first* run only (control plane and flit backend),
    so byte-identity doubles as the telemetry-leak check.  ``monitor``
    arms the conformance watchdog on the first run's flit-level
    verification; the resulting
    :class:`~repro.telemetry.monitor.ConformanceReport` rides under the
    record's ``"_conformance"`` key, which the canonical JSON leaves
    out, preserving byte-identity monitor-on vs monitor-off.
    """
    # Local imports: campaign.spec imports service.churn which would
    # cycle through the package __init__s at module scope.
    from repro.campaign.spec import derive_seed
    from repro.core.allocation import SlotAllocator
    from repro.service.churn import ChurnWorkload
    from repro.service.controller import SessionService
    from repro.service.demo import (DEMO_FREQUENCY_HZ, DEMO_TABLE_SIZE,
                                    demo_churn_spec)
    from repro.simulation.backend import FlitLevelBackend

    with coalesce(telemetry).phase("workload"):
        topology = mesh(3, 3, nis_per_router=2)
        # The serve demo's workload and operating point, on a denser
        # (relative) mesh; the sessions still open when truncation cuts
        # the stream are the replay's survivors.
        workload = ChurnWorkload(demo_churn_spec(n_events), topology,
                                 derive_seed(seed, "replay-demo"))
        events = workload.events(limit=n_events)

    def one_run(run_telemetry, run_monitor) -> dict[str, object]:
        run_tel = coalesce(run_telemetry)
        service = SessionService(
            topology, allocator=SlotAllocator(
                topology, table_size=DEMO_TABLE_SIZE,
                frequency_hz=DEMO_FREQUENCY_HZ),
            name="replay-demo",
            seed=seed, record_events=False, record_timeline=True,
            telemetry=run_telemetry)
        service.run(events)
        timeline = service.timeline(horizon_slots=n_slots)
        traffic = replay_traffic(timeline)
        flit = verify_timeline(
            timeline, traffic, scenario="replay-demo",
            monitor=run_monitor,
            backend_factory=lambda config: FlitLevelBackend(
                config, telemetry=run_telemetry))
        with run_tel.phase("best-effort"):
            be = verify_timeline(timeline, traffic,
                                 backend_factory=BestEffortBackend,
                                 scenario="replay-demo")
        record = {
            "demo": "replay",
            "seed": seed,
            "n_events": len(events),
            "horizon_slots": n_slots,
            "timeline": timeline.to_record(),
            "verdicts": {"flit": flit.to_record(),
                         "be": be.to_record()},
        }
        if flit.conformance is not None:
            record["_conformance"] = flit.conformance
        return record

    return run_twice(one_run, telemetry=telemetry, monitor=monitor,
                     phases=("replay", "verify"))
