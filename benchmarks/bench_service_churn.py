"""Tier-2 benchmark: session-churn throughput of the admission service.

Opt in with ``--tier2``.  Runs a 10 000-event seeded churn trace
(Poisson arrivals, heavy-tailed holds, the default QoS mix) on the
Section VII mesh (4x3 concentrated mesh, 4 NIs per router, 32-slot
tables at 500 MHz) and measures steady-state control-plane throughput.

The allocator — and with it the k-shortest-path and quote caches — is
warmed by a first full pass, so the measurement tracks the admission
*hot path* (bitmask intersection + single-anchor spreading + commit),
which is the figure the service is engineered around: the issue target
is >= 10k session events/sec, asserted here and recorded in
``extra_info`` so the trajectory lands in ``--benchmark-json`` output.
"""

from __future__ import annotations

import time

import pytest

from repro.core.allocation import SlotAllocator
from repro.service import ChurnSpec, ChurnWorkload, SessionService
from repro.topology.builders import concentrated_mesh

TABLE_SIZE = 32
FREQUENCY_HZ = 500e6
TARGET_EVENTS_PER_S = 10_000


def test_service_churn_throughput(benchmark, tier2):
    topology = concentrated_mesh(4, 3, nis_per_router=4)
    workload = ChurnWorkload(
        ChurnSpec(n_sessions=5000, arrival_rate_per_s=5000.0),
        topology, seed=42)
    events = workload.events()
    allocator = SlotAllocator(topology, table_size=TABLE_SIZE,
                              frequency_hz=FREQUENCY_HZ)

    def churn_run():
        service = SessionService(topology, allocator=allocator,
                                 record_events=False)
        start = time.perf_counter()
        report = service.run(events)
        return report, time.perf_counter() - start

    # Warm pass: populates the allocator's path/quote caches (and is
    # also the correctness gate — clean run, invariant intact).
    warm_report, _ = churn_run()
    assert warm_report.invariant["ok"]
    assert warm_report.totals["n_events"] == len(events)
    assert warm_report.totals["accept_rate"] > 0.9

    report, wall_s = benchmark.pedantic(churn_run, rounds=3, iterations=1)
    events_per_s = len(events) / wall_s
    benchmark.extra_info["n_events"] = len(events)
    benchmark.extra_info["events_per_s"] = round(events_per_s)
    benchmark.extra_info["admit_mean_us"] = round(
        report.timing.get("admit_mean_us", 0.0), 1)
    # Determinism under churn: the warm and measured runs replay the
    # identical stream, so their canonical reports must be byte-equal.
    assert report.to_json() == warm_report.to_json()
    assert events_per_s >= TARGET_EVENTS_PER_S, (
        f"admission hot path regressed: {events_per_s:,.0f} events/s "
        f"< {TARGET_EVENTS_PER_S:,} target")
