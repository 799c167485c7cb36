"""Tier-2 gate: overhead of the weighted-fair admission tier.

Opt in with ``--tier2``.  Runs the same seeded tenanted
churn trace (abusive mix: one 10x flooding tenant among three
well-behaved ones) on the Section VII mesh twice — once under plain
FCFS admission and once under ``policy="wfq"`` with the full fairness
tier armed (WFQ gates, per-tenant/per-app throttles, overload
shedding, guaranteed floors) — and gates two figures:

* absolute throughput: the WFQ path must still clear the service
  target of >= 10k session events/sec on the warm admission path;
* relative overhead: the fairness tier must cost < 15% wall clock
  versus the FCFS baseline over the identical event stream.

FCFS on the same mesh is the faster path, so the throughput floor here
bounds it too; its time is reported by ``benchmarks/e2e``
(``churn_warm``).
"""

from __future__ import annotations

import time

import pytest

from repro.core.allocation import SlotAllocator
from repro.service import ChurnSpec, ChurnWorkload, SessionService
from repro.service.fairness import abusive_tenant_mix
from repro.service.fairness_demo import demo_fairness_spec
from repro.topology.builders import concentrated_mesh

TABLE_SIZE = 32
FREQUENCY_HZ = 500e6
TARGET_EVENTS_PER_S = 10_000
MAX_OVERHEAD = 0.15


def test_service_fairness_overhead(tier2):
    topology = concentrated_mesh(4, 3, nis_per_router=4)
    tenants = abusive_tenant_mix(3, floor_opens_per_window=2)
    workload = ChurnWorkload(
        ChurnSpec(n_sessions=5000, arrival_rate_per_s=18000.0,
                  tenants=tenants),
        topology, seed=42)
    events = workload.events()
    allocator = SlotAllocator(topology, table_size=TABLE_SIZE,
                              frequency_hz=FREQUENCY_HZ)

    def run(policy: str):
        kwargs = ({"policy": "wfq", "fairness": demo_fairness_spec(),
                   "tenants": tenants} if policy == "wfq" else {})
        service = SessionService(topology, allocator=allocator,
                                 record_events=False, **kwargs)
        start = time.perf_counter()
        report = service.run(events)
        return report, time.perf_counter() - start

    def timed(policy: str, rounds: int = 3):
        best = None
        for _ in range(rounds):
            report, wall_s = run(policy)
            best = wall_s if best is None else min(best, wall_s)
        return report, best

    # Warm pass on each policy: populates the allocator's path/quote
    # caches and gates correctness before anything is timed.
    warm_fcfs, _ = run("fcfs")
    warm_wfq, _ = run("wfq")
    assert warm_fcfs.invariant["ok"] and warm_wfq.invariant["ok"]
    assert warm_fcfs.totals["n_events"] == len(events)
    assert warm_wfq.tenants and warm_wfq.fairness

    fcfs_report, fcfs_wall = timed("fcfs")
    wfq_report, wfq_wall = timed("wfq")
    events_per_s = len(events) / wfq_wall
    overhead = wfq_wall / fcfs_wall - 1.0

    # Determinism under churn: warm and measured runs replay the
    # identical stream, so their canonical reports must be byte-equal.
    assert fcfs_report.to_json() == warm_fcfs.to_json()
    assert wfq_report.to_json() == warm_wfq.to_json()

    assert events_per_s >= TARGET_EVENTS_PER_S, (
        f"wfq admission path too slow: {events_per_s:,.0f} events/s "
        f"< {TARGET_EVENTS_PER_S:,} target")
    assert overhead < MAX_OVERHEAD, (
        f"fairness tier overhead {overhead:.1%} exceeds "
        f"{MAX_OVERHEAD:.0%} budget vs FCFS")
