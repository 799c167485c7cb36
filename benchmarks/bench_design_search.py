"""Tier-2 gate: analytical pruning vs exhaustive design screening.

Opt in with ``--tier2``.  Dimensions a churn-derived workload
(180 expected-concurrent sessions, Little's law over a hot arrival
profile) across a 24-candidate screening grid — 12 topologies x 2
slot-table sizes — twice through the same
:class:`~repro.design.explorer.DesignExplorer`:

* ``prune=True`` — the production path: every candidate first passes
  the analytical lower bounds (NI serialisation, aggregate capacity,
  coordinate bisection, latency floors); provably infeasible
  candidates never reach the allocator, and survivors' bisections are
  floor-tightened;
* ``prune=False`` — the reference: every candidate goes straight to
  allocation, so each infeasible one costs a full failing ``configure``
  at its frequency ceiling.

Both paths must agree on which candidates are feasible (pruning is a
sound screen, not a heuristic), and the pruned search must be at least
``TARGET_SPEEDUP`` times faster over the whole grid.
"""

from __future__ import annotations

import time

import pytest

from repro.campaign.spec import TopologySpec
from repro.design import DesignExplorer, DesignSpace, workload_from_churn
from repro.service.churn import ChurnSpec

TARGET_SPEEDUP = 2.0

#: Screening grid: one feasible corner (the torus at a 16-slot table),
#: the rest analytically infeasible for the workload below.
GRID_TOPOLOGIES = (
    TopologySpec(kind="mesh", cols=3, rows=3, nis_per_router=4),
    TopologySpec(kind="cmesh", cols=4, rows=3, nis_per_router=4),
    TopologySpec(kind="mesh", cols=4, rows=3, nis_per_router=3),
    TopologySpec(kind="mesh", cols=4, rows=4, nis_per_router=3),
    TopologySpec(kind="mesh", cols=5, rows=2, nis_per_router=4),
    TopologySpec(kind="mesh", cols=5, rows=3, nis_per_router=3),
    TopologySpec(kind="mesh", cols=6, rows=2, nis_per_router=3),
    TopologySpec(kind="torus", cols=3, rows=3, nis_per_router=4),
    TopologySpec(kind="ring", cols=8, nis_per_router=4),
    TopologySpec(kind="ring", cols=9, nis_per_router=4),
    TopologySpec(kind="ring", cols=10, nis_per_router=4),
    TopologySpec(kind="ring", cols=12, nis_per_router=3),
)
TABLE_SIZES = (8, 16)


def _space(prune: bool) -> DesignSpace:
    return DesignSpace(topologies=GRID_TOPOLOGIES,
                       table_sizes=TABLE_SIZES,
                       mappings=("round_robin",),
                       max_frequency_mhz=600.0,
                       tolerance_mhz=50.0,
                       prune=prune)


def _ok_points(report) -> dict[str, float]:
    return {r["scenario"]: r["result"]["operating_frequency_mhz"]
            for r in report.records if r["status"] == "ok"}


def test_pruned_screening_speedup(tier2):
    use_case = workload_from_churn(
        ChurnSpec(n_sessions=200, arrival_rate_per_s=9000.0),
        seed=2009, n_ips=32)

    def explore(prune: bool):
        explorer = DesignExplorer(use_case=use_case, space=_space(prune),
                                  workers=1)
        start = time.perf_counter()
        report = explorer.explore()
        return report, time.perf_counter() - start

    # Warm pass per mode, doubling as the soundness gate: pruning may
    # only skip provably infeasible work, never change the feasible set.
    pruned_report, _ = explore(True)
    full_report, _ = explore(False)
    assert pruned_report.count("pruned") >= len(GRID_TOPOLOGIES)
    assert full_report.count("pruned") == 0
    pruned_ok = _ok_points(pruned_report)
    full_ok = _ok_points(full_report)
    assert set(pruned_ok) == set(full_ok) and pruned_ok
    for name, mhz in pruned_ok.items():
        assert abs(mhz - full_ok[name]) <= 50.0  # within the tolerance
    assert pruned_report.front

    pruned_s = min(explore(True)[1] for _ in range(3))
    full_s = min(explore(False)[1] for _ in range(3))
    speedup = full_s / pruned_s
    assert speedup >= TARGET_SPEEDUP, (
        f"analytical pruning only {speedup:.2f}x faster than exhaustive "
        f"screening (target >= {TARGET_SPEEDUP}x)")
