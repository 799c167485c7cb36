"""Tier-2 benchmarks for the scenario-campaign engine.

Opt in with ``--tier2``.  ``test_micro_campaign_smoke`` runs the
4-scenario micro-campaign (flit, cycle-synchronous, cycle-mesochronous,
best-effort on one small mesh) across 2 worker processes, checks the
result set is clean and deterministic, and records the campaign
wall-clock in the ``--benchmark-json`` trajectory.

``test_campaign_fabric_speedup`` measures the sharded fabric against
the seed runner's dispatch strategy — one ``multiprocessing.Pool`` with
``imap_unordered(..., chunksize=1)`` shipping a fully pickled
:class:`~repro.campaign.spec.RunSpec` per task — on a ~10k-run
synthetic grid at 8 workers.  The grid's runs cost microseconds each,
so the measurement isolates exactly what the fabric changed: per-task
pickling, per-task IPC round-trips, and all-at-end aggregation.  The
fabric run uses streaming aggregation into a checkpoint workdir, and
the benchmark asserts the ≥ 2x speedup, report byte-identity against
the seed dispatch, and that no full record list was ever resident.
Record the measurement into ``benchmarks/records/BENCH_campaign.json``
with ``--bench-record``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import time

import pytest

from repro.campaign import (CampaignResult, CampaignRunner, micro_campaign,
                            synthetic_campaign)
from repro.campaign.runner import _timed_execute_run


def test_micro_campaign_smoke(benchmark, tier2):
    spec = micro_campaign()

    def run_campaign():
        start = time.perf_counter()
        result = CampaignRunner(spec, workers=2).run()
        return result, time.perf_counter() - start

    result, wall_clock_s = benchmark.pedantic(run_campaign, rounds=1,
                                              iterations=1)
    benchmark.extra_info["campaign_wall_clock_s"] = round(wall_clock_s, 4)
    benchmark.extra_info["n_runs"] = result.n_runs
    assert result.n_runs == 4
    assert result.n_failed == 0
    statuses = {record["status"] for record in result.records}
    assert statuses == {"ok"}
    # Determinism holds under the pool: re-running serially reproduces
    # the aggregated report byte for byte.
    serial = CampaignRunner(spec, workers=1).run()
    assert serial.to_json() == result.to_json()


def _seed_dispatch(spec, workers: int) -> CampaignResult:
    """The seed runner's execution strategy, preserved for comparison.

    One pool, ``chunksize=1``, a fully pickled ``RunSpec`` per task
    message, every record held in memory until the end — exactly what
    ``CampaignRunner.run`` did before the sharded fabric replaced it.
    """
    runs = sorted(spec.expand(), key=lambda r: r.run_id)
    records = []
    with multiprocessing.Pool(processes=workers) as pool:
        for envelope in pool.imap_unordered(_timed_execute_run, runs,
                                            chunksize=1):
            records.append(envelope["record"])
    records.sort(key=lambda r: r["run_id"])
    return CampaignResult(campaign=spec.name, base_seed=spec.base_seed,
                          records=records)


def test_campaign_fabric_speedup(tier2, bench_record, tmp_path):
    """Sharded batching dispatch ≥ 2x over seed chunksize=1 dispatch."""
    n = int(os.environ.get("CAMPAIGN_BENCH_RUNS", "10000"))
    n_scenarios = max(1, min(100, n // 100))
    n_seeds = max(1, n // n_scenarios)
    spec = synthetic_campaign(n_scenarios=n_scenarios,
                              seeds=tuple(range(1, n_seeds + 1)), work=2)
    workers = int(os.environ.get("CAMPAIGN_BENCH_WORKERS", "8"))
    n_runs = len(spec.expand())

    start = time.perf_counter()
    seed_result = _seed_dispatch(spec, workers)
    seed_s = time.perf_counter() - start

    start = time.perf_counter()
    fabric_result = CampaignRunner(
        spec, workers=workers, workdir=tmp_path / "wd",
        keep_records=False).run()
    fabric_s = time.perf_counter() - start

    speedup = seed_s / fabric_s
    # Streaming aggregation held no record list: the canonical report
    # comes back out of the shard journals, byte-identical to the
    # all-in-memory seed dispatch.
    assert fabric_result.records == []
    aggregate = fabric_result.meta["aggregate"]
    assert aggregate["streaming"] is True
    assert aggregate["peak_resident_records"] <= 1
    assert fabric_result.to_json() == seed_result.to_json()
    assert fabric_result.n_runs == n_runs
    assert speedup >= 2.0, (
        f"sharded fabric only {speedup:.2f}x over seed dispatch "
        f"({fabric_s:.2f}s vs {seed_s:.2f}s on {n_runs} runs)")

    peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   / 1024.0)
    path = bench_record(
        "campaign", wall_s=fabric_s, ops_per_s=n_runs / fabric_s,
        speedup=speedup, n_runs=n_runs, workers=workers,
        seed_wall_s=seed_s,
        batches=fabric_result.meta["dispatch"]["batches"],
        peak_resident_records=aggregate["peak_resident_records"],
        parent_peak_rss_mb=round(peak_rss_mb, 1))
    if path is not None:
        print(f"\nrecorded campaign trajectory entry -> {path}")
    print(f"\ncampaign fabric: {n_runs} runs, {workers} workers: "
          f"seed {seed_s:.2f}s -> fabric {fabric_s:.2f}s "
          f"({speedup:.2f}x)")
