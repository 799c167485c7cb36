"""Tier-2 benchmarks for the scenario-campaign engine.

Opt in with ``--tier2``.  ``test_micro_campaign_smoke`` runs the
4-scenario micro-campaign (flit, cycle-synchronous, cycle-mesochronous,
best-effort on one small mesh) across 2 worker processes, checks the
result set is clean and deterministic, and records the campaign
wall-clock in the ``--benchmark-json`` trajectory.

``test_campaign_fabric_streaming`` runs the sharded fabric on a ~10k-run
synthetic grid at 8 workers.  The grid's runs cost microseconds each,
so the measurement isolates what the fabric is made of: batched
dispatch, journalling and streaming aggregation into a checkpoint
workdir.  The benchmark asserts report byte-identity against the
in-process serial runner and that no full record list was ever
resident, and records runs/s into
``benchmarks/records/BENCH_campaign.json`` with ``--bench-record``.
(The seed runner's ``chunksize=1`` pool dispatch this file used to
race against is retired; its 4.37x is the first entry of that record.)
"""

from __future__ import annotations

import os
import resource
import time

import pytest

from repro.campaign import (CampaignRunner, micro_campaign,
                            synthetic_campaign)


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


def test_campaign_fabric_streaming(tier2, bench_record, tmp_path):
    """Sharded streaming fabric == serial runner, one record resident."""
    n = int(os.environ.get("CAMPAIGN_BENCH_RUNS", "10000"))
    n_scenarios = max(1, min(100, n // 100))
    n_seeds = max(1, n // n_scenarios)
    spec = synthetic_campaign(n_scenarios=n_scenarios,
                              seeds=tuple(range(1, n_seeds + 1)), work=2)
    workers = int(os.environ.get("CAMPAIGN_BENCH_WORKERS", "8"))
    n_runs = len(spec.expand())

    serial_result = CampaignRunner(spec, workers=1).run()

    start = time.perf_counter()
    fabric_result = CampaignRunner(
        spec, workers=workers, workdir=tmp_path / "wd",
        keep_records=False).run()
    fabric_s = time.perf_counter() - start

    # Streaming aggregation held no record list: the canonical report
    # comes back out of the shard journals, byte-identical to the
    # all-in-memory serial run.
    assert fabric_result.records == []
    aggregate = fabric_result.meta["aggregate"]
    assert aggregate["streaming"] is True
    assert aggregate["peak_resident_records"] <= 1
    assert fabric_result.to_json() == serial_result.to_json()
    assert fabric_result.n_runs == n_runs

    peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   / 1024.0)
    path = bench_record(
        "campaign", wall_s=fabric_s, ops_per_s=n_runs / fabric_s,
        n_runs=n_runs, workers=workers,
        batches=fabric_result.meta["dispatch"]["batches"],
        peak_resident_records=aggregate["peak_resident_records"],
        parent_peak_rss_mb=round(peak_rss_mb, 1))
    if path is not None:
        print(f"\nrecorded campaign trajectory entry -> {path}")
    print(f"\ncampaign fabric: {n_runs} runs, {workers} workers: "
          f"{fabric_s:.2f}s ({n_runs / fabric_s:,.0f} runs/s)")
