"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper, but quantified justifications of constants
the paper fixes: slot-table size, the 4-word FIFO, greedy allocation
order, and the one-slot price of each link pipeline stage.
"""

from __future__ import annotations

from repro.experiments.ablations import (fifo_depth_rows, ordering_rows,
                                         pipeline_stage_rows,
                                         table_size_rows)
from repro.experiments.report import format_table


def test_ablation_table_size():
    rows = table_size_rows()
    print()
    print(format_table(rows, title="Ablation — slot-table size"))
    by_size = {row["table_size"]: row for row in rows}
    # Too-small tables fail; the paper-scale table (32) succeeds.
    assert by_size[4]["allocated"] == 0
    assert by_size[32]["all_met"]
    # Larger tables monotonically raise the mean latency bound.
    bounds = [row["mean_latency_bound_ns"] for row in rows
              if row["allocated"]]
    assert bounds == sorted(bounds)


def test_ablation_fifo_depth():
    rows = fifo_depth_rows()
    print()
    print(format_table(rows, title="Ablation — link-stage FIFO depth"))
    by_depth = {row["fifo_words"]: row for row in rows}
    assert not by_depth[3]["tolerates_half_cycle_skew"]
    assert by_depth[4]["tolerates_half_cycle_skew"]
    assert by_depth[4]["verdict"] == "minimum sufficient"
    # Deeper FIFOs only cost area.
    assert by_depth[8]["area_um2"] > by_depth[4]["area_um2"]


def test_ablation_allocation_order():
    rows = ordering_rows()
    print()
    print(format_table(rows, title="Ablation — allocation order"))
    by_order = {row["order"]: row for row in rows}
    # Hardest-first must succeed on the reference workload.
    assert by_order["tightness"]["allocated"] > 0
    assert by_order["tightness"]["all_met"]


def test_ablation_pipeline_stages():
    rows = pipeline_stage_rows()
    print()
    print(format_table(rows, title="Ablation — link pipeline stages"))
    slots = [row["traversal_slots"] for row in rows]
    # Each stage on each of the two router-router links adds one slot.
    assert slots == [4, 6, 8, 10]
