"""Section VII cost comparisons: FIFOs, mesochronous router, ratios.

Paper anchors regenerated here:

* 4-word bi-synchronous FIFO: ~1,500 um^2 custom, ~3,300 um^2 standard
  cell;
* complete mesochronous arity-5 router: ~0.032 mm^2;
* aelite versus the Æthereal GS+BE router: roughly 5x smaller, ~1.5x
  the frequency; versus [4] (0.082 mm^2) and [7] (0.12 mm^2);
* arity-6, 64-bit router: tens of GB/s for ~0.03 mm^2;
* use-case router-network cost roughly 5x higher for the GS+BE option
  at its required operating point.
"""

from __future__ import annotations

from repro.experiments.area_comparison import (fifo_rows,
                                               headline_ratio_rows,
                                               mesochronous_rows,
                                               related_work_rows,
                                               throughput_rows)
from repro.experiments.report import format_table
from repro.experiments.section7 import cost_rows


def test_fifo_and_link_stage_costs():
    rows = fifo_rows()
    print()
    print(format_table(rows, title="Bi-synchronous FIFO cost (4 words)"))
    print()
    print(format_table(mesochronous_rows(),
                       title="Mesochronous arity-5 router"))
    by_name = {row["fifo"]: row["area_um2"] for row in rows}
    assert 1_300 <= by_name["4-word custom [18]"] <= 1_800
    assert 3_000 <= by_name["4-word standard-cell [14]"] <= 3_700
    meso_total = mesochronous_rows()[-1]["area_mm2"]
    assert 0.028 <= meso_total <= 0.037  # paper: ~0.032 mm^2


def test_related_work_and_headline_ratios():
    rows = related_work_rows()
    print()
    print(format_table(rows, title="Related-work comparison (arity-5, "
                                   "90 nm)"))
    ratios = headline_ratio_rows()
    print()
    print(format_table(ratios, title="aelite vs AEthereal GS+BE"))
    area_ratio = next(r["ratio"] for r in ratios
                      if r["metric"] == "area (mm^2)")
    freq_ratio = next(r["ratio"] for r in ratios
                      if r["metric"] == "frequency (MHz)")
    # Paper: "roughly 5x smaller area and 1.5x the frequency".
    assert 3.5 <= area_ratio <= 6.0
    assert 1.3 <= freq_ratio <= 1.7
    # aelite + links is cheaper than both published reference designs.
    by_design = {row["design"]: row["area_mm2"] for row in rows}
    aelite_meso = by_design["aelite router + mesochronous links"]
    assert aelite_meso < by_design["Miro Panades et al. [4] mesochronous"]
    assert aelite_meso < by_design["Beigne et al. [7] asynchronous"]


def test_throughput_per_area():
    rows = throughput_rows()
    print()
    print(format_table(rows, title="Raw throughput per area"))
    arity6_64 = next(r for r in rows if r["router"] == "arity-6, 64-bit")
    # Paper: 64 GB/s at ~0.03 mm^2 — we require >= 64 GB/s at <= 0.04.
    assert arity6_64["aggregate_gb_s"] >= 64
    assert arity6_64["area_mm2"] <= 0.040


def test_usecase_network_cost_ratio(section7):
    _, config = section7
    rows = cost_rows(config)
    print()
    print(format_table(rows, title="Section VII — router-network cost"))
    ratio = rows[-1]["network_mm2"]
    # Paper: "the cost of the router network is roughly 5 times as high".
    assert 4.0 <= ratio <= 7.0
