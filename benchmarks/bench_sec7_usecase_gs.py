"""Section VII use case, guaranteed-service side.

Paper claims regenerated here:

* 200 connections / 4 applications / 70 IPs on a 4x3 concentrated mesh
  allocate successfully at 500 MHz;
* simulation shows every connection's service latency within both its
  requirement and the analytical bound (predictability);
* removing applications leaves the survivors' flit traces bit-identical
  (composability).
"""

from __future__ import annotations

from repro.experiments.report import format_table
from repro.experiments.section7 import composability_rows, usecase_gs_rows
from repro.usecase.runner import run_gs


def test_section7_gs_meets_all_requirements(section7):
    _, config = section7
    outcome = run_gs(config, n_slots=2500)
    print()
    print(format_table(usecase_gs_rows(config, n_slots=2500),
                       title="Section VII — aelite GS @ 500 MHz"))
    assert outcome.all_requirements_met
    assert outcome.all_within_bounds
    assert outcome.n_measured == 200


def test_section7_composability_bit_identical(section7):
    _, config = section7
    rows = composability_rows(config, n_slots=1200)
    print()
    print(format_table(rows, title="Section VII — application isolation"))
    assert all(row["composable"] for row in rows)
    assert all(row["diverged"] == 0 for row in rows)
