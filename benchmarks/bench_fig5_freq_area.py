"""Figure 5: cell area versus target frequency, arity-5 32-bit router.

Paper series: ~14 k um^2 flat up to ~650 MHz (< 0.015 mm^2), knee after
750 MHz, saturation around 875 MHz at ~18 k um^2.  The test prints
the regenerated series and asserts its shape.
"""

from __future__ import annotations

from repro.experiments.figures import figure5_rows
from repro.experiments.report import format_table


def test_figure5_frequency_area_tradeoff():
    rows = figure5_rows()
    print()
    print(format_table(rows, title="Figure 5 — area vs target frequency "
                                   "(arity-5, 32-bit, 90 nm)"))
    areas = {row["target_mhz"]: row["area_um2"] for row in rows}
    # Under 0.015 mm^2 up to 650 MHz.
    assert areas[650.0] < 15_100
    # Monotically non-decreasing with target frequency.
    series = [row["area_um2"] for row in rows]
    assert series == sorted(series)
    # The knee: growth in the 750..875 region far exceeds 500..650.
    flat_growth = areas[650.0] - areas[500.0]
    knee_growth = areas[875.0] - areas[750.0]
    assert knee_growth > 4 * flat_growth
    # Saturation near 875 MHz at roughly +30 % over the flat region.
    assert 1.20 < areas[875.0] / areas[500.0] < 1.40
