"""Figure 6(b): area and maximum frequency versus data width (arity 6).

Paper series: area linear in width from ~20 k to ~160 k um^2; maximum
frequency declining linearly from ~880 to ~740 MHz.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.figures import figure6b_rows
from repro.experiments.report import format_table


def test_figure6b_width_scaling():
    rows = figure6b_rows()
    print()
    print(format_table(rows, title="Figure 6(b) — area & fmax vs data "
                                   "width (arity-6, max effort)"))
    widths = np.array([row["word_width_bits"] for row in rows],
                      dtype=float)
    areas = np.array([row["area_um2"] for row in rows], dtype=float)
    freqs = np.array([row["max_frequency_mhz"] for row in rows],
                     dtype=float)
    # Area linear in width (R^2 >= 0.999).
    coeffs = np.polyfit(widths, areas, 1)
    prediction = np.polyval(coeffs, widths)
    r_squared = 1 - np.sum((areas - prediction) ** 2) / \
        np.sum((areas - areas.mean()) ** 2)
    assert r_squared > 0.999
    # ~32-bit point around 20-25 k, 256-bit around 140-170 k.
    assert 19_000 <= areas[0] <= 27_000
    assert 140_000 <= areas[-1] <= 175_000
    # Frequency declines with width, roughly 15 % over the sweep.
    assert list(freqs) == sorted(freqs, reverse=True)
    assert 0.80 <= freqs[-1] / freqs[0] <= 0.92
