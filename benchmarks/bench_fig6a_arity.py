"""Figure 6(a): area and maximum frequency versus router arity.

Paper series (32-bit, maximum-frequency synthesis): area grows roughly
linearly with arity from ~6 k to ~30 k um^2 despite the quadratic mux
tree; maximum frequency declines from ~1.3 GHz to ~850 MHz.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.figures import figure6a_rows
from repro.experiments.report import format_table


def test_figure6a_arity_scaling():
    rows = figure6a_rows()
    print()
    print(format_table(rows, title="Figure 6(a) — area & fmax vs arity "
                                   "(32-bit, max effort)"))
    arities = np.array([row["arity"] for row in rows], dtype=float)
    areas = np.array([row["area_um2"] for row in rows], dtype=float)
    freqs = np.array([row["max_frequency_mhz"] for row in rows],
                     dtype=float)
    # Area roughly linear in arity: linear fit explains >= 99 %.
    coeffs = np.polyfit(arities, areas, 1)
    prediction = np.polyval(coeffs, arities)
    residual = np.sum((areas - prediction) ** 2)
    total = np.sum((areas - areas.mean()) ** 2)
    assert 1 - residual / total > 0.99
    # Frequency declines monotonically, ~1.3 GHz down to ~800-900 MHz.
    assert list(freqs) == sorted(freqs, reverse=True)
    assert 1150 <= freqs[0] <= 1400
    assert 750 <= freqs[-1] <= 900
