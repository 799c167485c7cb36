"""Figure 5 and Figure 6 of the paper: synthesis sweeps.

* **Figure 5** — cell area versus target frequency for an arity-5,
  32-bit router: flat until ~650 MHz, a knee after 750 MHz, saturation
  around 875 MHz, below 0.015 mm^2 up to 650 MHz.
* **Figure 6(a)** — area and maximum frequency versus arity (2..7) at
  32-bit: area grows roughly linearly with arity despite the mux tree;
  frequency declines from ~1.3 GHz towards ~850 MHz.
* **Figure 6(b)** — area and maximum frequency versus data width
  (32..256 bit) for an arity-6 router: area linear in width, frequency
  declining linearly.

Each function returns plot-ready rows; the benchmarks print them and
EXPERIMENTS.md records the paper-versus-measured comparison.
"""

from __future__ import annotations

from repro.core.words import WordFormat
from repro.synthesis.timing_model import (frequency_sweep,
                                          max_frequency_hz,
                                          router_area_at_frequency_um2)

__all__ = ["figure5_rows", "figure6a_rows", "figure6b_rows",
           "FIG5_TARGETS_MHZ", "FIG6A_ARITIES", "FIG6B_WIDTHS"]

#: Target frequencies of the Figure 5 sweep (MHz), matching its x-axis.
FIG5_TARGETS_MHZ = [500, 525, 550, 575, 600, 625, 650, 675, 700, 725,
                    750, 775, 800, 825, 850, 875]

#: Arity range of Figure 6(a).
FIG6A_ARITIES = [2, 3, 4, 5, 6, 7]

#: Data widths of Figure 6(b).
FIG6B_WIDTHS = [32, 64, 96, 128, 160, 192, 224, 256]


def figure5_rows() -> list[dict[str, object]]:
    """Area/target-frequency trade-off rows (Figure 5): arity 5, 32 bit."""
    points = frequency_sweep(5, [m * 1e6 for m in FIG5_TARGETS_MHZ],
                             WordFormat())
    return [{
        "target_mhz": p.target_mhz,
        "achieved_mhz": round(p.achieved_mhz, 1),
        "area_um2": round(p.area_um2),
        "area_mm2": round(p.area_mm2, 4),
    } for p in points]


def figure6a_rows() -> list[dict[str, object]]:
    """Area and max frequency versus arity (Figure 6a), 32 bit."""
    fmt = WordFormat()
    rows = []
    for arity in FIG6A_ARITIES:
        fmax = max_frequency_hz(arity, fmt)
        area = router_area_at_frequency_um2(arity, fmax, fmt)
        rows.append({
            "arity": arity,
            "area_um2": round(area),
            "max_frequency_mhz": round(fmax / 1e6),
        })
    return rows


def figure6b_rows() -> list[dict[str, object]]:
    """Area and max frequency versus data width (Figure 6b), arity 6."""
    rows = []
    for width in FIG6B_WIDTHS:
        fmt = WordFormat(data_width=width)
        fmax = max_frequency_hz(6, fmt)
        area = router_area_at_frequency_um2(6, fmax, fmt)
        rows.append({
            "word_width_bits": width,
            "area_um2": round(area),
            "max_frequency_mhz": round(fmax / 1e6),
        })
    return rows
