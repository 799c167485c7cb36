"""Cost comparisons against Æthereal and related NoCs (Section VII).

Gathers the paper's comparison points into one queryable table:

* the aelite GS-only router (our structural model);
* the complete mesochronous aelite router (router + link stages);
* the Æthereal combined GS+BE router — structural model calibrated to
  the published 0.13 mm^2 / 500 MHz at 130 nm, scaled to 90 nm;
* literature reference points: the mesochronous GS router of
  Miro Panades et al. [4] (0.082 mm^2) and the asynchronous router of
  Beigne et al. [7] (0.12 mm^2 scaled from 130 nm).

The headline ratios the paper reports — roughly five times smaller and
1.5 times faster than the GS+BE Æthereal router — fall out of
:func:`aelite_vs_aethereal`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.words import WordFormat
from repro.synthesis.area_model import (RouterAreaModel,
                                        aethereal_gsbe_router_area_um2,
                                        mesochronous_router_area_um2)
from repro.synthesis.technology import (TECH_90LP, TECH_130,
                                        scale_area_um2,
                                        scale_frequency_hz)
from repro.synthesis.timing_model import (max_frequency_hz,
                                          router_area_at_frequency_um2)

__all__ = ["ComparisonRow", "related_work_table", "aelite_vs_aethereal",
           "throughput_per_area"]

#: Published cell areas of the related designs the paper cites, in mm^2
#: at 90 nm equivalents (the [7] figure is scaled from 130 nm in the
#: paper itself).
PANADES_MESOCHRONOUS_MM2 = 0.082
BEIGNE_ASYNC_MM2 = 0.12

#: Published Æthereal combined GS+BE numbers ([8]): 130 nm CMOS.
AETHEREAL_GSBE_MM2_130 = 0.13
AETHEREAL_GSBE_MHZ_130 = 500.0


@dataclass(frozen=True)
class ComparisonRow:
    """One design point in the cost-comparison table."""

    design: str
    area_mm2: float
    frequency_mhz: float | None
    service_levels: str
    composable: bool
    source: str


def related_work_table() -> list[ComparisonRow]:
    """The Section VII comparison table (arity-5, 32-bit routers at
    90 nm)."""
    aelite_fmax = max_frequency_hz(5)
    aelite_area = router_area_at_frequency_um2(5, aelite_fmax)
    meso_area = mesochronous_router_area_um2(5, 5)
    gsbe_area_130 = aethereal_gsbe_router_area_um2(5, tech=TECH_130)
    gsbe_area_90 = scale_area_um2(gsbe_area_130, TECH_130, TECH_90LP)
    gsbe_mhz_90 = scale_frequency_hz(AETHEREAL_GSBE_MHZ_130 * 1e6,
                                     TECH_130, TECH_90LP) / 1e6
    return [
        ComparisonRow("aelite GS-only router", aelite_area / 1e6,
                      aelite_fmax / 1e6, "unlimited (TDM)", True,
                      "this model"),
        ComparisonRow("aelite router + mesochronous links",
                      meso_area / 1e6, aelite_fmax / 1e6,
                      "unlimited (TDM)", True, "this model"),
        ComparisonRow("AEthereal GS+BE router (90 nm scaled)",
                      gsbe_area_90 / 1e6, gsbe_mhz_90, "GS + BE", False,
                      "model calibrated to [8]"),
        ComparisonRow("Miro Panades et al. [4] mesochronous",
                      PANADES_MESOCHRONOUS_MM2, None, "2 (GS priority)",
                      False, "published figure"),
        ComparisonRow("Beigne et al. [7] asynchronous",
                      BEIGNE_ASYNC_MM2, None, "2", False,
                      "published figure (scaled from 130 nm)"),
    ]


@dataclass(frozen=True)
class AeliteVsAethereal:
    """The paper's headline cost ratios."""

    aelite_area_mm2: float
    aethereal_area_mm2: float
    aelite_frequency_mhz: float
    aethereal_frequency_mhz: float

    @property
    def area_ratio(self) -> float:
        """How many times smaller the aelite router is."""
        return self.aethereal_area_mm2 / self.aelite_area_mm2

    @property
    def frequency_ratio(self) -> float:
        """How many times faster the aelite router is."""
        return self.aelite_frequency_mhz / self.aethereal_frequency_mhz


def aelite_vs_aethereal() -> AeliteVsAethereal:
    """Compute the "roughly 5x smaller, 1.5x faster" comparison (90 nm),
    both routers in the paper's word format."""
    fmt = WordFormat()
    gsbe_130 = aethereal_gsbe_router_area_um2(5, fmt, tech=TECH_130)
    gsbe_90 = scale_area_um2(gsbe_130, TECH_130, TECH_90LP)
    gsbe_mhz = scale_frequency_hz(AETHEREAL_GSBE_MHZ_130 * 1e6,
                                  TECH_130, TECH_90LP) / 1e6
    aelite_fmax = max_frequency_hz(5, fmt) / 1e6
    # Compare like for like: both at the Æthereal operating frequency.
    aelite_area = router_area_at_frequency_um2(5, gsbe_mhz * 1e6, fmt)
    return AeliteVsAethereal(
        aelite_area_mm2=aelite_area / 1e6,
        aethereal_area_mm2=gsbe_90 / 1e6,
        aelite_frequency_mhz=aelite_fmax,
        aethereal_frequency_mhz=gsbe_mhz)


def throughput_per_area(arity: int, fmt: WordFormat
                        ) -> tuple[float, float]:
    """Aggregate raw throughput (GB/s, both directions) and area (mm^2)
    at the router's maximum frequency, 90 nm.

    Reproduces the "arity-6 aelite router offers 64 GB/s at 0.03 mm^2
    for a 64-bit data width" observation: all input plus all output
    ports moving one word per cycle.
    """
    bytes_per_s = 2 * arity * fmt.bytes_per_word * max_frequency_hz(
        arity, fmt)
    area = RouterAreaModel(arity, arity, fmt).base_area_um2()
    return bytes_per_s / 1e9, area / 1e6
