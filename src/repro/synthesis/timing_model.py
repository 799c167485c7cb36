"""Timing and the area-versus-target-frequency trade-off (Figure 5).

**Critical path.**  The aelite router's path runs from a pipeline
register through the HPU's shift mux and the switch's mux tree to the
next register, loaded by the port fan-out and the data-bus width:

``T = t_ff + t_mux2 * ceil(log2(arity)) + t_port_load * arity
   + t_bit_load * data_width``

with technology constants from :mod:`repro.synthesis.technology`.  The
maximum frequency is ``1 / T``.

**Effort curve.**  Synthesis trades area for speed: near the library's
limit the tool upsizes drivers and duplicates logic.  The canonical
shape — flat, then a knee, then saturation at the achievable maximum —
is modelled as

``area(f) = base_area * (1 + k * (f / f_max) ** p)``  for f <= f_max,

clamped at ``f_max`` beyond (requesting more than the maximum returns
the maximum-effort netlist, which is why Figure 5 saturates around
875 MHz).  ``k = 0.30`` and ``p = 8`` reproduce the paper's anchors:
less than +7 % up to 650 MHz, a visible knee after 750 MHz, and +30 %
at saturation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.exceptions import ConfigurationError
from repro.core.words import WordFormat
from repro.synthesis.area_model import RouterAreaModel
from repro.synthesis.gates import clog2
from repro.synthesis.technology import TECH_90LP, Technology

__all__ = ["critical_path_ps", "max_frequency_hz", "effort_factor",
           "router_area_at_frequency_um2", "SynthesisPoint",
           "frequency_sweep", "MAX_EFFORT_FACTOR"]

#: Effort-curve constants (see module docstring).
EFFORT_K = 0.30
EFFORT_P = 8.0

#: Area multiplier of a maximum-frequency netlist.
MAX_EFFORT_FACTOR = 1.0 + EFFORT_K


def critical_path_ps(arity: int, fmt: WordFormat = WordFormat(), *,
                     tech: Technology = TECH_90LP) -> float:
    """Critical-path delay of an aelite router instance."""
    if arity < 1:
        raise ConfigurationError("arity must be >= 1")
    return (tech.t_flipflop_ps +
            tech.t_mux2_ps * clog2(arity) +
            tech.t_port_load_ps * arity +
            tech.t_bit_load_ps * fmt.data_width)


def max_frequency_hz(arity: int, fmt: WordFormat = WordFormat(), *,
                     tech: Technology = TECH_90LP) -> float:
    """Maximum synthesisable frequency of a router instance."""
    return 1e12 / critical_path_ps(arity, fmt, tech=tech)


def effort_factor(target_hz: float, fmax_hz: float) -> float:
    """Area multiplier of synthesis at a target frequency.

    Clamped at the maximum-effort factor for targets at or beyond the
    achievable maximum.
    """
    if target_hz <= 0 or fmax_hz <= 0:
        raise ConfigurationError("frequencies must be positive")
    utilisation = min(target_hz / fmax_hz, 1.0)
    return 1.0 + EFFORT_K * utilisation ** EFFORT_P


@dataclass(frozen=True)
class SynthesisPoint:
    """One synthesis run's outcome."""

    target_mhz: float
    achieved_mhz: float
    area_um2: float

    @property
    def area_mm2(self) -> float:
        """Cell area in mm^2."""
        return self.area_um2 / 1e6


def router_area_at_frequency_um2(arity: int, target_hz: float,
                                 fmt: WordFormat = WordFormat(), *,
                                 tech: Technology = TECH_90LP) -> float:
    """Cell area of a router synthesised towards ``target_hz``."""
    model = RouterAreaModel(arity, arity, fmt)
    fmax = max_frequency_hz(arity, fmt, tech=tech)
    return model.base_area_um2(tech) * effort_factor(target_hz, fmax)


def frequency_sweep(arity: int, targets_hz: list[float],
                    fmt: WordFormat = WordFormat()) -> list[SynthesisPoint]:
    """Synthesise a router across target frequencies (Figure 5's sweep,
    90 nm)."""
    fmax = max_frequency_hz(arity, fmt)
    points = []
    for target in targets_hz:
        area = router_area_at_frequency_um2(arity, target, fmt)
        points.append(SynthesisPoint(
            target_mhz=target / 1e6,
            achieved_mhz=min(target, fmax) / 1e6,
            area_um2=area))
    return points
