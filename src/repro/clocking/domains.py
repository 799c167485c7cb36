"""Factories for the clocking schemes the paper distinguishes.

These build per-node :class:`~repro.clocking.clock.ClockDomain` maps for a
topology's routers and NIs:

* :func:`synchronous_domains` — one global clock (baseline Æthereal style);
* :func:`mesochronous_domains` — equal periods, per-node phases drawn from
  a seeded RNG, bounded by ``max_skew_fraction`` of the period between any
  two nodes (Section V assumes neighbour skew of at most half a cycle);
* :func:`plesiochronous_domains` — per-node periods within ``ppm`` of the
  nominal (Section VI's asynchronous wrapper absorbs this).
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.clocking.clock import ClockDomain, period_ps_from_hz
from repro.core.exceptions import ConfigurationError

__all__ = ["CLOCKING_MODES", "synchronous_domains", "mesochronous_domains",
           "plesiochronous_domains"]

#: The clocking schemes a detailed network can be elaborated under.
CLOCKING_MODES = ("synchronous", "mesochronous", "asynchronous")


def synchronous_domains(nodes: Iterable[str],
                        frequency_hz: float) -> dict[str, ClockDomain]:
    """One shared clock for every node (global synchronicity)."""
    period = period_ps_from_hz(frequency_hz)
    shared = ClockDomain(name="clk_global", period_ps=period, phase_ps=0)
    return {node: shared for node in nodes}


def mesochronous_domains(nodes: Iterable[str], frequency_hz: float, *,
                         seed: int = 0) -> dict[str, ClockDomain]:
    """Equal-period clocks with bounded random phase offsets.

    Each node's phase lies within ``[0, period / 2]``, which bounds the
    skew between any pair of nodes by half a clock cycle — the paper's
    assumption on the writing and reading clocks of a link stage.
    """
    period = period_ps_from_hz(frequency_hz)
    rng = random.Random(seed)
    limit = period // 2
    domains: dict[str, ClockDomain] = {}
    for node in sorted(set(nodes)):
        phase = rng.randint(0, limit) if limit > 0 else 0
        domains[node] = ClockDomain(name=f"clk_{node}", period_ps=period,
                                    phase_ps=phase)
    return domains


def plesiochronous_domains(nodes: Iterable[str], frequency_hz: float, *,
                           ppm: float = 200.0,
                           seed: int = 0) -> dict[str, ClockDomain]:
    """Clocks whose periods deviate up to ``ppm`` parts-per-million.

    Every node gets an independent period in
    ``[nominal * (1 - ppm/1e6), nominal * (1 + ppm/1e6)]`` and a random
    phase within its period.  The flit-synchronous network then runs at the
    rate of the slowest clock (Section VI-A), which the wrapper tests
    verify.
    """
    if ppm < 0:
        raise ConfigurationError(f"ppm must be >= 0, got {ppm}")
    nominal = period_ps_from_hz(frequency_hz)
    spread = max(1, round(nominal * ppm / 1e6)) if ppm > 0 else 0
    rng = random.Random(seed)
    domains: dict[str, ClockDomain] = {}
    for node in sorted(set(nodes)):
        period = nominal + (rng.randint(-spread, spread) if spread else 0)
        phase = rng.randint(0, period - 1)
        domains[node] = ClockDomain(name=f"clk_{node}", period_ps=period,
                                    phase_ps=phase)
    return domains
