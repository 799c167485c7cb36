"""Whole-network silicon roll-ups for design-space exploration.

The per-component models (:mod:`repro.synthesis.area_model`,
:mod:`repro.synthesis.timing_model`) price one router, one link stage or
one NI; dimensioning a network needs the *sum* over an actual topology:
every router synthesised towards the operating frequency at its own
arity, every mesochronous pipeline stage on every link, and every NI
with its slot table and the channel queues the allocation actually
programs into it.

:func:`network_fmax_hz` is the complementary timing roll-up: the
highest frequency the slowest (highest-arity) router of the topology can
reach, i.e. the hard ceiling of any feasibility search over that
topology.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.words import WordFormat
from repro.synthesis.area_model import link_stage_area_um2, ni_area_um2
from repro.synthesis.timing_model import (max_frequency_hz,
                                          router_area_at_frequency_um2)
from repro.topology.graph import Topology

__all__ = ["NetworkArea", "network_area", "network_fmax_hz"]


@dataclass(frozen=True)
class NetworkArea:
    """Component-wise cell-area breakdown of one dimensioned network."""

    routers_um2: float
    link_stages_um2: float
    nis_um2: float

    @property
    def total_um2(self) -> float:
        """Whole-network cell area."""
        return self.routers_um2 + self.link_stages_um2 + self.nis_um2

    def to_record(self) -> dict[str, float]:
        """JSON-ready breakdown (rounded to whole um^2 for stability)."""
        return {
            "routers_um2": round(self.routers_um2, 1),
            "link_stages_um2": round(self.link_stages_um2, 1),
            "nis_um2": round(self.nis_um2, 1),
            "total_um2": round(self.total_um2, 1),
        }


def network_fmax_hz(topology: Topology, fmt: WordFormat | None = None
                    ) -> float:
    """Achievable frequency ceiling: the slowest router sets the clock."""
    fmt = fmt or WordFormat()
    return min(max_frequency_hz(topology.arity(router), fmt)
               for router in topology.routers)


def network_area(topology: Topology, *, table_size: int,
                 frequency_hz: float, fmt: WordFormat | None = None,
                 channels_per_ni: dict[str, tuple[int, int]] | None = None
                 ) -> NetworkArea:
    """Cell area of a whole network at one operating point (90 nm, 8-word
    NI queues).

    Parameters
    ----------
    channels_per_ni:
        Optional ``{ni: (n_tx, n_rx)}`` from an allocation; NIs absent
        from the map (or all NIs, when ``None``) are priced with one TX
        and one RX channel — the minimum useful NI — so unloaded
        candidates still carry their structural cost.
    """
    fmt = fmt or WordFormat()
    routers = sum(
        router_area_at_frequency_um2(topology.arity(router), frequency_hz,
                                     fmt)
        for router in topology.routers)
    stage = link_stage_area_um2(fmt)
    stages = sum(link.pipeline_stages for link in topology.links) * stage
    nis = 0.0
    for ni in topology.nis:
        n_tx, n_rx = (channels_per_ni or {}).get(ni, (1, 1))
        nis += ni_area_um2(max(n_tx, 1), max(n_rx, 1), table_size, fmt)
    return NetworkArea(routers_um2=routers, link_stages_um2=stages,
                       nis_um2=nis)
