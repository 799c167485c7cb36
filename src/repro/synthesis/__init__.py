"""Calibrated synthesis models: area, timing, and cost comparisons."""

from repro.synthesis.area_model import (RouterAreaModel,
                                        aethereal_gsbe_router_area_um2,
                                        link_stage_area_um2,
                                        mesochronous_router_area_um2,
                                        ni_area_um2)
from repro.synthesis.comparison import (AeliteVsAethereal, ComparisonRow,
                                        aelite_vs_aethereal,
                                        related_work_table,
                                        throughput_per_area)
from repro.synthesis.gates import GateCounts, fifo_area_um2
from repro.synthesis.network import (NetworkArea, network_area,
                                     network_fmax_hz)
from repro.synthesis.technology import (TECH_65, TECH_90LP, TECH_130,
                                        Technology, scale_area_um2,
                                        scale_frequency_hz)
from repro.synthesis.timing_model import (MAX_EFFORT_FACTOR, SynthesisPoint,
                                          critical_path_ps, effort_factor,
                                          frequency_sweep,
                                          max_frequency_hz,
                                          router_area_at_frequency_um2)

__all__ = [
    "Technology", "TECH_90LP", "TECH_130", "TECH_65",
    "scale_area_um2", "scale_frequency_hz",
    "GateCounts", "fifo_area_um2",
    "RouterAreaModel", "link_stage_area_um2", "ni_area_um2",
    "mesochronous_router_area_um2", "aethereal_gsbe_router_area_um2",
    "critical_path_ps", "max_frequency_hz", "effort_factor",
    "router_area_at_frequency_um2", "SynthesisPoint", "frequency_sweep",
    "MAX_EFFORT_FACTOR",
    "NetworkArea", "network_area", "network_fmax_hz",
    "ComparisonRow", "related_work_table", "AeliteVsAethereal",
    "aelite_vs_aethereal", "throughput_per_area",
]
