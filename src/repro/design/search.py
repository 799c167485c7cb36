"""Search primitives: feasibility probes and 1-D scans.

The building blocks the design-space explorer composes — a feasibility
probe, a bisection for the minimum feasible frequency that hands back
the winning probe's allocation, and a slot-table-size scan whose rows
carry the synthesis-model area and frequency columns so a scan is
directly plottable as a trade-off curve.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.application import UseCase
from repro.core.configuration import NocConfiguration, configure
from repro.core.exceptions import (AllocationError, ConfigurationError,
                                   require_finite_positive)
from repro.core.words import WordFormat
from repro.synthesis.network import (NetworkArea, network_area,
                                     network_fmax_hz)
from repro.topology.graph import Topology
from repro.topology.mapping import Mapping

__all__ = ["min_feasible_frequency", "min_feasible_configuration",
           "configuration_area", "TableSizeResult", "table_size_scan"]


def _probe(topology: Topology, use_case: UseCase, mapping: Mapping,
           table_size: int, frequency_hz: float, fmt: WordFormat
           ) -> tuple[AllocationError | None, NocConfiguration | None]:
    """``(failure, config)``: exactly one is ``None`` — the allocated
    configuration when every requirement is met, else the allocator's
    error."""
    try:
        return None, configure(topology, use_case, table_size=table_size,
                               frequency_hz=frequency_hz, fmt=fmt,
                               mapping=mapping, require_met=True)
    except AllocationError as exc:
        return exc, None


def _search(topology: Topology, use_case: UseCase, mapping: Mapping,
            table_size: int, fmt: WordFormat, low_hz: float,
            high_hz: float, tolerance_hz: float
            ) -> tuple[float, NocConfiguration]:
    """Bisection core: ``(frequency, configuration)`` of the minimum."""
    for name, value in (("low_hz", low_hz), ("high_hz", high_hz),
                        ("tolerance_hz", tolerance_hz)):
        require_finite_positive(name, value)
    if high_hz <= low_hz:
        raise ConfigurationError("invalid search interval")
    failure, config = _probe(topology, use_case, mapping, table_size,
                             high_hz, fmt)
    if failure is not None:
        raise AllocationError(
            f"use case infeasible even at {high_hz / 1e6:.0f} MHz; "
            f"last failure on channel {failure.channel!r}: "
            f"{failure.reason}",
            channel=failure.channel,
            reason=failure.reason) from failure
    best = (high_hz, config)
    failure, config = _probe(topology, use_case, mapping, table_size,
                             low_hz, fmt)
    if failure is None:
        best = (low_hz, config)
    else:
        lo, hi = low_hz, high_hz
        while hi - lo > tolerance_hz:
            mid = (lo + hi) / 2
            failure, config = _probe(topology, use_case, mapping,
                                     table_size, mid, fmt)
            if failure is None:
                hi = mid
                best = (mid, config)
            else:
                lo = mid
    return best


def min_feasible_configuration(topology: Topology, use_case: UseCase,
                               mapping: Mapping, *, table_size: int,
                               fmt: WordFormat | None = None,
                               low_hz: float = 100e6,
                               high_hz: float = 2e9,
                               tolerance_hz: float = 10e6
                               ) -> NocConfiguration:
    """Like :func:`min_feasible_frequency`, but returns the allocated
    :class:`~repro.core.configuration.NocConfiguration` at the found
    frequency — the winning probe's allocation itself, not a
    recomputation (allocation is the expensive step of a design
    search)."""
    return _search(topology, use_case, mapping, table_size,
                   fmt or WordFormat(), low_hz, high_hz, tolerance_hz)[1]


def min_feasible_frequency(topology: Topology, use_case: UseCase,
                           mapping: Mapping, *, table_size: int,
                           low_hz: float = 100e6,
                           high_hz: float = 2e9,
                           tolerance_hz: float = 10e6) -> float:
    """Lowest frequency at which every requirement is guaranteed.

    Binary search over the operating frequency; raises
    :class:`AllocationError` when even ``high_hz`` is insufficient — the
    raised error surfaces the allocator's last failure (channel name and
    reason), mirroring the Section VII negotiation loop, so the bottleneck
    channel is diagnosable instead of just "infeasible".
    Feasibility is monotone in frequency for a fixed workload (higher
    frequency shortens slots and raises per-slot bandwidth), which the
    search relies on.
    """
    return _search(topology, use_case, mapping, table_size,
                   WordFormat(), low_hz, high_hz, tolerance_hz)[0]


def configuration_area(config: NocConfiguration) -> NetworkArea:
    """Cell area of an allocated configuration at its operating point:
    every NI priced with the channel queues the allocation programs
    into it."""
    allocation = config.allocation
    return network_area(
        config.topology, table_size=config.table_size,
        frequency_hz=config.frequency_hz, fmt=config.fmt,
        channels_per_ni={
            ni: (len(allocation.channels_from_ni(ni)),
                 len(allocation.channels_to_ni(ni)))
            for ni in config.topology.nis})


@dataclass(frozen=True)
class TableSizeResult:
    """One row of a slot-table-size scan.

    Beyond feasibility and bound quality, each row carries the
    synthesis-model columns that make the scan a plottable trade-off
    curve: the whole-network cell area at the scan frequency (NI slot
    tables grow with the table size; router effort tracks the
    frequency) and the achievable frequency ceiling of the topology.
    """

    table_size: int
    feasible: bool
    mean_latency_bound_ns: float | None
    max_latency_bound_ns: float | None
    mean_link_utilisation: float | None
    network_area_um2: float | None = None
    fmax_mhz: float | None = None

    def to_record(self) -> dict[str, object]:
        """JSON-ready row."""
        return {
            "table_size": self.table_size,
            "feasible": self.feasible,
            "mean_latency_bound_ns": self.mean_latency_bound_ns,
            "max_latency_bound_ns": self.max_latency_bound_ns,
            "mean_link_utilisation": self.mean_link_utilisation,
            "network_area_um2": self.network_area_um2,
            "fmax_mhz": self.fmax_mhz,
        }


def table_size_scan(topology: Topology, use_case: UseCase,
                    mapping: Mapping, *, frequency_hz: float,
                    table_sizes: list[int] | None = None
                    ) -> list[TableSizeResult]:
    """Feasibility, bound quality, and silicon cost across table sizes."""
    fmt = WordFormat()
    sizes = table_sizes or [8, 16, 32, 64, 128]
    fmax_mhz = round(network_fmax_hz(topology, fmt) / 1e6, 1)
    results: list[TableSizeResult] = []
    for size in sizes:
        failure, config = _probe(topology, use_case, mapping, size,
                                 frequency_hz, fmt)
        if failure is not None:
            results.append(TableSizeResult(size, False, None, None, None))
            continue
        summary = config.summary()
        results.append(TableSizeResult(
            table_size=size, feasible=True,
            mean_latency_bound_ns=summary.mean_latency_ns,
            max_latency_bound_ns=summary.max_latency_ns,
            mean_link_utilisation=config.allocation
            .mean_link_utilisation(),
            network_area_um2=round(configuration_area(config).total_um2,
                                   1),
            fmax_mhz=fmax_mhz))
    return results
