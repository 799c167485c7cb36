"""Search primitives: a feasibility probe and the frequency bisection.

The building blocks the design-space explorer composes — a feasibility
probe, a bisection for the minimum feasible frequency that hands back
the winning probe's allocation, and the synthesis-model area of an
allocated configuration.
"""

from __future__ import annotations

from repro.core.application import UseCase
from repro.core.configuration import NocConfiguration, configure
from repro.core.exceptions import (AllocationError, ConfigurationError,
                                   require_finite_positive)
from repro.core.words import WordFormat
from repro.synthesis.network import NetworkArea, network_area
from repro.topology.graph import Topology
from repro.topology.mapping import Mapping

__all__ = ["min_feasible_configuration", "configuration_area"]


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
    """The allocated configuration at the lowest frequency at which
    every requirement is guaranteed.

    Binary search over the operating frequency; the result is the
    winning probe's allocation itself, not a recomputation (allocation
    is the expensive step of a design search), and its
    ``frequency_hz`` is the frequency found.  Raises
    :class:`AllocationError` when even ``high_hz`` is insufficient — the
    raised error surfaces the allocator's last failure (channel name and
    reason), mirroring the Section VII negotiation loop, so the
    bottleneck channel is diagnosable instead of just "infeasible".
    Feasibility is monotone in frequency for a fixed workload (higher
    frequency shortens slots and raises per-slot bandwidth), which the
    search relies on.
    """
    return _search(topology, use_case, mapping, table_size,
                   fmt or WordFormat(), low_hz, high_hz, tolerance_hz)[1]


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
