"""End-to-end NoC configuration: topology + mapping + allocation + bounds.

:class:`NocConfiguration` is the single object a user needs to hand to the
simulators and the synthesis model.  :func:`configure` is the convenience
flow that mirrors the Æthereal design tools: map the IPs, allocate every
channel contention-free, analyse the bounds, and (optionally) refuse
configurations whose guarantees do not cover the requirements.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.core.allocation import Allocation, SlotAllocator
from repro.core.analysis import (AnalysisSummary, ChannelBounds, analyse,
                                 summarise)
from repro.core.application import UseCase
from repro.core.exceptions import AllocationError, ConfigurationError
from repro.core.words import WordFormat
from repro.topology.graph import Topology
from repro.topology.mapping import (Mapping, communication_clustered,
                                    round_robin, traffic_balanced)

__all__ = ["NocConfiguration", "configure"]

_MAPPING_STRATEGIES = ("round_robin", "traffic_balanced",
                       "communication_clustered")


@dataclass
class NocConfiguration:
    """A fully resolved network configuration.

    Everything downstream — flit-level simulation, detailed hardware
    simulation, synthesis-area roll-ups — consumes this object.  The
    operating point (topology, table size, frequency, word format) is
    the allocation's: every bound was computed there, so it is read off
    the allocation, never stored beside it.
    """

    use_case: UseCase
    mapping: Mapping
    allocation: Allocation

    @property
    def topology(self) -> Topology:
        """The allocation's topology."""
        return self.allocation.topology

    @property
    def table_size(self) -> int:
        """The allocation's slot-table size."""
        return self.allocation.table_size

    @property
    def frequency_hz(self) -> float:
        """The allocation's operating frequency."""
        return self.allocation.frequency_hz

    @property
    def fmt(self) -> WordFormat:
        """The allocation's word format."""
        return self.allocation.fmt

    def bounds(self) -> dict[str, ChannelBounds]:
        """Per-channel worst-case guarantees."""
        return analyse(self.allocation)

    def summary(self) -> AnalysisSummary:
        """Aggregate guarantee summary."""
        return summarise(self.bounds())

    def unmet_channels(self) -> tuple[str, ...]:
        """Names of channels whose guarantees miss their requirements."""
        return tuple(sorted(name for name, b in self.bounds().items()
                            if not b.meets_all))

    def __repr__(self) -> str:
        return (f"NocConfiguration({self.topology.name!r}, "
                f"{len(self.allocation.channels)} channels @ "
                f"{self.frequency_hz / 1e6:.0f} MHz, "
                f"table={self.table_size})")


def configure(topology: Topology, use_case: UseCase, *, table_size: int,
              frequency_hz: float, fmt: WordFormat | None = None,
              mapping: Mapping | str = "communication_clustered",
              require_met: bool = True) -> NocConfiguration:
    """Run the full design flow for one use case.

    Parameters
    ----------
    mapping:
        Either a pre-built :class:`Mapping` or the name of a heuristic
        (``"round_robin"``, ``"traffic_balanced"``,
        ``"communication_clustered"``).
    require_met:
        When true (default), raise :class:`AllocationError` if any channel's
        guaranteed bounds fall short of its requirements.  Disable for
        exploratory sweeps that want to inspect partial results.
    """
    fmt = fmt or WordFormat()
    channels = use_case.channels
    if not channels:
        raise ConfigurationError(
            f"use case {use_case.name!r} has no channels to configure")
    resolved = _resolve_mapping(mapping, topology, use_case)
    allocator = SlotAllocator(topology, table_size=table_size,
                              frequency_hz=frequency_hz, fmt=fmt)
    allocation = allocator.allocate(list(channels), resolved)
    config = NocConfiguration(use_case=use_case, mapping=resolved,
                              allocation=allocation)
    if require_met:
        unmet = config.unmet_channels()
        if unmet:
            bounds = config.bounds()
            worst = unmet[0]
            raise AllocationError(
                f"{len(unmet)} channel(s) cannot meet requirements at "
                f"{frequency_hz / 1e6:.0f} MHz; first: {worst!r} "
                f"(guaranteed {bounds[worst].latency_ns:.1f} ns / "
                f"{bounds[worst].throughput_bytes_per_s / 1e6:.1f} MB/s)",
                channel=worst, reason="guarantees below requirements")
    return config


def _resolve_mapping(mapping: Mapping | str, topology: Topology,
                     use_case: UseCase) -> Mapping:
    if isinstance(mapping, Mapping):
        mapping.validate(topology)
        return mapping
    if mapping == "round_robin":
        return round_robin(use_case.ips, topology)
    if mapping == "traffic_balanced":
        return traffic_balanced(use_case.ips, use_case.channels, topology)
    if mapping == "communication_clustered":
        return communication_clustered(use_case.ips, use_case.channels,
                                       topology)
    raise ConfigurationError(
        f"unknown mapping strategy {mapping!r}; expected one of "
        f"{_MAPPING_STRATEGIES} or a Mapping instance")
