"""Analytical worst-case bounds for allocated channels.

aelite's services are *predictable*: latency and throughput bounds follow
directly from the slot reservation (Section VII).  This module computes
those bounds in the dataflow style the paper references ([19]): the NoC is
a chain of actors firing once per flit cycle, so a flit waits at most one
maximum slot gap in the NI and then moves one hop (router or link pipeline
stage) per slot until delivery.

The bounds are *guarantees*: the property-based tests assert that no
simulated flit is ever later than :attr:`ChannelBounds.latency_ns`, and
that sustained measured throughput reaches
:attr:`ChannelBounds.throughput_bytes_per_s` under saturation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.allocation import Allocation
from repro.core.placement import ChannelAllocation
from repro.core.requirements import latency_bound_ns, throughput_of_slots
from repro.core.words import WordFormat

__all__ = ["ChannelBounds", "channel_bounds", "analyse", "AnalysisSummary",
           "summarise"]


@dataclass(frozen=True)
class ChannelBounds:
    """Worst-case guarantees of one allocated channel.

    All latency figures bound a single flit from the instant it is ready in
    the source NI queue to the instant it is completely delivered into the
    destination NI queue.
    """

    channel: str
    application: str
    n_slots: int
    worst_wait_slots: int
    traversal_slots: int
    latency_cycles: int
    latency_ns: float
    throughput_bytes_per_s: float
    required_throughput_bytes_per_s: float
    required_latency_ns: float | None

    @property
    def meets_throughput(self) -> bool:
        """Guaranteed throughput covers the requirement."""
        return (self.throughput_bytes_per_s >=
                self.required_throughput_bytes_per_s * (1 - 1e-9))

    @property
    def meets_latency(self) -> bool:
        """Guaranteed latency covers the requirement (vacuous if none)."""
        if self.required_latency_ns is None:
            return True
        return self.latency_ns <= self.required_latency_ns * (1 + 1e-9)

    @property
    def meets_all(self) -> bool:
        """Both requirements hold."""
        return self.meets_throughput and self.meets_latency

    @property
    def throughput_slack(self) -> float:
        """Guaranteed minus required throughput (bytes/s)."""
        return self.throughput_bytes_per_s - self.required_throughput_bytes_per_s

    @property
    def latency_slack_ns(self) -> float:
        """Required minus guaranteed latency; ``inf`` without requirement."""
        if self.required_latency_ns is None:
            return float("inf")
        return self.required_latency_ns - self.latency_ns


def channel_bounds(ca: ChannelAllocation, frequency_hz: float,
                   fmt: WordFormat) -> ChannelBounds:
    """Bounds of a single channel allocation, in the table it was
    placed in."""
    wait = ca.worst_wait_slots()
    traversal = ca.path.traversal_slots
    latency_cycles = (wait + traversal) * fmt.flit_size
    return ChannelBounds(
        channel=ca.spec.name,
        application=ca.spec.application,
        n_slots=ca.n_slots,
        worst_wait_slots=wait,
        traversal_slots=traversal,
        latency_cycles=latency_cycles,
        latency_ns=latency_bound_ns(wait, ca.path, frequency_hz, fmt),
        throughput_bytes_per_s=throughput_of_slots(
            ca.n_slots, ca.table_size, frequency_hz, fmt),
        required_throughput_bytes_per_s=ca.spec.throughput_bytes_per_s,
        required_latency_ns=ca.spec.max_latency_ns,
    )


def analyse(allocation: Allocation) -> dict[str, ChannelBounds]:
    """Bounds for every channel of an allocation, keyed by channel name."""
    return {name: channel_bounds(ca, allocation.frequency_hz,
                                 allocation.fmt)
            for name, ca in sorted(allocation.channels.items())}


@dataclass(frozen=True)
class AnalysisSummary:
    """Aggregate view over all channel bounds of an allocation."""

    n_channels: int
    n_meeting_all: int
    total_guaranteed_bytes_per_s: float
    total_required_bytes_per_s: float
    max_latency_ns: float
    mean_latency_ns: float
    mean_slots_per_channel: float

    @property
    def all_requirements_met(self) -> bool:
        """Every channel meets both requirements."""
        return self.n_meeting_all == self.n_channels


def summarise(bounds: Mapping[str, ChannelBounds]) -> AnalysisSummary:
    """Aggregate a per-channel bounds map."""
    values = list(bounds.values())
    if not values:
        return AnalysisSummary(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return AnalysisSummary(
        n_channels=len(values),
        n_meeting_all=sum(1 for b in values if b.meets_all),
        total_guaranteed_bytes_per_s=sum(
            b.throughput_bytes_per_s for b in values),
        total_required_bytes_per_s=sum(
            b.required_throughput_bytes_per_s for b in values),
        max_latency_ns=max(b.latency_ns for b in values),
        mean_latency_ns=sum(b.latency_ns for b in values) / len(values),
        mean_slots_per_channel=sum(b.n_slots for b in values) / len(values),
    )
