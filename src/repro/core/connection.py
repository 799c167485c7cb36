"""Channel specifications.

A *channel* is a unidirectional guaranteed-service stream between two IP
ports with a throughput requirement and (optionally) a latency requirement.
The slot allocator reserves slots per channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.core.exceptions import (ConfigurationError,
                                   require_finite_positive, require_whole)

__all__ = ["ChannelSpec", "MB", "GB", "NS", "US"]

# Unit helpers so specs read like the paper ("10 to 500 Mbyte/s", "35 ns").
MB = 1_000_000.0
GB = 1_000_000_000.0
NS = 1e-9
US = 1e-6


@dataclass(frozen=True)
class ChannelSpec:
    """Requirements of one unidirectional guaranteed-service channel.

    Attributes
    ----------
    name:
        Globally unique channel name (used as slot-table owner).
    src_ip, dst_ip:
        Names of the producing and consuming IP ports.
    throughput_bytes_per_s:
        Required sustained payload throughput.
    max_latency_ns:
        Worst-case flit latency requirement (NI arrival to NI delivery), or
        ``None`` when the channel has no latency requirement.
    application:
        Application this channel belongs to (the unit of composability).
    burst_bytes:
        Largest back-to-back message the IP produces; used for buffer
        sizing, not for slot counting.

    >>> spec = ChannelSpec("video0", "cpu", "display", 40 * MB,
    ...                    max_latency_ns=500.0, application="video")
    >>> spec.scaled(1.5).throughput_bytes_per_s == 60 * MB
    True
    """

    name: str
    src_ip: str
    dst_ip: str
    throughput_bytes_per_s: float
    max_latency_ns: float | None = None
    application: str = ""
    burst_bytes: int = 16

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("channel name must be non-empty")
        if not self.src_ip or not self.dst_ip:
            raise ConfigurationError(
                f"channel {self.name!r} needs both endpoint IPs")
        if self.src_ip == self.dst_ip:
            raise ConfigurationError(
                f"channel {self.name!r} connects {self.src_ip!r} to itself")
        throughput = self.throughput_bytes_per_s
        if not (math.isfinite(throughput) and throughput >= 0):
            raise ConfigurationError(
                f"channel {self.name!r} throughput_bytes_per_s must be a "
                f"finite number >= 0, got {throughput!r}")
        if self.max_latency_ns is not None:
            require_finite_positive(f"channel {self.name!r} max_latency_ns",
                                    self.max_latency_ns)
        require_whole(f"channel {self.name!r} burst_bytes",
                      self.burst_bytes, 1)

    def scaled(self, throughput_factor: float) -> "ChannelSpec":
        """Copy with throughput multiplied by ``throughput_factor``."""
        return replace(self, throughput_bytes_per_s=(
            self.throughput_bytes_per_s * throughput_factor))
