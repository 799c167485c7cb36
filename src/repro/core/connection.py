"""Connection and channel specifications.

A *channel* is a unidirectional guaranteed-service stream between two IP
ports with a throughput requirement and (optionally) a latency requirement.
A *connection* in the paper's sense pairs a forward data channel with a
reverse channel used for responses and/or piggybacked end-to-end credits.

The slot allocator works on channels; higher layers (use-case generation,
the NI model's credit loop) work on connections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

from repro.core.exceptions import ConfigurationError, require_finite_positive

__all__ = ["ChannelSpec", "ConnectionSpec", "MB", "GB", "NS", "US"]

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
        if self.burst_bytes < 1:
            raise ConfigurationError(
                f"channel {self.name!r} needs burst_bytes >= 1")

    def scaled(self, throughput_factor: float) -> "ChannelSpec":
        """Copy with throughput multiplied by ``throughput_factor``."""
        return replace(self, throughput_bytes_per_s=(
            self.throughput_bytes_per_s * throughput_factor))

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable representation."""
        return {
            "name": self.name, "src_ip": self.src_ip, "dst_ip": self.dst_ip,
            "throughput_bytes_per_s": self.throughput_bytes_per_s,
            "max_latency_ns": self.max_latency_ns,
            "application": self.application,
            "burst_bytes": self.burst_bytes,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "ChannelSpec":
        """Inverse of :meth:`to_dict`."""
        latency = data.get("max_latency_ns")
        return ChannelSpec(
            name=str(data["name"]), src_ip=str(data["src_ip"]),
            dst_ip=str(data["dst_ip"]),
            throughput_bytes_per_s=float(
                data["throughput_bytes_per_s"]),  # type: ignore[arg-type]
            max_latency_ns=None if latency is None else float(latency),  # type: ignore[arg-type]
            application=str(data.get("application", "")),
            burst_bytes=int(data.get("burst_bytes", 16)),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class ConnectionSpec:
    """A forward channel plus an optional reverse channel.

    The reverse channel carries responses and returns end-to-end credits.
    For write-only or streaming connections that do not need responses, a
    minimal credit-return channel can be synthesised with
    :meth:`with_credit_return`.
    """

    name: str
    forward: ChannelSpec
    reverse: ChannelSpec | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("connection name must be non-empty")
        if self.reverse is not None:
            if (self.reverse.src_ip != self.forward.dst_ip or
                    self.reverse.dst_ip != self.forward.src_ip):
                raise ConfigurationError(
                    f"connection {self.name!r}: reverse channel endpoints "
                    "must mirror the forward channel")
            if self.reverse.application != self.forward.application:
                raise ConfigurationError(
                    f"connection {self.name!r}: both channels must belong "
                    "to the same application")

    @property
    def channels(self) -> tuple[ChannelSpec, ...]:
        """All constituent channels (forward first)."""
        if self.reverse is None:
            return (self.forward,)
        return (self.forward, self.reverse)

    def with_credit_return(self) -> "ConnectionSpec":
        """Add a minimal reverse channel for credit return if absent.

        Credits travel in packet headers, so the reverse bandwidth needed
        is a small fraction of the forward payload bandwidth; 5 % is safe
        for 3-word flits with 5 credit bits per header.
        """
        if self.reverse is not None:
            return self
        reverse = ChannelSpec(
            name=f"{self.forward.name}__cr",
            src_ip=self.forward.dst_ip, dst_ip=self.forward.src_ip,
            throughput_bytes_per_s=(
                self.forward.throughput_bytes_per_s * 0.05),
            max_latency_ns=None,
            application=self.forward.application,
            burst_bytes=4)
        return ConnectionSpec(self.name, self.forward, reverse)
