"""Dataflow (latency-rate) characterisation of allocated channels.

The paper analyses aelite in dataflow terms ([19]): the NI's TDM
arbitration plus the fixed-latency pipeline behave as a *latency-rate
server*.  A channel with slot set ``S`` on a path with traversal time
``theta_path`` serves any arrival stream with

* **rate** ``rho`` — its guaranteed bytes/second, and
* **latency** ``theta`` — the worst-case service start delay
  (the maximum slot gap) plus the path traversal,

so any message arriving when ``b`` bytes are already backlogged
completes within ``theta + (b + size) / rho``.  This module computes
those curves, bounds end-to-end backlog-aware latency for *any*
conforming arrival pattern (the generalisation of the single-flit bound
in :mod:`repro.core.analysis`), and derives buffer sizes from the burst
tolerance — the formal machinery the paper defers to future work for
the heterochronous case.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.allocation import Allocation
from repro.core.exceptions import ConfigurationError
from repro.core.placement import ChannelAllocation
from repro.core.requirements import throughput_of_slots
from repro.core.words import WordFormat

__all__ = ["LatencyRateServer", "latency_rate_of", "busy_period_latency_ns",
           "backlog_bound_bytes"]


@dataclass(frozen=True)
class LatencyRateServer:
    """A latency-rate abstraction of one allocated channel.

    Attributes
    ----------
    channel:
        Channel name.
    theta_ns:
        Service latency: worst slot wait plus path traversal.
    rho_bytes_per_s:
        Guaranteed service rate.
    """

    channel: str
    theta_ns: float
    rho_bytes_per_s: float

    def service_curve(self, t_ns: float) -> float:
        """Guaranteed bytes served within ``t_ns`` of a busy period."""
        if t_ns <= self.theta_ns:
            return 0.0
        return (t_ns - self.theta_ns) * 1e-9 * self.rho_bytes_per_s

    def latency_for_bytes(self, pending_bytes: float) -> float:
        """Completion bound (ns) for a message behind a backlog.

        ``pending_bytes`` includes the message itself.
        """
        if pending_bytes < 0:
            raise ConfigurationError("pending_bytes must be >= 0")
        return self.theta_ns + pending_bytes / self.rho_bytes_per_s * 1e9


def latency_rate_of(ca: ChannelAllocation, frequency_hz: float,
                    fmt: WordFormat) -> LatencyRateServer:
    """Latency-rate parameters of one allocation, in the table it was
    placed in."""
    theta_cycles = ((ca.worst_wait_slots() + ca.path.traversal_slots)
                    * fmt.flit_size)
    return LatencyRateServer(
        channel=ca.spec.name,
        theta_ns=theta_cycles / frequency_hz * 1e9,
        rho_bytes_per_s=throughput_of_slots(
            ca.n_slots, ca.table_size, frequency_hz, fmt))


def busy_period_latency_ns(server: LatencyRateServer, *,
                           burst_bytes: float,
                           message_bytes: float) -> float:
    """Worst-case latency of a message inside a burst of ``burst_bytes``.

    A conforming source that bursts ``burst_bytes`` at rate
    ``<= rho`` sees its last message complete by
    ``theta + burst_bytes / rho``; this is the latency-rate bound the
    Section VII service-latency measurements must respect for bursty
    workloads.
    """
    if burst_bytes < message_bytes:
        raise ConfigurationError(
            "burst must include at least the message itself")
    return server.latency_for_bytes(burst_bytes)


def backlog_bound_bytes(server: LatencyRateServer, *,
                        arrival_rate_bytes_per_s: float,
                        burst_bytes: float) -> float:
    """Maximum backlog of a (burst, rate)-constrained arrival stream.

    For a token-bucket arrival curve ``A(t) = burst + rate * t`` served
    by a latency-rate server, the backlog never exceeds
    ``burst + rate * theta`` provided ``rate <= rho``.  This sizes the
    NI decoupling buffer for conforming-but-bursty IPs.
    """
    if arrival_rate_bytes_per_s > server.rho_bytes_per_s * (1 + 1e-9):
        raise ConfigurationError(
            f"arrival rate {arrival_rate_bytes_per_s:.3g} B/s exceeds the "
            f"guaranteed rate {server.rho_bytes_per_s:.3g} B/s; the "
            "backlog is unbounded")
    return burst_bytes + arrival_rate_bytes_per_s * server.theta_ns * 1e-9


def analyse_dataflow(allocation: Allocation
                     ) -> dict[str, LatencyRateServer]:
    """Latency-rate servers for every channel of an allocation."""
    return {name: latency_rate_of(ca, allocation.frequency_hz,
                                  allocation.fmt)
            for name, ca in sorted(allocation.channels.items())}
