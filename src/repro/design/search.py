"""Search primitives: feasibility probes, probe caching, 1-D scans.

The building blocks the design-space explorer composes — a cached
feasibility probe, a bisection for the minimum feasible frequency, and
a slot-table-size scan whose rows carry the synthesis-model area and
frequency columns so a scan is directly plottable as a trade-off curve.

The probe cache exists because a design search hammers ``configure()``
with near-duplicate questions: restarted bisections re-probe the same
frequencies, grid scans revisit (topology, table size) cells, and
feasibility is *monotone* in frequency — so one infeasible probe at
``f`` answers every probe below ``f`` for free, and one feasible probe
answers everything above.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.analysis import analyse, summarise
from repro.core.application import UseCase
from repro.core.configuration import configure
from repro.core.exceptions import AllocationError, ConfigurationError
from repro.core.words import WordFormat
from repro.synthesis.network import network_area_um2, network_fmax_hz
from repro.topology.graph import Topology
from repro.topology.mapping import Mapping

__all__ = ["ProbeCache", "probe_fingerprint", "min_feasible_frequency",
           "min_feasible_configuration", "TableSizeResult",
           "table_size_scan"]


def probe_fingerprint(topology: Topology, use_case: UseCase,
                      mapping: Mapping, fmt: WordFormat) -> str:
    """Stable digest of everything a feasibility probe depends on
    except the slot-table size and the frequency (the cache key axes).

    SHA-256 over the canonical structural descriptions, so fingerprints
    agree across processes regardless of ``PYTHONHASHSEED``.
    """
    digest = hashlib.sha256()
    digest.update(repr(sorted(topology.to_dict()["links"],
                              key=lambda l: (l["src"], l["dst"]))).encode())
    digest.update(repr(sorted(mapping.to_dict().items())).encode())
    digest.update(repr([(ch.name, ch.src_ip, ch.dst_ip,
                         ch.throughput_bytes_per_s, ch.max_latency_ns)
                        for ch in use_case.channels]).encode())
    digest.update(repr(fmt).encode())
    return digest.hexdigest()[:24]


class ProbeCache:
    """Memo of ``configure()`` feasibility probes within one search.

    Per ``(fingerprint, table_size)`` the cache keeps the monotone
    bounds — the highest frequency known infeasible and the lowest
    known feasible — which answer every probe at or outside the open
    interval between them *exactly*, whatever the search tolerance
    (feasibility is monotone in frequency, so no quantisation is
    involved in the decision).  The failure recorded at the infeasible
    bound is kept so cached-infeasible answers still carry a concrete
    allocator error.  Re-running an identical bisection is fully
    answered from the bounds: every midpoint repeats a previously
    probed frequency, which by then sits on or outside them.

    Caveat: soundness rests on the monotonicity assumption.  The
    greedy allocator can (rarely) fail at a frequency above one it
    succeeded at, so a cached answer may differ from what a fresh
    ``configure()`` would say in such corners.  Share a cache only
    across searches that tolerate bound-consistent answers — not
    across runs whose reports must be byte-identical to uncached ones
    (which is why the campaign workers do not share one).
    """

    def __init__(self, *, telemetry=None):
        from repro.telemetry.hub import coalesce
        self._failures: dict[tuple[str, int], AllocationError] = {}
        self._bounds: dict[tuple[str, int], tuple[float, float]] = {}
        self.hits = 0
        self.misses = 0
        tel = coalesce(telemetry)
        self._tel_hit = tel.counter("design.probe_cache", outcome="hit")
        self._tel_miss = tel.counter("design.probe_cache",
                                     outcome="miss")

    def lookup(self, fingerprint: str, table_size: int,
               frequency_hz: float) -> tuple[bool, AllocationError | None]:
        """``(known, failure)``; ``failure`` is ``None`` for feasible."""
        key = (fingerprint, table_size)
        lo_infeasible, hi_feasible = self._bounds.get(
            key, (0.0, float("inf")))
        if frequency_hz <= lo_infeasible:
            self.hits += 1
            self._tel_hit.inc()
            return True, self._failures.get(key, AllocationError(
                f"known infeasible at or below "
                f"{lo_infeasible / 1e6:.1f} MHz (monotone bound)",
                reason="cached infeasible"))
        if frequency_hz >= hi_feasible:
            self.hits += 1
            self._tel_hit.inc()
            return True, None
        self.misses += 1
        self._tel_miss.inc()
        return False, None

    def record(self, fingerprint: str, table_size: int,
               frequency_hz: float,
               failure: AllocationError | None) -> None:
        """Store one probe outcome and tighten the monotone bounds."""
        key = (fingerprint, table_size)
        lo, hi = self._bounds.get(key, (0.0, float("inf")))
        if failure is None:
            hi = min(hi, frequency_hz)
        else:
            if frequency_hz >= lo:
                self._failures[key] = failure
            lo = max(lo, frequency_hz)
        self._bounds[key] = (lo, hi)


def _probe(topology: Topology, use_case: UseCase, mapping: Mapping,
           table_size: int, frequency_hz: float, fmt: WordFormat, *,
           cache: ProbeCache | None = None,
           fingerprint: str | None = None
           ) -> tuple[AllocationError | None, object | None]:
    """``(failure, config)``: failure ``None`` when the use case
    allocates with all requirements met (then ``config`` is the
    :class:`~repro.core.configuration.NocConfiguration`, unless the
    answer came from the cache)."""
    if cache is not None:
        fingerprint = fingerprint or probe_fingerprint(topology, use_case,
                                                       mapping, fmt)
        known, failure = cache.lookup(fingerprint, table_size,
                                      frequency_hz)
        if known:
            return failure, None
    config = None
    try:
        config = configure(topology, use_case, table_size=table_size,
                           frequency_hz=frequency_hz, fmt=fmt,
                           mapping=mapping, require_met=True)
        failure = None
    except AllocationError as exc:
        failure = exc
    if cache is not None and fingerprint is not None:
        cache.record(fingerprint, table_size, frequency_hz, failure)
    return failure, config


def _search(topology: Topology, use_case: UseCase, mapping: Mapping,
            table_size: int, fmt: WordFormat, low_hz: float,
            high_hz: float, tolerance_hz: float,
            cache: ProbeCache | None):
    """Bisection core: ``(frequency, config-or-None)`` of the minimum.

    ``config`` is ``None`` only when the winning probe was answered
    from the cache (no allocation was computed for it).
    """
    if low_hz <= 0 or high_hz <= low_hz or tolerance_hz <= 0:
        raise ConfigurationError("invalid search interval")
    fingerprint = (probe_fingerprint(topology, use_case, mapping, fmt)
                   if cache is not None else None)
    failure, config = _probe(topology, use_case, mapping, table_size,
                             high_hz, fmt, cache=cache,
                             fingerprint=fingerprint)
    if failure is not None:
        raise AllocationError(
            f"use case infeasible even at {high_hz / 1e6:.0f} MHz; "
            f"last failure on channel {failure.channel!r}: "
            f"{failure.reason}",
            channel=failure.channel,
            reason=failure.reason) from failure
    best = (high_hz, config)
    failure, config = _probe(topology, use_case, mapping, table_size,
                             low_hz, fmt, cache=cache,
                             fingerprint=fingerprint)
    if failure is None:
        best = (low_hz, config)
    else:
        lo, hi = low_hz, high_hz
        while hi - lo > tolerance_hz:
            mid = (lo + hi) / 2
            failure, config = _probe(topology, use_case, mapping,
                                     table_size, mid, fmt, cache=cache,
                                     fingerprint=fingerprint)
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
                               tolerance_hz: float = 10e6,
                               cache: ProbeCache | None = None):
    """Like :func:`min_feasible_frequency`, but returns the allocated
    :class:`~repro.core.configuration.NocConfiguration` at the found
    frequency — the final successful probe's allocation is reused
    instead of thrown away and recomputed (allocation is the expensive
    step of a design search)."""
    fmt = fmt or WordFormat()
    frequency_hz, config = _search(topology, use_case, mapping,
                                   table_size, fmt, low_hz, high_hz,
                                   tolerance_hz, cache)
    if config is None:  # the winning answer came from the cache
        config = configure(topology, use_case, table_size=table_size,
                           frequency_hz=frequency_hz, fmt=fmt,
                           mapping=mapping, require_met=True)
    return config


def min_feasible_frequency(topology: Topology, use_case: UseCase,
                           mapping: Mapping, *, table_size: int,
                           fmt: WordFormat | None = None,
                           low_hz: float = 100e6,
                           high_hz: float = 2e9,
                           tolerance_hz: float = 10e6,
                           cache: ProbeCache | None = None) -> float:
    """Lowest frequency at which every requirement is guaranteed.

    Binary search over the operating frequency; raises
    :class:`AllocationError` when even ``high_hz`` is insufficient — the
    raised error surfaces the allocator's last failure (channel name and
    reason), mirroring the Section VII negotiation loop, so the bottleneck
    channel is diagnosable instead of just "infeasible".
    Feasibility is monotone in frequency for a fixed workload (higher
    frequency shortens slots and raises per-slot bandwidth), which the
    search relies on — and which the optional :class:`ProbeCache`
    exploits to answer repeated probes without re-allocating.
    """
    return _search(topology, use_case, mapping, table_size,
                   fmt or WordFormat(), low_hz, high_hz, tolerance_hz,
                   cache)[0]


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
                    table_sizes: list[int] | None = None,
                    fmt: WordFormat | None = None
                    ) -> list[TableSizeResult]:
    """Feasibility, bound quality, and silicon cost across table sizes."""
    fmt = fmt or WordFormat()
    sizes = table_sizes or [8, 16, 32, 64, 128]
    fmax_mhz = round(network_fmax_hz(topology, fmt) / 1e6, 1)
    results: list[TableSizeResult] = []
    for size in sizes:
        try:
            config = configure(topology, use_case, table_size=size,
                               frequency_hz=frequency_hz, fmt=fmt,
                               mapping=mapping, require_met=True)
        except AllocationError:
            results.append(TableSizeResult(size, False, None, None, None))
            continue
        bounds = analyse(config.allocation)
        summary = summarise(bounds)
        channels_per_ni = {
            ni: (len(config.allocation.channels_from_ni(ni)),
                 len(config.allocation.channels_to_ni(ni)))
            for ni in topology.nis}
        results.append(TableSizeResult(
            table_size=size, feasible=True,
            mean_latency_bound_ns=summary.mean_latency_ns,
            max_latency_bound_ns=summary.max_latency_ns,
            mean_link_utilisation=config.allocation
            .mean_link_utilisation(),
            network_area_um2=round(network_area_um2(
                topology, table_size=size, frequency_hz=frequency_hz,
                fmt=fmt, channels_per_ni=channels_per_ni), 1),
            fmax_mhz=fmax_mhz))
    return results
