"""Per-event service metrics and the deterministic JSON report.

The control plane records every decision it makes; the report is split
into two layers with different determinism contracts:

* the **canonical report** (:meth:`ServiceReport.to_json`) carries only
  model-time quantities — decisions, bound quotes, utilisation, churn
  rates derived from event timestamps — and is byte-identical across
  repeated runs of the same workload (the same contract as campaign
  reports);
* **wall-clock timing** (events/second, admission latency percentiles)
  is inherently machine-dependent, so it lives in
  :attr:`ServiceReport.timing` and is *excluded* from the canonical
  JSON; the CLI and the benchmark print it separately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.exceptions import require_whole

__all__ = ["ServiceMetrics", "ServiceReport"]


def _round(value: float, digits: int = 4) -> float:
    """Stable rounding for report floats (readability, not determinism —
    the underlying values are already deterministic)."""
    return round(value, digits)


class ServiceMetrics:
    """Accumulates per-event records and windowed time series."""

    def __init__(self, *, window: int = 100, record_events: bool = True):
        self.window = require_whole("window", window, 1)
        self.record_events = record_events
        self.events: list[dict[str, object]] = []
        self.series: list[dict[str, object]] = []
        self.n_events = 0
        self.n_opens = 0
        self.n_accepted = 0
        self.n_rejected = 0
        self.n_closes = 0
        self.n_released = 0
        self.n_shed = 0
        self.per_class: dict[str, dict[str, int]] = {}
        self.per_tenant: dict[str, dict[str, int]] = {}
        self.n_fault_events = 0
        self.n_failures = 0
        self.n_repairs = 0
        self.n_evicted = 0
        self.n_reallocated = 0
        self.n_realloc_same_bounds = 0
        self.n_realloc_degraded = 0
        self.n_fault_dropped = 0
        self._window_opens = 0
        self._window_accepts = 0
        self._window_start_s = 0.0
        #: Wall time of every admission decision, in arrival order (the
        #: telemetry flush reads it from a cursor; never serialised).
        self.admit_wall_s: list[float] = []
        self._realloc_wall_s: list[float] = []

    # -- recording ------------------------------------------------------------

    def record_open(self, record: dict[str, object] | None, *,
                    qos_name: str, accepted: bool, wall_s: float,
                    tenant: str = "", shed: str | None = None) -> None:
        """Record one admission decision (``record`` is JSON-ready, or
        ``None`` when per-event recording is off).

        ``tenant`` feeds the per-tenant rollup of tenanted workloads
        (empty keeps it out entirely, preserving untenanted report
        bytes); ``shed`` names the policy layer that rejected the open
        before it reached the allocator — sheds count into the
        rejected totals *and* into their own ``shed`` tallies.
        """
        self.n_events += 1
        self.n_opens += 1
        self._window_opens += 1
        stats = self.per_class.setdefault(
            qos_name, {"opens": 0, "accepted": 0, "rejected": 0})
        stats["opens"] += 1
        if accepted:
            self.n_accepted += 1
            self._window_accepts += 1
            stats["accepted"] += 1
        else:
            self.n_rejected += 1
            stats["rejected"] += 1
            if shed is not None:
                self.n_shed += 1
                # Only classes that were actually shed grow the key, so
                # policy-free reports keep their exact per-class shape.
                stats["shed"] = stats.get("shed", 0) + 1
        if tenant:
            tstats = self.per_tenant.setdefault(
                tenant, {"opens": 0, "accepted": 0, "rejected": 0,
                         "shed": 0})
            tstats["opens"] += 1
            if accepted:
                tstats["accepted"] += 1
            else:
                tstats["rejected"] += 1
                if shed is not None:
                    tstats["shed"] += 1
        self.admit_wall_s.append(wall_s)
        if self.record_events and record is not None:
            self.events.append(record)

    def record_close(self, record: dict[str, object] | None, *,
                     released: bool) -> None:
        """Record one close (released or skipped)."""
        self.n_events += 1
        self.n_closes += 1
        if released:
            self.n_released += 1
        if self.record_events and record is not None:
            self.events.append(record)

    def record_fault(self, record: dict[str, object] | None, *,
                     action: str, evicted: int, reallocated: int,
                     same_bounds: int, degraded: int,
                     realloc_wall_s: float) -> None:
        """Record one fabric fault/repair and its re-allocation outcome.

        Fault events do not count into ``n_events`` (that stays the
        session-event total the accept rate is quoted against); they
        accumulate into the ``faults`` section of the report instead.
        """
        self.n_fault_events += 1
        if action == "fail":
            self.n_failures += 1
        else:
            self.n_repairs += 1
        self.n_evicted += evicted
        self.n_reallocated += reallocated
        self.n_realloc_same_bounds += same_bounds
        self.n_realloc_degraded += degraded
        self.n_fault_dropped += evicted - reallocated
        if evicted:
            self._realloc_wall_s.append(realloc_wall_s / evicted)
        if self.record_events and record is not None:
            self.events.append(record)

    def fault_totals(self) -> dict[str, object]:
        """The deterministic ``faults`` section of the report.

        ``guarantee_retention`` is the fraction of fault-evicted
        sessions re-admitted with bounds no worse than their original
        quote; ``session_survival`` the fraction re-admitted at all.
        """
        evicted = self.n_evicted
        return {
            "n_fault_events": self.n_fault_events,
            "n_failures": self.n_failures,
            "n_repairs": self.n_repairs,
            "n_evicted": evicted,
            "n_reallocated": self.n_reallocated,
            "n_realloc_same_bounds": self.n_realloc_same_bounds,
            "n_realloc_degraded": self.n_realloc_degraded,
            "n_dropped": self.n_fault_dropped,
            "guarantee_retention": _round(
                self.n_realloc_same_bounds / evicted if evicted else 1.0),
            "session_survival": _round(
                self.n_reallocated / evicted if evicted else 1.0),
        }

    def snapshot(self, *, time_s: float, active_sessions: int,
                 mean_link_utilisation: float) -> None:
        """Append one time-series point (called every ``window`` events)."""
        span = max(time_s - self._window_start_s, 1e-12)
        self.series.append({
            "event": self.n_events,
            "t_ms": _round(time_s * 1e3),
            "active_sessions": active_sessions,
            "mean_link_utilisation": _round(mean_link_utilisation),
            "accept_rate_window": _round(
                self._window_accepts / self._window_opens
                if self._window_opens else 1.0),
            "accept_rate_total": _round(
                self.n_accepted / self.n_opens if self.n_opens else 1.0),
            "churn_events_per_s": _round(self.window / span, 1),
        })
        self._window_opens = 0
        self._window_accepts = 0
        self._window_start_s = time_s

    @property
    def due_for_snapshot(self) -> bool:
        """True when a window boundary has been reached."""
        return self.n_events % self.window == 0

    # -- wall-clock side channel ----------------------------------------------

    def timing(self, wall_s: float) -> dict[str, float]:
        """Machine-dependent figures (kept out of the canonical report)."""
        admits = sorted(self.admit_wall_s)
        out = {
            "wall_s": wall_s,
            "events_per_s": self.n_events / wall_s if wall_s > 0 else 0.0,
        }
        if admits:
            out["admit_mean_us"] = 1e6 * sum(admits) / len(admits)
            out["admit_p99_us"] = 1e6 * admits[
                min(len(admits) - 1, int(0.99 * len(admits)))]
        if self._realloc_wall_s:
            # Mean wall-clock to re-allocate one fault-evicted session
            # (release + re-admission through the normal path).
            out["realloc_mean_us"] = (1e6 * sum(self._realloc_wall_s) /
                                      len(self._realloc_wall_s))
        return out


@dataclass
class ServiceReport:
    """The aggregated outcome of one service run."""

    service: str
    topology: str
    table_size: int
    frequency_mhz: float
    seed: int
    totals: dict[str, object]
    per_class: dict[str, dict[str, int]]
    series: list[dict[str, object]]
    invariant: dict[str, object]
    events: list[dict[str, object]] = field(default_factory=list)
    #: Fault/repair survivability section; ``None`` for runs without
    #: fault injection (kept out of the JSON so fault-free reports are
    #: byte-compatible with earlier releases).
    faults: dict[str, object] | None = None
    #: Per-tenant admission rollup; ``None`` for untenanted workloads
    #: (same byte-compatibility contract as ``faults``).
    tenants: dict[str, dict[str, int]] | None = None
    #: Weighted-fair policy section (spec echo + per-tenant scheduler
    #: state); ``None`` under the default FCFS policy.
    fairness: dict[str, object] | None = None
    #: Wall-clock figures; machine-dependent, never serialised.
    timing: dict[str, float] = field(default_factory=dict, init=False)
    #: Stream anomalies the service counted (``non_monotone_time``,
    #: ``duplicate_session``, ``unknown_session``); never serialised —
    #: a caller that wants to fail on one reads this block.
    anomalies: dict[str, int] = field(default_factory=dict, init=False)

    def to_record(self) -> dict[str, object]:
        """The canonical, deterministic JSON-ready dictionary."""
        record: dict[str, object] = {
            "service": self.service,
            "topology": self.topology,
            "table_size": self.table_size,
            "frequency_mhz": self.frequency_mhz,
            "seed": self.seed,
            "totals": self.totals,
            "per_class": self.per_class,
            "series": self.series,
            "invariant": self.invariant,
        }
        if self.faults is not None:
            record["faults"] = self.faults
        if self.tenants is not None:
            record["tenants"] = self.tenants
        if self.fairness is not None:
            record["fairness"] = self.fairness
        if self.events:
            record["events"] = self.events
        return record

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, no wall-clock state."""
        return json.dumps(self.to_record(), indent=2, sort_keys=True)
