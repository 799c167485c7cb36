"""The online NoC control plane: session churn over a live allocation.

:class:`SessionService` is the runtime entity the Æthereal
reconfiguration flow assumes: it consumes a time-ordered stream of
session open/close requests and keeps the network's TDM allocation
consistent throughout —

* **open**: the admission controller searches the cached candidate
  routes for a contention-free reservation; on success the session is
  *quoted* its analytical worst-case latency and guaranteed throughput
  (:func:`~repro.core.analysis.channel_bounds`) — the paper's
  predictability, now stamped on every accept; on failure the session
  is rejected with the allocator's reason and the network is untouched;
* **close**: the session's slots are released on every link it
  traversed, immediately reusable by later arrivals;
* after **every** transition the composability invariant is re-checked:
  no other running session's reservations may have moved (the paper's
  undisrupted-reconfiguration property, continuously verified under
  churn instead of once, at O(1) per transition — see
  :mod:`repro.service.invariants`);
* with ``record_timeline=True`` every accepted open and released close
  is also emitted onto a :class:`~repro.core.timeline.
  ReconfigurationTimeline` — the replayable artifact the flit-level
  simulator executes epoch by epoch, closing the loop from analytical
  isolation proofs to cycle-level trace equality.

The run loop is deliberately synchronous and deterministic: one event
stream in, one report out, byte-identical across repeated runs.
"""

from __future__ import annotations

import time
from collections.abc import Iterable

from repro.core.allocation import Allocation, SlotAllocator
from repro.core.analysis import channel_bounds
from repro.core.exceptions import AllocationError, ConfigurationError
from repro.core.placement import ChannelAllocation
from repro.faults.model import FaultEvent
from repro.service.admission import AdmissionController
from repro.service.churn import SessionEvent
from repro.service.fairness import (FairnessSpec, PolicyEvent, TenantSpec,
                                    WeightedFairScheduler)
from repro.service.invariants import CompositionInvariantChecker
from repro.service.metrics import ServiceMetrics, ServiceReport
from repro.telemetry.hub import coalesce
from repro.telemetry.monitor import MonitorSpec, quote_conformance
from repro.telemetry.spans import Span
from repro.topology.graph import Topology

__all__ = ["SessionService", "merge_events"]

#: Wall-clock admission service latency buckets, microseconds.
_ADMIT_US_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)
#: Simulated session hold-time buckets, milliseconds.
_HOLD_MS_BUCKETS = (0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000, 3000)
#: Quoted worst-case latency bound buckets, nanoseconds.
_QUOTE_NS_BUCKETS = (100, 200, 500, 1000, 2000, 5000, 10000)


#: Equal-instant ordering of the merged timeline: closes free slots
#: first, repairs restore fabric, policy updates re-tune the scheduler,
#: then failures degrade and opens arrive last — so a close's slots are
#: reusable by a same-instant arrival, a repaired resource serves it,
#: and a re-weight at time ``t`` governs the arrivals of time ``t``.
_MERGE_PRIORITY = {"close": 0, "repair": 1, "set_weight": 2,
                   "set_floor": 2, "set_limit": 2, "fail": 3, "open": 4}


def _merge_key(event):
    """Total deterministic sort key ``(time, kind-priority, tag, id)``.

    Every stream kind contributes a distinct priority band and an
    id within it (session id, fault target, policy tenant), so ties at
    equal instants break identically regardless of input stream order —
    the property the tie-breaking regression tests pin down.
    """
    if isinstance(event, FaultEvent):
        return (event.time_s, _MERGE_PRIORITY[event.action], event.kind,
                event.target_label)
    if isinstance(event, PolicyEvent):
        return (event.time_s, _MERGE_PRIORITY[event.action],
                event.action, event.tenant)
    return (event.time_s, _MERGE_PRIORITY[event.kind], "",
            event.session.session_id)


def merge_events(*event_streams):
    """Merge session, fault and policy streams into one timeline.

    Accepts any number of streams mixing
    :class:`~repro.service.churn.SessionEvent`,
    :class:`~repro.faults.model.FaultEvent` and
    :class:`~repro.service.fairness.PolicyEvent`; the result is totally
    ordered by :func:`_merge_key` and therefore independent of how the
    events were split across the input streams.
    """
    return tuple(sorted(
        [event for stream in event_streams for event in stream],
        key=_merge_key))


class SessionService:
    """Admission-controlled session churn over one NoC.

    The ``allocator`` fixes the operating point — table size, frequency,
    word format and allocator options — and may be shared by several
    services over one topology, which then share its route caches.
    """

    def __init__(self, topology: Topology, *,
                 allocator: SlotAllocator,
                 name: str = "service", seed: int = 0,
                 window: int = 100, record_events: bool = True,
                 record_timeline: bool = False,
                 telemetry=None,
                 monitor: MonitorSpec | bool | None = None,
                 policy: str = "fcfs",
                 fairness: FairnessSpec | None = None,
                 tenants: tuple[TenantSpec, ...] = ()):
        if policy not in ("fcfs", "wfq"):
            raise ConfigurationError(
                f"unknown admission policy {policy!r}; expected 'fcfs' "
                "or 'wfq'")
        if policy == "fcfs" and (fairness is not None or tenants):
            raise ConfigurationError(
                "fairness spec / tenant roster only apply to "
                "policy='wfq' (FCFS must stay byte-identical to "
                "policy-free runs)")
        self.policy = policy
        self.metrics = ServiceMetrics(window=window,
                                      record_events=record_events)
        #: The weighted-fair gate; ``None`` keeps the FCFS hot path
        #: untouched (not a single extra branch taken per event).
        self._fairness: WeightedFairScheduler | None = (
            WeightedFairScheduler(tenants, spec=fairness)
            if policy == "wfq" else None)
        if allocator.topology is not topology:
            raise ConfigurationError(
                "allocator was built for a different topology object")
        self.name = name
        self.seed = seed
        self.topology = topology
        self.allocator = allocator
        # All instruments resolve here, once; session spans use
        # *simulated* event time, the admit-latency histogram is
        # wall-clock and therefore flagged into the meta section.
        tel = coalesce(telemetry)
        self.telemetry = tel
        self._tel_enabled = tel.enabled
        if tel.enabled:
            # Only an enabled hub rebinds a (possibly shared) allocator;
            # a disabled service leaves whatever binding it carries.
            allocator.set_telemetry(tel)
        self._tel_admit_wall = tel.histogram(
            "service.admit_latency_us", bounds=_ADMIT_US_BUCKETS,
            wall=True)
        self._tel_hold = tel.histogram("service.session_hold_ms",
                                       bounds=_HOLD_MS_BUCKETS)
        self._tel_quote = tel.histogram(
            "service.quoted_latency_bound_ns", bounds=_QUOTE_NS_BUCKETS)
        #: Open-session bookkeeping for span tracing: session id ->
        #: (simulated open time, QoS class).  Populated only when the
        #: hub is enabled, so the disabled hot path never touches it.
        self._session_open: dict[str, tuple[float, str]] = {}
        # Observations are deferred: the hot path appends raw values to
        # a list (an append is several times cheaper than an instrument
        # call or a Span construction) and the flush hook registered
        # below folds them into the registry whenever the hub is read or
        # exported.  Admit wall times are already kept by the metrics;
        # the hook reads on from where it last stopped.
        self._flushed_admits = 0
        self._pending_spans: list[tuple[str, float, float, str, str]] = []
        if tel.enabled:
            tel.register_flush(self._flush_telemetry)
        self.admission = AdmissionController(allocator, telemetry=tel)
        self.allocation: Allocation = self.admission.allocation
        self.checker = CompositionInvariantChecker(self.allocation)
        #: Surprises in the event stream, counted and otherwise handled
        #: as before: an event older than the one before it, an open
        #: naming a session that is already active, a close naming a
        #: session that is neither active nor owed one.  Beside — not
        #: in — the canonical report (:attr:`ServiceReport.anomalies`).
        self.anomalies = {"non_monotone_time": 0, "duplicate_session": 0,
                          "unknown_session": 0}
        # Which path each invariant check took, each anomaly kind and
        # each policy layer's sheds: the hot path keeps plain integer
        # tallies; the flush hook folds ``(counter, read the tally)``
        # pairs as deltas.  The readers close over the tallied objects,
        # not over ``self``, so a finished service is freed by refcount.
        checker, fairness = self.checker, self._fairness
        anomalies = self.anomalies
        self._folds = [
            (tel.counter("invariants.checks", path="digest"),
             lambda: checker.transitions_checked - checker.rescans),
            (tel.counter("invariants.checks", path="rescan"),
             lambda: checker.rescans),
            (tel.counter("invariants.records_compared"),
             lambda: checker.records_compared),
            (tel.counter("invariants.full_validations"),
             lambda: checker.full_validations),
            *((tel.counter("service.anomalies", kind=kind),
               lambda kind=kind: anomalies[kind])
              for kind in anomalies),
            *((tel.counter("service.fairness.sheds", layer=layer),
               lambda layer=layer: sum(stats[f"shed_{layer}"] for stats
                                       in fairness.stats.values()))
              for layer in (fairness.REASONS if fairness is not None
                            else ()))]
        self._flushed = [0] * len(self._folds)
        # Sessions that hold no reservation but whose close is still to
        # come (open shed or rejected, or dropped by a fault): what
        # tells their close from one nobody opened.
        self._unadmitted: set[str] = set()
        # The guarantee-conformance watchdog: when armed, every accepted
        # admission (and fault re-admission) is retained for quoting.
        # Deferred like the span/histogram capture above: the hot path
        # appends the (immutable) ChannelAllocation and the analytical
        # bounds are computed in conformance_report(), so arming the
        # watchdog costs one tuple append per accept.  A plain ``True``
        # arms the default spec.
        if monitor is True:
            monitor = MonitorSpec()
        elif monitor is False:
            monitor = None
        self.monitor: MonitorSpec | None = monitor
        self._quotes: list[tuple] = []
        #: Tenant tag of every admitted tenanted session, so fault
        #: re-admissions can re-quote under the owning tenant.
        self._session_tenant: dict[str, str] = {}
        self.peak_active = 0
        self._last_time_s = 0.0
        self.recorder = None
        if record_timeline:
            from repro.core.timeline import TimelineRecorder
            self.recorder = TimelineRecorder(
                topology, table_size=self.allocator.table_size,
                frequency_hz=self.allocator.frequency_hz,
                fmt=self.allocator.fmt)

    def timeline(self, *, horizon_slots: int):
        """The recorded churn as a replayable reconfiguration timeline.

        Requires ``record_timeline=True``; the trace is compressed into
        the requested horizon (see :meth:`~repro.core.timeline.
        TimelineRecorder.build`).
        """
        if self.recorder is None:
            raise ConfigurationError(
                "timeline recording is off; construct the service with "
                "record_timeline=True")
        return self.recorder.build(horizon_slots=horizon_slots)

    # -- telemetry helpers ----------------------------------------------------

    def _tel_session_end(self, session_id: str, time_s: float,
                         outcome: str) -> str:
        """Close one session's trace span at a simulated instant;
        returns the QoS class the span carried.

        Only called behind ``self._tel_enabled``; unmatched ids (the
        session opened before tracing, or was already closed) are
        ignored and read as class ``""``.
        """
        entry = self._session_open.pop(session_id, None)
        if entry is None:
            return ""
        opened_s, qos_name = entry
        # One tuple append on the hot path; the hold-time histogram and
        # the Span object itself materialise at flush time.  A stream
        # that runs backwards in time (counted as an anomaly) ends the
        # span where it started instead of before.
        self._pending_spans.append(
            (session_id, opened_s, max(time_s, opened_s), qos_name,
             outcome))
        return qos_name

    def _flush_telemetry(self) -> None:
        """Fold deferred hot-path observations into the registry.

        Registered with :meth:`Telemetry.register_flush`, so it runs
        whenever the hub is read or exported.  Pending lists are
        drained, which keeps repeated flushes from double-counting.
        """
        observe = self._tel_hold.observe
        spans = self.telemetry.spans
        for session_id, opened_s, time_s, qos_name, outcome in (
                self._pending_spans):
            observe((time_s - opened_s) * 1e3)
            spans.append(Span(
                session_id, "sessions", "ms", opened_s * 1e3,
                time_s * 1e3, False,
                {"qos": qos_name, "outcome": outcome}))
        self._pending_spans.clear()
        observe = self._tel_admit_wall.observe
        walls = self.metrics.admit_wall_s
        for wall_s in walls[self._flushed_admits:]:
            observe(wall_s * 1e6)
        self._flushed_admits = len(walls)
        for index, (counter, read) in enumerate(self._folds):
            total = read()
            counter.inc(total - self._flushed[index])
            self._flushed[index] = total

    # -- event handling -------------------------------------------------------

    def process(self, event) -> None:
        """Apply one session or fault event to the live allocation."""
        if event.time_s < self._last_time_s:
            self.anomalies["non_monotone_time"] += 1
        self._last_time_s = event.time_s
        if isinstance(event, FaultEvent):
            self.process_fault(event)
            return
        if isinstance(event, PolicyEvent):
            if self._fairness is None:
                raise ConfigurationError(
                    "policy events need policy='wfq'; the FCFS service "
                    "has no scheduler to adjust")
            self._fairness.apply_policy(event)
            return
        if event.kind == "open":
            self._open(event)
        else:
            self._close(event)
        if self.metrics.due_for_snapshot:
            self.metrics.snapshot(
                time_s=event.time_s,
                active_sessions=len(self.allocation.channels),
                mean_link_utilisation=self.allocation
                .mean_link_utilisation())

    def process_fault(self, event: FaultEvent) -> None:
        """Apply one fabric failure or repair.

        A failure force-releases every session whose route crosses the
        dead resource and immediately tries to re-admit each one through
        the *normal* admission path (now restricted to surviving links);
        re-admissions are quoted fresh bounds and compared against the
        pre-fault quote for the guarantee-retention verdict.  All
        transitions flow through the timeline recorder, so a churn+fault
        trace replays through the standard epoch-based simulators.  A
        repair only restores the fabric — degraded sessions are not
        migrated back (no disruption without cause).
        """
        links, routers = (((event.target,), ()) if event.kind == "link"
                          else ((), (event.target,)))
        excluded = self.allocation.set_failed(
            *self.allocation.fabric_after(event.action, links, routers))
        evicted = reallocated = same_bounds = degraded = 0
        outcomes: list[dict[str, object]] = []
        start = time.perf_counter()
        if event.action == "fail" and excluded:
            affected = sorted(
                sid for sid, ca in self.allocation.channels.items()
                if not excluded.isdisjoint(ca.path.link_keys()))
            for sid in affected:
                outcome = self._relocate(sid, event.time_s)
                evicted += 1
                if outcome["decision"] != "dropped":
                    reallocated += 1
                    if outcome["decision"] == "same_bounds":
                        same_bounds += 1
                    else:
                        degraded += 1
                outcomes.append(outcome)
        wall = time.perf_counter() - start
        if self._tel_enabled:
            self.telemetry.span(
                f"{event.action} {event.kind} {event.target_label}",
                event.time_s * 1e3, event.time_s * 1e3, track="faults",
                unit="ms", action=event.action, evicted=evicted,
                reallocated=reallocated)
        record: dict[str, object] | None = None
        if self.metrics.record_events:
            record = {
                "after_event": self.metrics.n_events,
                "fault_index": self.metrics.n_fault_events + 1,
                "t_ms": round(event.time_s * 1e3, 4),
                "kind": "fault",
                "action": event.action,
                "fault_kind": event.kind,
                "target": event.target_label,
                "evicted": evicted,
                "reallocated": reallocated,
                "sessions": outcomes,
            }
        self.metrics.record_fault(
            record, action=event.action, evicted=evicted,
            reallocated=reallocated, same_bounds=same_bounds,
            degraded=degraded, realloc_wall_s=wall)

    def _start(self, time_s: float, session_id: str,
               ca: ChannelAllocation, qos_name: str, quoted_as: str
               ) -> None:
        """An admitted channel goes live: the one place every watcher —
        peak count, trace span, composability checker, timeline
        recorder, conformance quotes — hears of it.  The live sessions
        are ``allocation.channels``, which ``admit`` has just written."""
        self.peak_active = max(self.peak_active,
                               len(self.allocation.channels))
        if self._tel_enabled:
            self._session_open[session_id] = (time_s, qos_name)
        self.checker.check_transition(session_id)
        if self.recorder is not None:
            self.recorder.record_start(time_s, session_id, (ca,))
        if self.monitor is not None:
            self._quotes.append((session_id, quoted_as, ca,
                                 self._session_tenant.get(session_id,
                                                          "")))

    def _stop(self, time_s: float, session_id: str, outcome: str) -> str:
        """A live channel is released and every watcher of
        :meth:`_start` told; returns its traced QoS class (``""`` when
        tracing is off)."""
        qos_name = ""
        if self._tel_enabled:
            qos_name = self._tel_session_end(session_id, time_s, outcome)
        self.admission.release(session_id)
        self.checker.check_transition(session_id)
        if self.recorder is not None:
            self.recorder.record_stop(time_s, session_id)
        return qos_name

    def _relocate(self, session_id: str, time_s: float
                  ) -> dict[str, object]:
        """Force-release one fault-hit session and try to re-admit it."""
        old_ca = self.allocation.channels[session_id]
        qos_name = self._stop(time_s, session_id, "evicted")
        outcome: dict[str, object] = {"session": session_id}
        try:
            new_ca = self.admission.admit(old_ca.spec, old_ca.path.source,
                                          old_ca.path.dest)
        except AllocationError as exc:
            outcome["decision"] = "dropped"
            outcome["reason"] = exc.reason
            self._unadmitted.add(session_id)
            return outcome
        self._start(time_s, session_id, new_ca, qos_name, "relocated")
        allocator = self.allocator
        same = new_ca.no_worse_than(old_ca)
        outcome["decision"] = "same_bounds" if same else "degraded"
        outcome["latency_bound_ns"] = round(channel_bounds(
            new_ca, allocator.frequency_hz, allocator.fmt).latency_ns, 3)
        return outcome

    def _open(self, event: SessionEvent) -> None:
        session = event.session
        if session.session_id in self.allocation.channels:
            self.anomalies["duplicate_session"] += 1
        spec = session.channel_spec()
        # Record dicts (and the bound quote they carry) are only built
        # when per-event recording is on; campaigns and the benchmark run
        # with record_events=False and must not pay for discarded work.
        recording = self.metrics.record_events
        record: dict[str, object] | None = None
        if recording:
            record = {
                "event": self.metrics.n_events + 1,
                "t_ms": round(event.time_s * 1e3, 4),
                "kind": "open",
                "session": session.session_id,
                "class": session.qos.name,
                "src": session.src_ni,
                "dst": session.dst_ni,
            }
            if session.tenant:
                record["tenant"] = session.tenant
                record["app"] = session.app
        fairness = self._fairness
        start = time.perf_counter()
        if fairness is not None and session.tenant:
            verdict = fairness.admit_decision(event.time_s, session)
            if verdict is not None:
                # Policy shed: the allocator is never consulted, the
                # network untouched — still a checked (no-op) transition
                # and a rejected open in every rollup.
                wall = time.perf_counter() - start
                if record is not None:
                    record["decision"] = "shed"
                    record["shed"] = verdict[0]
                    record["reason"] = verdict[1]
                self.checker.check_transition(session.session_id)
                self._unadmitted.add(session.session_id)
                self.metrics.record_open(
                    record, qos_name=session.qos.name, accepted=False,
                    wall_s=wall, tenant=session.tenant,
                    shed=verdict[0])
                return
        try:
            ca = self.admission.admit(spec, session.src_ni,
                                      session.dst_ni)
        except AllocationError as exc:
            wall = time.perf_counter() - start
            if fairness is not None and session.tenant:
                fairness.on_capacity_reject(event.time_s, session)
            if record is not None:
                record["decision"] = "reject"
                record["reason"] = exc.reason
            # A capacity reject leaves the network untouched — still a
            # checked (no-op) transition.
            self.checker.check_transition(session.session_id)
            self._unadmitted.add(session.session_id)
            accepted = False
        else:
            wall = time.perf_counter() - start
            if fairness is not None and session.tenant:
                fairness.on_admitted(event.time_s, session)
            if session.tenant:
                self._session_tenant[session.session_id] = session.tenant
            self._start(event.time_s, session.session_id, ca,
                        session.qos.name, session.qos.name)
            if record is not None:
                bounds = channel_bounds(ca, self.allocator.frequency_hz,
                                        self.allocator.fmt)
                record["decision"] = "accept"
                record["quote"] = {
                    "latency_bound_ns": round(bounds.latency_ns, 3),
                    "throughput_mb_s": round(
                        bounds.throughput_bytes_per_s / 1e6, 3),
                    "n_slots": bounds.n_slots,
                    "hops": len(ca.path.routers),
                }
                # Quote-bound capture piggybacks on the record-mode
                # bound computation; record_events=False runs skip both.
                self._tel_quote.observe(bounds.latency_ns)
            accepted = True
        self.metrics.record_open(record, qos_name=session.qos.name,
                                 accepted=accepted, wall_s=wall,
                                 tenant=session.tenant)

    def _close(self, event: SessionEvent) -> None:
        session = event.session
        released = session.session_id in self.allocation.channels
        if released:
            self._stop(event.time_s, session.session_id, "closed")
        elif session.session_id in self._unadmitted:
            self._unadmitted.remove(session.session_id)
        else:
            self.anomalies["unknown_session"] += 1
        record: dict[str, object] | None = None
        if self.metrics.record_events:
            record = {
                "event": self.metrics.n_events + 1,
                "t_ms": round(event.time_s * 1e3, 4),
                "kind": "close",
                "session": session.session_id,
                "released": released,
            }
        self.metrics.record_close(record, released=released)

    def conformance_report(self, *, scenario: str = "service"):
        """Classify every accepted quote against its session's QoS needs.

        Requires the service to have been constructed with ``monitor``
        set; returns the canonical byte-deterministic
        :class:`~repro.telemetry.monitor.ConformanceReport` over all
        admissions (including fault re-admissions) so far.  The
        analytical bounds are quoted *here*, not on the admission hot
        path — the retained allocations are immutable, so the deferred
        quote is identical to an inline one.
        """
        if self.monitor is None:
            raise ConfigurationError(
                "conformance monitoring is off; construct the service "
                "with monitor=MonitorSpec() (or monitor=True)")
        quotes = []
        for session_id, qos_name, ca, tenant in self._quotes:
            bounds = channel_bounds(ca, self.allocator.frequency_hz,
                                    self.allocator.fmt)
            quotes.append((session_id, qos_name, bounds.latency_ns,
                           ca.spec.max_latency_ns,
                           bounds.throughput_bytes_per_s,
                           ca.spec.throughput_bytes_per_s, tenant))
        return quote_conformance(quotes, spec=self.monitor,
                                 scenario=scenario)

    # -- batch execution ------------------------------------------------------

    def run(self, events: Iterable) -> ServiceReport:
        """Process a whole stream and aggregate the report.

        The stream may mix :class:`~repro.service.churn.SessionEvent`
        and :class:`~repro.faults.model.FaultEvent` items (see
        :func:`merge_events`); it must be time-ordered.
        """
        start = time.perf_counter()
        for event in events:
            self.process(event)
        wall = time.perf_counter() - start
        return self.report(wall_s=wall)

    def report(self, *, wall_s: float = 0.0) -> ServiceReport:
        """Aggregate the current state into a :class:`ServiceReport`."""
        if self._tel_enabled:
            # Sessions still open when the stream ends get spans closed
            # at the last simulated instant; popping them keeps repeated
            # report() calls from duplicating spans.
            for session_id in sorted(self._session_open):
                self._tel_session_end(session_id, self._last_time_s,
                                      "open-at-end")
        metrics = self.metrics
        totals: dict[str, object] = {
            "n_events": metrics.n_events,
            "n_opens": metrics.n_opens,
            "n_accepted": metrics.n_accepted,
            "n_rejected": metrics.n_rejected,
            "n_closes": metrics.n_closes,
            "n_released": metrics.n_released,
            "accept_rate": round(
                metrics.n_accepted / metrics.n_opens, 4)
            if metrics.n_opens else 1.0,
            "active_at_end": len(self.allocation.channels),
            "peak_active": self.peak_active,
            "final_mean_link_utilisation": round(
                self.allocation.mean_link_utilisation(), 4),
        }
        if self._fairness is not None:
            # Only policy-gated runs carry the shed total: FCFS totals
            # keep their exact key set (byte-compatibility).
            totals["n_shed"] = metrics.n_shed
        report = ServiceReport(
            service=self.name,
            topology=self.topology.name,
            table_size=self.allocator.table_size,
            frequency_mhz=self.allocator.frequency_hz / 1e6,
            seed=self.seed,
            totals=totals,
            per_class={k: dict(v)
                       for k, v in sorted(metrics.per_class.items())},
            series=list(metrics.series),
            invariant=self.checker.final_check(),
            events=list(metrics.events),
            faults=(metrics.fault_totals()
                    if metrics.n_fault_events else None),
            tenants=({k: dict(v)
                      for k, v in sorted(metrics.per_tenant.items())}
                     if metrics.per_tenant else None),
            fairness=(self._fairness.to_record()
                      if self._fairness is not None else None),
        )
        report.timing = metrics.timing(wall_s)
        report.anomalies = dict(self.anomalies)
        return report
