"""Guarantee-conformance monitoring: turning telemetry into verdicts.

The paper's headline property is *predictability*: every admitted
connection carries an analytical worst-case latency and a guaranteed
throughput (:func:`~repro.core.analysis.channel_bounds`), and
composability means observed behaviour must stay inside those quotes no
matter what anyone else does.  PR 7's telemetry records raw metrics but
draws no conclusions; this module is the analysis tier that closes the
loop — it consumes the existing artifacts (``SimResult`` stats,
``ReconfigurationTimeline`` schedules, service quote streams) and emits
*classified verdicts*:

* **guarantee conformance** — per channel/session, compare observed
  worst-case and mean service latency and delivered throughput against
  the quoted analytical bounds, classifying each into ``within_bounds``
  / ``tight`` / ``violated`` (:class:`ChannelConformance`), folded into
  one canonical, byte-deterministic :class:`ConformanceReport`.
  Builders exist for every artifact the repo produces: a static GS run
  (:func:`conformance_from_result`), a churn timeline replay
  (:func:`timeline_conformance`) and a live service's quote stream
  (:func:`quote_conformance`); a campaign's aggregated records are
  judged beside the table that knows their shapes
  (:func:`repro.campaign.kinds.campaign_conformance`);
* **fabric introspection** — :class:`FabricRollup` folds slot schedules
  into per-link utilisation and per-NI slot-occupancy tables with
  hotspot top-K views, plus Chrome-trace counter tracks on the existing
  Perfetto export.

Everything here inherits the repo's determinism contract: reports are
pure functions of simulated quantities, canonically serialised (sorted
keys, fixed rounding), byte-identical across repeated runs and across
serial/parallel campaign executions.  Wall-clock never enters a
conformance verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from repro.core.exceptions import ConfigurationError
from repro.core.timeline import static_lifetimes
from repro.simulation.monitors import ServiceObservation

__all__ = [
    "MonitorSpec", "ChannelConformance", "ConformanceReport",
    "conformance_from_result", "timeline_conformance",
    "quote_conformance", "FabricRollup",
]

#: Verdict severity order; combining verdicts takes the worst.
VERDICTS = ("within_bounds", "tight", "violated")

#: Relative tolerance of every violation comparison (floating-point
#: guard, same spirit as
#: :meth:`~repro.core.analysis.ChannelBounds.meets_latency`).
EPS = 1e-9

#: Rows the top-K tables show when the caller names no ``k``.
TOP_K = 8


@dataclass(frozen=True)
class MonitorSpec:
    """Tunables of the conformance watchdog.

    ``slack_fraction`` is the *remaining-headroom* threshold below
    which an observation is flagged ``tight``: with the default 0.2, a
    channel whose observed worst case consumes 80 % or more of its
    quoted bound is tight.  The violation comparison itself carries the
    relative tolerance :data:`EPS`.

    >>> spec = MonitorSpec()
    >>> spec.classify(40.0, 100.0)
    'within_bounds'
    >>> spec.classify(85.0, 100.0)
    'tight'
    >>> spec.classify(100.5, 100.0)
    'violated'
    """

    slack_fraction: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.slack_fraction < 1.0:
            raise ConfigurationError(
                f"slack_fraction must be in [0, 1), got "
                f"{self.slack_fraction}")

    def classify(self, observed: float, bound: float) -> str:
        """Classify one observation against its quoted bound.

        ``observed`` and ``bound`` share any unit; ``bound <= 0`` (an
        unbounded or unmeasured quote) always classifies as
        ``within_bounds``.
        """
        if bound <= 0:
            return "within_bounds"
        if observed > bound * (1 + EPS):
            return "violated"
        if observed >= bound * (1 - self.slack_fraction):
            return "tight"
        return "within_bounds"


def _worst(*verdicts: str) -> str:
    """The most severe of several verdicts."""
    return max(verdicts, key=VERDICTS.index)


@dataclass(frozen=True)
class ChannelConformance:
    """One channel's (or session's, or run's) conformance verdict.

    ``kind`` names the artifact the verdict was folded from: ``trace``
    (measured flit latencies vs analytical bound), ``quote`` (admission
    quote vs QoS requirement) or ``run`` (a campaign record's folded
    outcome).  Unused measurements stay ``None`` and are omitted from
    the canonical record, so each kind serialises only what it measured.

    >>> c = ChannelConformance(channel="c0", kind="trace",
    ...                        verdict="within_bounds",
    ...                        latency_bound_ns=120.0,
    ...                        worst_latency_ns=48.0, n_messages=10)
    >>> c.to_record()["channel"]
    'c0'
    """

    channel: str
    kind: str
    verdict: str
    latency_bound_ns: float | None = None
    worst_latency_ns: float | None = None
    mean_latency_ns: float | None = None
    n_messages: int | None = None
    quoted_mb_s: float | None = None
    required_mb_s: float | None = None
    delivered_mb_s: float | None = None
    detail: str | None = None
    #: Owning tenant of a multi-tenant quote stream; ``None`` keeps the
    #: record byte-identical to untenanted monitoring.
    tenant: str | None = None

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ConfigurationError(
                f"verdict {self.verdict!r} not one of {VERDICTS}")

    @property
    def latency_headroom(self) -> float | None:
        """Remaining latency slack as a fraction of the bound."""
        if not self.latency_bound_ns or self.worst_latency_ns is None:
            return None
        return 1.0 - self.worst_latency_ns / self.latency_bound_ns

    def to_record(self) -> dict[str, object]:
        """Canonical JSON-ready form (``None`` measurements omitted)."""
        record: dict[str, object] = {
            "channel": self.channel,
            "kind": self.kind,
            "verdict": self.verdict,
        }
        for key, value, digits in (
                ("latency_bound_ns", self.latency_bound_ns, 3),
                ("worst_latency_ns", self.worst_latency_ns, 3),
                ("mean_latency_ns", self.mean_latency_ns, 3),
                ("quoted_mb_s", self.quoted_mb_s, 3),
                ("required_mb_s", self.required_mb_s, 3),
                ("delivered_mb_s", self.delivered_mb_s, 3)):
            if value is not None:
                record[key] = round(value, digits)
        if self.n_messages is not None:
            record["n_messages"] = self.n_messages
        headroom = self.latency_headroom
        if headroom is not None:
            record["latency_headroom"] = round(headroom, 4)
        if self.detail:
            record["detail"] = self.detail
        if self.tenant:
            record["tenant"] = self.tenant
        return record


@dataclass(frozen=True)
class ConformanceReport:
    """The canonical, byte-deterministic conformance verdict set.

    ``channels`` holds one :class:`ChannelConformance` per monitored
    channel/session/run, in a deterministic order (the builders sort).
    The report serialises with sorted keys and fixed rounding, so two
    runs over the same simulated inputs produce identical bytes — the
    same contract as every other report in the repo.

    >>> report = ConformanceReport(source="doc", scenario="s", channels=(
    ...     ChannelConformance("c0", "trace", "within_bounds"),
    ...     ChannelConformance("c1", "trace", "tight")))
    >>> report.ok, report.n_violated
    (True, 0)
    >>> report.counts["tight"]
    1
    """

    source: str
    scenario: str
    channels: tuple[ChannelConformance, ...] = ()
    slack_fraction: float = MonitorSpec.slack_fraction

    @property
    def counts(self) -> dict[str, int]:
        """Verdict histogram over every monitored channel."""
        counts = {verdict: 0 for verdict in VERDICTS}
        for entry in self.channels:
            counts[entry.verdict] += 1
        return counts

    @property
    def n_violated(self) -> int:
        """Channels whose observation broke the quoted bound."""
        return self.counts["violated"]

    @property
    def ok(self) -> bool:
        """True when no channel violated its bound."""
        return self.n_violated == 0

    def worst_channels(self, k: int = TOP_K
                       ) -> tuple[ChannelConformance, ...]:
        """The ``k`` entries with the least latency headroom first.

        Entries without a latency measurement sort last; ties break on
        the channel name, keeping the selection deterministic.
        """
        def key(entry: ChannelConformance):
            headroom = entry.latency_headroom
            return (headroom is None, headroom, entry.channel)
        return tuple(sorted(self.channels, key=key)[:k])

    @property
    def tenant_retention(self) -> dict[str, dict[str, object]]:
        """Per-tenant guarantee retention of a tenanted quote stream.

        For each tenant that owns at least one monitored entry:
        monitored count, violations, and ``retention`` — the fraction
        of its quotes that did *not* violate their bound (the
        multi-tenant analogue of the fault tier's guarantee-retention
        figure).  Empty for untenanted reports.
        """
        folded: dict[str, dict[str, object]] = {}
        for entry in self.channels:
            if not entry.tenant:
                continue
            row = folded.setdefault(
                entry.tenant, {"n_monitored": 0, "n_violated": 0,
                               "n_tight": 0})
            row["n_monitored"] += 1
            if entry.verdict == "violated":
                row["n_violated"] += 1
            elif entry.verdict == "tight":
                row["n_tight"] += 1
        for row in folded.values():
            row["retention"] = round(
                1.0 - row["n_violated"] / row["n_monitored"], 4)
        return dict(sorted(folded.items()))

    def to_record(self) -> dict[str, object]:
        """Canonical JSON-ready form (``tenants`` only when tenanted)."""
        record: dict[str, object] = {
            "source": self.source,
            "scenario": self.scenario,
            "slack_fraction": round(self.slack_fraction, 4),
            "n_channels": len(self.channels),
            "verdicts": self.counts,
            "ok": self.ok,
            "channels": [entry.to_record() for entry in self.channels],
        }
        tenants = self.tenant_retention
        if tenants:
            record["tenants"] = tenants
        return record

    def to_json(self) -> str:
        """Canonical serialisation: sorted keys, two-space indent."""
        return json.dumps(self.to_record(), indent=2, sort_keys=True)

    def write(self, path) -> None:
        """Write :meth:`to_json` (plus a trailing newline) to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    def summary(self) -> str:
        """One-line operator view of the verdict histogram."""
        counts = self.counts
        head = (f"conformance[{self.source}/{self.scenario}]: "
                f"{len(self.channels)} monitored, "
                f"{counts['within_bounds']} within bounds, "
                f"{counts['tight']} tight, "
                f"{counts['violated']} violated")
        if not self.ok:
            worst = self.worst_channels(1)
            if worst:
                head += f" (worst: {worst[0].channel})"
        return head

    def summary_rows(self, k: int = TOP_K
                     ) -> list[dict[str, object]]:
        """Top-K least-headroom table rows for ``format_table``."""
        rows = []
        for entry in self.worst_channels(k):
            headroom = entry.latency_headroom
            rows.append({
                "channel": entry.channel,
                "verdict": entry.verdict,
                "bound_ns": ("-" if entry.latency_bound_ns is None
                             else round(entry.latency_bound_ns, 1)),
                "worst_ns": ("-" if entry.worst_latency_ns is None
                             else round(entry.worst_latency_ns, 1)),
                "headroom": ("-" if headroom is None
                             else f"{headroom:.1%}"),
            })
        return rows

    def tenant_rows(self) -> list[dict[str, object]]:
        """Per-tenant guarantee-retention table rows for
        ``format_table`` (empty for untenanted reports)."""
        return [{
            "tenant": tenant,
            "monitored": row["n_monitored"],
            "violated": row["n_violated"],
            "tight": row["n_tight"],
            "retention": f"{row['retention']:.1%}",
        } for tenant, row in self.tenant_retention.items()]


def _judge_spans(name: str, spans, stats, spec: MonitorSpec, *,
                 frequency_hz: float, fmt,
                 horizon: int, simulated_ns: float) -> ChannelConformance:
    """Hold one channel's measurements against its quotes, span by span.

    ``spans`` are the channel's ``(start, end, allocation)`` lifetimes
    inside the simulated window.  Each is judged on its own — a channel
    a fault relocated runs on another route with another bound — and
    the entry of the span with the least latency headroom is reported,
    carrying the worst verdict of all of them.

    The latency metric is the *service* latency (queueing behind the
    channel's own earlier messages excluded — exactly the quantity the
    analytical bound covers, see :meth:`~repro.simulation.monitors.
    StatsCollector.service_latencies_ns`).  Delivered bytes are
    additionally held against the payload capacity of the reserved
    injection slots that fall inside the span, an exact integer count:
    delivering *more* than those slots carry is physically impossible
    on a contention-free TDM fabric, so an overdelivery is a
    monitor-level violation in its own right.
    """
    from repro.core.analysis import channel_bounds

    incarnations = stats.incarnation_observations(name)
    entries = []
    for start, end, ca in spans:
        bounds = channel_bounds(ca, frequency_hz, fmt)
        delivered_bytes, seen = next(
            ((delivered, seen) for first_slot, delivered, seen
             in incarnations if start <= first_slot < end),
            (0, ServiceObservation.of(())))
        verdict = "within_bounds"
        if seen.count:
            verdict = spec.classify(seen.worst_ns, bounds.latency_ns)
        delivered_mb_s = None
        if simulated_ns > 0 and end > start:
            delivered_mb_s = (delivered_bytes / (
                simulated_ns * ((end - start) / horizon)) * 1e9 / 1e6)
            reserved = ca.reserved_before(end) - ca.reserved_before(start)
            if delivered_bytes > reserved * fmt.payload_bytes_per_flit:
                verdict = "violated"
        entries.append(ChannelConformance(
            channel=name, kind="trace", verdict=verdict,
            latency_bound_ns=bounds.latency_ns,
            worst_latency_ns=seen.worst_ns, mean_latency_ns=seen.mean_ns,
            n_messages=seen.count,
            quoted_mb_s=bounds.throughput_bytes_per_s / 1e6,
            required_mb_s=bounds.required_throughput_bytes_per_s / 1e6,
            delivered_mb_s=delivered_mb_s))
    tightest = min(entries, key=lambda entry: (
        entry.latency_headroom is None, entry.latency_headroom))
    return replace(tightest,
                   verdict=_worst(*(entry.verdict for entry in entries)))


def _span_conformance(source: str, scenario: str, spans, stats,
                      spec: MonitorSpec | None, **window
                      ) -> ConformanceReport:
    """One report over ``{channel: spans}``; see :func:`_judge_spans`."""
    spec = spec or MonitorSpec()
    return ConformanceReport(
        source=source, scenario=scenario,
        channels=tuple(_judge_spans(name, spans[name], stats, spec,
                                    **window)
                       for name in sorted(spans)),
        slack_fraction=spec.slack_fraction)


def conformance_from_result(config, result, *,
                            spec: MonitorSpec | None = None,
                            scenario: str = "usecase-gs"
                            ) -> ConformanceReport:
    """Watchdog a static guaranteed-service run against its bounds.

    ``config`` is the :class:`~repro.core.configuration.
    NocConfiguration` whose analytical bounds were quoted; ``result``
    the :class:`~repro.simulation.backend.SimResult` of simulating it.
    Every allocated channel appears in the report — silent channels
    (no traffic offered) conform trivially with ``n_messages`` 0.  A
    static configuration is the timeline in which every channel lives
    for the whole run.
    """
    allocation = config.allocation
    slots = result.simulated_slots
    return _span_conformance(
        "simulation", scenario, static_lifetimes(allocation, slots),
        result.stats, spec, frequency_hz=allocation.frequency_hz,
        fmt=allocation.fmt,
        horizon=slots, simulated_ns=result.simulated_ns)


def _window(timeline, n_slots):
    """The window a timeline reader judges — ``n_slots`` vetted by
    :meth:`~repro.core.timeline.ReconfigurationTimeline.check_replay`,
    the horizon by default — and the lifetime table clipped to it."""
    horizon = timeline.check_replay(n_slots)
    return horizon, timeline.clipped_intervals(horizon)


def timeline_conformance(timeline, result, *,
                         n_slots: int | None = None,
                         channels=None,
                         spec: MonitorSpec | None = None,
                         scenario: str = "timeline"
                         ) -> ConformanceReport:
    """Watchdog a churn-timeline replay against per-channel bounds.

    Every lifetime of a channel is judged against the bound of the
    allocation it ran on (:func:`~repro.core.analysis.channel_bounds`
    at the timeline's operating point), over the part of it inside the
    simulated window (:meth:`~repro.core.timeline.
    ReconfigurationTimeline.clipped_intervals`).  ``channels`` restricts
    the check (the dynamic composability flow passes the survivors —
    the channels whose guarantees are live across every epoch); the
    default monitors every timeline channel.
    """
    horizon, spans = _window(timeline, n_slots)
    if channels is not None:
        spans = {name: spans[name] for name in channels}
    slot_ns = timeline.fmt.flit_size / timeline.frequency_hz * 1e9
    return _span_conformance(
        "timeline", scenario, spans, result.stats, spec,
        frequency_hz=timeline.frequency_hz, fmt=timeline.fmt,
        horizon=horizon, simulated_ns=horizon * slot_ns)


def quote_conformance(quotes, *, spec: MonitorSpec | None = None,
                      scenario: str = "quotes") -> ConformanceReport:
    """Watchdog an admission quote stream against the QoS requirements.

    ``quotes`` is an iterable of ``(session_id, qos_class,
    latency_bound_ns, required_latency_ns, quoted_bytes_per_s,
    required_bytes_per_s)`` tuples — optionally extended with a seventh
    ``tenant`` element for multi-tenant streams — as accumulated by a
    monitored :class:`~repro.service.controller.SessionService`.  A
    quote whose bound exceeds the session's requirement — or whose
    guaranteed throughput undershoots it — is an admission-control
    *violation*: the controller promised something the analysis says it
    cannot hold.  Tenanted streams additionally fold into the report's
    per-tenant guarantee-retention rows
    (:attr:`ConformanceReport.tenant_retention`).

    >>> report = quote_conformance([
    ...     ("s0", "voice", 800.0, 1000.0, 64e6, 64e6),
    ...     ("s1", "bulk", 500.0, None, 32e6, 32e6, "acme")])
    >>> report.ok, len(report.channels)
    (True, 2)
    >>> report.tenant_retention["acme"]["retention"]
    1.0
    """
    spec = spec or MonitorSpec()
    entries = []
    for quote in quotes:
        (session_id, qos_name, bound_ns, required_ns,
         quoted_bps, required_bps) = quote[:6]
        tenant = quote[6] if len(quote) > 6 else None
        if required_ns is None:
            latency_verdict = "within_bounds"
        else:
            latency_verdict = spec.classify(bound_ns, required_ns)
        throughput_verdict = "within_bounds"
        if quoted_bps < required_bps * (1 - EPS):
            throughput_verdict = "violated"
        entries.append(ChannelConformance(
            channel=session_id, kind="quote",
            verdict=_worst(latency_verdict, throughput_verdict),
            latency_bound_ns=bound_ns,
            worst_latency_ns=None, mean_latency_ns=None,
            quoted_mb_s=quoted_bps / 1e6,
            required_mb_s=required_bps / 1e6,
            detail=qos_name, tenant=tenant or None))
    entries.sort(key=lambda e: e.channel)
    return ConformanceReport(source="service", scenario=scenario,
                             channels=tuple(entries),
                             slack_fraction=spec.slack_fraction)


# -- fabric introspection -------------------------------------------------


@dataclass(frozen=True)
class FabricRollup:
    """Per-link and per-NI slot-occupancy folded from schedules.

    ``link_slots`` maps ``"src->dst"`` to the number of reserved TDM
    slots on that link per table rotation; ``ni_slots`` maps each
    network interface to the injection slots its channels hold.
    ``utilisation`` of an entry is its slot count over ``table_size``.
    ``series`` optionally carries a ``(slot, mean_utilisation)`` time
    line (one point per reconfiguration epoch) for timeline rollups.

    >>> rollup = FabricRollup(table_size=4, n_channels=1,
    ...                       link_slots=(("a->b", 2),),
    ...                       ni_slots=(("a", 2),))
    >>> rollup.link_rows()[0]["utilisation"]
    '50.0%'
    """

    table_size: int
    n_channels: int
    link_slots: tuple[tuple[str, int], ...] = ()
    ni_slots: tuple[tuple[str, int], ...] = ()
    series: tuple[tuple[int, float], ...] = ()

    @classmethod
    def _weighted(cls, table_size: int, n_channels: int, weighted,
                  series=()) -> "FabricRollup":
        """Fold ``(allocation, weight)`` pairs: the bits of each
        channel's :attr:`~repro.core.placement.ChannelAllocation.
        link_occupancy` masks and its injection slots count ``weight``
        times."""
        per_link: dict[tuple[str, str], float] = {}
        per_ni: dict[str, float] = {}
        for ca, weight in weighted:
            for link, mask in ca.link_occupancy:
                per_link[link] = (per_link.get(link, 0)
                                  + mask.bit_count() * weight)
            per_ni[ca.path.source] = (per_ni.get(ca.path.source, 0) +
                                      ca.n_slots * weight)
        return cls(
            table_size=table_size, n_channels=n_channels,
            link_slots=tuple(sorted(
                (f"{src}->{dst}", round(slots, 4))
                for (src, dst), slots in per_link.items())),
            ni_slots=tuple(sorted(
                (ni, round(slots, 4)) for ni, slots in per_ni.items())),
            series=tuple(series))

    @classmethod
    def from_allocation(cls, allocation) -> "FabricRollup":
        """Fold one live :class:`~repro.core.allocation.Allocation`.

        Every channel weighs 1 — the one-epoch timeline — so an entry
        is the whole number of slots the link masks hold reserved.
        """
        channels = allocation.channels
        return cls._weighted(
            allocation.table_size, len(channels),
            ((channels[name], 1) for name in sorted(channels)))

    @classmethod
    def from_timeline(cls, timeline) -> "FabricRollup":
        """Fold a churn timeline into time-weighted occupancy.

        Each channel lifetime contributes its slots weighted by the
        fraction of the timeline's horizon it was active; ``series`` is
        the running sum of the reservations those lifetimes add at
        their start and drop at their stop — the mean link utilisation
        of the instantaneously-active channel set at slot 0 and at
        every reconfiguration epoch boundary inside the horizon.
        """
        horizon, intervals = _window(timeline, None)
        weighted = []
        steps = {0: 0}  # slot -> change in live link-slot reservations
        for spans in intervals.values():
            for start, end, ca in spans:
                if end <= start:
                    continue
                weighted.append((ca, (end - start) / horizon))
                live = ca.n_slots * len(ca.path.links)
                steps[start] = steps.get(start, 0) + live
                steps[end] = steps.get(end, 0) - live
        capacity = (max(1, len(timeline.topology.links)) *
                    timeline.table_size)
        series = []
        slots_live = 0
        for boundary in sorted(steps):
            if boundary and boundary >= horizon:
                break  # slot 0 is always sampled; the rest inside the run
            slots_live += steps[boundary]
            series.append((boundary, round(slots_live / capacity, 6)))
        return cls._weighted(timeline.table_size, len(intervals),
                             weighted, series)

    def hotspots(self, k: int = TOP_K
                 ) -> tuple[tuple[str, float], ...]:
        """The ``k`` busiest links, most-occupied first (name-stable)."""
        return tuple(sorted(self.link_slots,
                            key=lambda item: (-item[1], item[0]))[:k])

    def link_rows(self, k: int = TOP_K
                  ) -> list[dict[str, object]]:
        """Top-K link heatmap rows for ``format_table``."""
        return [{"link": name, "slots": slots,
                 "utilisation": f"{slots / self.table_size:.1%}"}
                for name, slots in self.hotspots(k)]

    def ni_rows(self, k: int = TOP_K
                ) -> list[dict[str, object]]:
        """Top-K NI slot-occupancy rows for ``format_table``."""
        busiest = sorted(self.ni_slots,
                         key=lambda item: (-item[1], item[0]))[:k]
        return [{"ni": name, "slots": slots,
                 "occupancy": f"{slots / self.table_size:.1%}"}
                for name, slots in busiest]

    def to_record(self) -> dict[str, object]:
        """Canonical JSON-ready form."""
        record: dict[str, object] = {
            "table_size": self.table_size,
            "n_channels": self.n_channels,
            "links": {name: slots for name, slots in self.link_slots},
            "nis": {name: slots for name, slots in self.ni_slots},
        }
        if self.series:
            record["mean_utilisation_series"] = [
                {"slot": slot, "mean_utilisation": value}
                for slot, value in self.series]
        return record

    def emit_counter_tracks(self, telemetry) -> None:
        """Counter tracks onto a hub's Perfetto/Chrome-trace export.

        The utilisation series becomes a ``ph: "C"`` counter track in
        :func:`repro.telemetry.export.chrome_trace`; per-link occupancy
        lands as a single-sample track per top-K hotspot so the heatmap
        is visible on the trace timeline too.  All on the ``fabric``
        track.
        """
        if self.series:
            telemetry.counter_track("fabric.mean_link_utilisation",
                                    self.series, track="fabric",
                                    unit="slot")
        for name, slots in self.hotspots():
            telemetry.counter_track(
                f"fabric.link_slots {name}", ((0, slots),),
                track="fabric", unit="slot")
