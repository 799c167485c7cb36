"""The scenario-kind table: the one module that knows what a ``mode`` is.

A :class:`~repro.campaign.spec.ScenarioSpec` names its kind in
``mode``; everything that depends on the kind lives in that kind's
:data:`KINDS` entry — which payload fields and backends it accepts,
which scenario axes its records echo, its run body and its summary
row.  The shared machinery around the table is written once:

* :func:`validate_scenario` — the kind half of scenario validation
  (:class:`~repro.campaign.spec.ScenarioSpec` checks the shared axes);
* :func:`run_kind` — writes the common record header, hands the body a
  :class:`RunContext` (topology and seeded churn stream built on first
  use) and maps ``AllocationError`` / ``ConfigurationError`` to a
  status.  A checked demo (``python -m repro serve --demo`` and its
  siblings) runs its preset through it too, handing the bodies a
  telemetry hub and a watchdog that every campaign run leaves ``None``;
* :func:`summary_row` / :func:`grid_row` — the per-run table rows of
  the campaign report and of ``python -m repro campaign --list``;
* :func:`campaign_conformance` — the run-level conformance verdicts of
  ``campaign --monitor``, folded from the records' result sections.

Adding a scenario kind is one table entry; nothing else in the package
compares mode strings (CI greps for it).  Run bodies keep their heavy
imports function-local, so a worker pays for a subsystem only when it
executes a run of that kind.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from repro.campaign.spec import (RunSpec, ScenarioSpec, SyntheticSpec,
                                 derive_seed)
from repro.core.allocation import SlotAllocator
from repro.core.configuration import configure
from repro.core.exceptions import AllocationError, ConfigurationError
from repro.faults.model import FaultSpec
from repro.service.churn import ChurnSpec
from repro.simulation.backend import (SimRequest, available_backends,
                                      create_backend)
from repro.telemetry.monitor import (ChannelConformance, ConformanceReport,
                                     MonitorSpec)

__all__ = ["KINDS", "Kind", "RunContext", "validate_scenario", "run_kind",
           "crashed_record", "summary_row", "grid_row",
           "campaign_conformance", "NON_FAILURE_STATUSES"]

#: Run statuses that are search verdicts, not failures: a dimensioning
#: sweep that rejects most of its grid worked exactly as designed.
NON_FAILURE_STATUSES = ("ok", "pruned", "infeasible")

#: The optional per-kind payload fields of a ``ScenarioSpec``.
PAYLOAD_FIELDS = ("churn", "design", "faults", "synthetic")


class RunContext:
    """What :func:`run_kind` hands a kind's body for one run.

    ``payload`` holds the kind's payload fields with their defaults
    applied.  ``topology`` and ``events`` are built on first use, so a
    body that needs neither (``synthetic``, ``design``) pays for
    neither, and a build failure surfaces inside the body — where
    :func:`run_kind` maps it to a status.

    ``telemetry`` (a hub) and ``monitor`` (a :class:`~repro.telemetry.
    monitor.MonitorSpec`) are ``None`` in every campaign run; a checked
    demo sets them.  Neither changes the record: the watchdog's report
    rides under the non-canonical ``_conformance`` key.
    """

    def __init__(self, run: RunSpec, kind: Kind, telemetry, monitor):
        self.run = run
        self.scenario = run.scenario
        self.kind = kind
        self.payload = _payload(run.scenario, kind)
        self.frequency_hz = run.scenario.frequency_mhz * 1e6
        self.telemetry = telemetry
        self.monitor = monitor

    def seed(self, label: str) -> int:
        """The run's derived seed for one source of randomness."""
        return derive_seed(self.run.run_seed, label, self.run.seed)

    @cached_property
    def topology(self):
        """The scenario's topology graph."""
        return self.scenario.topology.build()

    @cached_property
    def events(self) -> tuple:
        """The seeded churn stream of a kind that accepts ``churn``.

        Kinds that replay survivors cut the stream at three quarters of
        its length: sessions whose close falls in the dropped tail are
        still open at the cut.
        """
        from repro.service.churn import ChurnWorkload
        churn = self.payload["churn"]
        workload = ChurnWorkload(churn, self.topology, self.seed("churn"))
        return workload.events(limit=3 * churn.n_sessions // 2
                               if self.kind.open_tail else None)

    def backend(self, config):
        """The scenario's simulation backend over ``config``."""
        return create_backend(self.scenario.backend, config,
                              telemetry=self.telemetry)


@dataclass(frozen=True)
class Kind:
    """One scenario kind: field rules, record header, body, row.

    ``payload`` maps each accepted payload field to the factory of its
    default (``None``: the field is required).  ``backends`` lists the
    backends the kind can run on; empty means the ``backend`` axis is
    ignored.  ``header`` names the scenario axes echoed into every
    record of the kind after ``run_id`` / ``scenario`` / ``seed``.
    ``open_tail`` cuts the churn stream short so some sessions are
    still open at its end — the survivors a replay verifies.  ``body``
    returns the record fields the run contributes (``{"result": ...}``
    for a run that finished) and ``row`` extends the shared summary row
    from the record's ``result``.
    """

    name: str
    summary: str
    header: tuple[str, ...]
    body: Callable[[RunContext], dict[str, object]]
    row: Callable[[dict, dict, dict], None]
    payload: dict[str, Callable[[], object] | None] = field(
        default_factory=dict)
    backends: tuple[str, ...] = ()
    policies: tuple[str, ...] = ("fcfs",)
    open_tail: bool = False
    check: Callable[[ScenarioSpec], None] | None = None


# -- shared machinery ----------------------------------------------------


def validate_scenario(scenario: ScenarioSpec) -> None:
    """Reject a scenario whose fields do not fit its kind."""
    kind = KINDS.get(scenario.mode)
    if kind is None:
        raise ConfigurationError(
            f"unknown scenario mode {scenario.mode!r}; expected one of "
            f"{', '.join(KINDS)}")
    for name in PAYLOAD_FIELDS:
        value = getattr(scenario, name)
        if name not in kind.payload:
            if value is not None:
                takers = "/".join(k.name for k in KINDS.values()
                                  if name in k.payload)
                raise ConfigurationError(
                    f"{name} spec only applies to {takers} scenarios, "
                    f"not mode={kind.name!r}")
        elif value is None and kind.payload[name] is None:
            raise ConfigurationError(
                f"mode={kind.name!r} scenarios need a spec in {name!r}")
    if scenario.policy not in kind.policies:
        takers = "/".join(k.name for k in KINDS.values()
                          if scenario.policy in k.policies)
        raise ConfigurationError(
            f"policy={scenario.policy!r} only applies to {takers} "
            "scenarios")
    if kind.backends and scenario.backend not in kind.backends:
        raise ConfigurationError(
            f"mode={kind.name!r} needs a backend that can reconfigure "
            f"mid-run; use one of {kind.backends}")
    if kind.check is not None:
        kind.check(scenario)


#: How each record-header key reads its value off a scenario and the
#: kind's payload (defaults applied).
_AXES: dict[str, Callable[[ScenarioSpec, dict], object]] = {
    "mode": lambda s, p: s.mode,
    "backend": lambda s, p: s.backend,
    "clocking": lambda s, p: s.clocking,
    "topology": lambda s, p: s.topology.label,
    "traffic": lambda s, p: s.traffic.pattern,
    "n_slots": lambda s, p: s.n_slots,
    "table_size": lambda s, p: s.table_size,
    "churn": lambda s, p: p["churn"].label,
    "faults": lambda s, p: p["faults"].label,
    "work": lambda s, p: p["synthetic"].work,
    # a kind that lists the key always runs the weighted-fair tier
    "policy": lambda s, p: "wfq",
}


def _payload(scenario: ScenarioSpec, kind: Kind) -> dict[str, object]:
    """The kind's payload fields, defaults applied where unset."""
    return {name: getattr(scenario, name) or (default and default())
            for name, default in kind.payload.items()}


def _header(scenario: ScenarioSpec, kind: Kind,
            payload: dict[str, object]) -> dict[str, object]:
    """The kind's scenario axes as record fields (nothing executed)."""
    record = {key: _AXES[key](scenario, payload) for key in kind.header}
    if scenario.policy != "fcfs":
        record["policy"] = scenario.policy
    return record


def _identity(run: RunSpec) -> dict[str, object]:
    """The fields that open every record of a run."""
    return {"run_id": run.run_id, "scenario": run.scenario.name,
            "seed": run.seed}


def run_kind(run: RunSpec, *, telemetry=None,
             monitor=None) -> dict[str, object]:
    """Execute one run through its kind's body; return its record.

    An infeasible allocation or an unhostable configuration is a
    *result* (status ``allocation_failed`` / ``configuration_failed``),
    not a crash — campaigns sweep into infeasible corners on purpose.
    ``telemetry`` and ``monitor`` reach the body as :class:`RunContext`
    attributes (a checked demo's instrumented pass).
    """
    scenario = run.scenario
    kind = KINDS[scenario.mode]
    record = _identity(run)
    ctx = RunContext(run, kind, telemetry, monitor)
    record.update(_header(scenario, kind, ctx.payload))
    try:
        fields = {"status": "ok", **kind.body(ctx)}
    except AllocationError as exc:
        fields = {"status": "allocation_failed", "error": str(exc)}
    except ConfigurationError as exc:
        fields = {"status": "configuration_failed", "error": str(exc)}
    record.update(fields)
    return record


def crashed_record(run: RunSpec, exc: BaseException,
                   trace: str) -> dict[str, object]:
    """The record of a run whose body raised something unexpected.

    Carries the error text and a digest of the traceback ``trace``
    (stable across serial and parallel execution).
    """
    return {
        **_identity(run),
        "mode": run.scenario.mode,
        "topology": run.scenario.topology.label,
        "status": "crashed",
        "error": f"{type(exc).__name__}: {exc}",
        "traceback_digest":
            hashlib.sha256(trace.encode()).hexdigest()[:16],
    }


def summary_row(record: dict[str, object]) -> dict[str, object]:
    """One per-run table row for :func:`~repro.experiments.report.
    format_table`; shared by streaming and keep-records aggregation.

    The kind is read from the record's ``mode`` key (absent on
    ``simulate`` records, whose header predates the key).
    """
    row: dict[str, object] = {
        "run": record["run_id"],
        "backend": record.get("backend", record.get("mode", "serve")),
        "topology": record.get("topology", "-"),
        "traffic": record.get("traffic", record.get("churn", "-")),
        "status": record["status"],
    }
    result = record.get("result")
    if isinstance(result, dict):
        KINDS[str(record.get("mode", "simulate"))].row(row, record, result)
    return row


def grid_row(run: RunSpec) -> dict[str, object]:
    """One ``campaign --list`` row: the run's axes, nothing executed.

    Reads the same header the run's record will carry, so the listing
    and the report table label a run identically.
    """
    scenario = run.scenario
    kind = KINDS[scenario.mode]
    header = _header(scenario, kind, _payload(scenario, kind))
    return {
        "run": run.run_id,
        "backend": header.get("backend", scenario.mode),
        "mode": scenario.mode,
        "topology": scenario.topology.label,
        "traffic": header.get("traffic", header.get("churn", "-")),
        "n_slots": scenario.n_slots,
    }


def campaign_conformance(records, *, spec: MonitorSpec | None = None
                         ) -> ConformanceReport:
    """Fold campaign run records into per-run conformance verdicts.

    Accepts an iterable of campaign record dicts (or a
    :class:`~repro.campaign.runner.CampaignResult`, whose
    ``iter_records()`` is used).  A run is ``violated`` when it failed
    outright, diverged in a composability check, or broke the
    composition invariant; ``tight`` when it survived but degraded
    (guarantee retention below 1, or rerouted sessions re-admitted with
    worse bounds); ``within_bounds`` otherwise.  Records are already
    canonically ordered and wall-clock-free, so the rollup inherits the
    campaign's serial == parallel byte-determinism.
    """
    spec = spec or MonitorSpec()
    iter_records = getattr(records, "iter_records", None)
    if iter_records is not None:
        records = iter_records()
    return ConformanceReport(
        source="campaign", scenario="campaign",
        channels=tuple(_run_conformance(record) for record in records),
        slack_fraction=spec.slack_fraction)


def _run_conformance(record: dict) -> ChannelConformance:
    """Classify one campaign record into a run-level verdict."""
    run_id = str(record.get("run_id", record.get("scenario", "?")))
    status = record.get("status", "ok")
    if status not in NON_FAILURE_STATUSES:
        return ChannelConformance(channel=run_id, kind="run",
                                  verdict="violated",
                                  detail=f"status={status}")
    result = record.get("result") or {}
    details = []
    verdict = "within_bounds"
    composability = result.get("composability")
    if composability is not None and not composability.get("composable",
                                                           True):
        verdict = "violated"
        details.append("composability diverged")
    invariant = result.get("invariant")
    if invariant is not None and not invariant.get("ok", True):
        verdict = "violated"
        details.append("invariant broken")
    survivability = result.get("survivability")
    if survivability is not None and verdict != "violated":
        retention = float(survivability.get("guarantee_retention", 1.0))
        if retention < 1.0:
            verdict = "tight"
            details.append(f"guarantee_retention={retention:g}")
    return ChannelConformance(
        channel=run_id, kind="run", verdict=verdict,
        detail="; ".join(details) if details else None)


def _flag_status(row: dict, ok: object, yes: str, no: str) -> None:
    """Append a verdict word to the row's status column."""
    row["status"] = f"{row['status']}/{yes if ok else no}"


def _watched(result: dict, conformance) -> dict[str, object]:
    """A body's fields: its ``result``, plus the watchdog's report under
    the non-canonical ``_conformance`` key when a monitor was armed."""
    fields: dict[str, object] = {"result": result}
    if conformance is not None:
        fields["_conformance"] = conformance
    return fields


# -- simulate ------------------------------------------------------------


def _simulate_body(ctx: RunContext) -> dict[str, object]:
    """Allocate a seeded workload and drive a simulation backend."""
    scenario = ctx.scenario
    use_case, mapping = scenario.workload.build(
        ctx.topology, ctx.seed("workload"))
    config = configure(
        ctx.topology, use_case, table_size=scenario.table_size,
        frequency_hz=ctx.frequency_hz, mapping=mapping, require_met=False)
    options: dict[str, object] = {}
    if scenario.backend == "cycle":
        options["clocking"] = scenario.clocking
    backend = create_backend(scenario.backend, config, **options)
    result = backend.run(SimRequest(
        n_slots=scenario.n_slots,
        traffic=scenario.traffic.build(config, ctx.seed("traffic")),
        seed=ctx.run.run_seed % (2 ** 31)))
    return {"result": result.to_record()}


def _simulate_row(row: dict, record: dict, result: dict) -> None:
    row["messages"] = result["messages_delivered"]
    latency = result.get("latency_ns")
    if latency:
        row["p50_ns"] = latency["p50"]
        row["p99_ns"] = latency["p99"]
        row["max_ns"] = latency["max"]


# -- serve ---------------------------------------------------------------


def _serve_check(scenario: ScenarioSpec) -> None:
    if scenario.policy == "wfq" and not (scenario.churn
                                         and scenario.churn.tenants):
        raise ConfigurationError(
            "policy='wfq' serve scenarios need a tenant-tagged churn "
            "spec (ChurnSpec(tenants=...))")


def _serve_body(ctx: RunContext) -> dict[str, object]:
    """Run the online control plane over the seeded churn stream."""
    from repro.service.controller import SessionService

    scenario = ctx.scenario
    wfq = scenario.policy == "wfq"
    service = SessionService(
        ctx.topology, allocator=SlotAllocator(
            ctx.topology, table_size=scenario.table_size,
            frequency_hz=ctx.frequency_hz),
        name=scenario.name, seed=ctx.run.seed, record_events=False,
        policy=scenario.policy,
        tenants=ctx.payload["churn"].tenants if wfq else (),
        telemetry=ctx.telemetry, monitor=ctx.monitor)
    result = service.run(ctx.events).to_record()
    return _watched(result, None if ctx.monitor is None else
                    service.conformance_report(scenario=scenario.name))


def _serve_row(row: dict, record: dict, result: dict) -> None:
    row["messages"] = result["totals"]["n_events"]
    row["accept"] = result["totals"]["accept_rate"]


# -- fairness ------------------------------------------------------------


def _fairness_check(scenario: ScenarioSpec) -> None:
    if scenario.churn is not None and not scenario.churn.tenants:
        raise ConfigurationError(
            "mode='fairness' scenarios need a tenant-tagged churn spec "
            "(ChurnSpec(tenants=...))")


def _fairness_body(ctx: RunContext) -> dict[str, object]:
    """wfq vs FCFS vs per-tenant solo over one tenant-tagged stream.

    The record carries both contended reports plus the per-tenant
    retention table and verdict flags (see :func:`~repro.service.
    fairness_demo.fairness_comparison`).
    """
    from repro.service.fairness_demo import (demo_fairness_spec,
                                             fairness_comparison)

    scenario = ctx.scenario
    comparison = fairness_comparison(
        ctx.topology, ctx.events, ctx.payload["churn"].tenants,
        table_size=scenario.table_size, frequency_hz=ctx.frequency_hz,
        fairness=demo_fairness_spec(), name=scenario.name,
        seed=ctx.run.seed, telemetry=ctx.telemetry, monitor=ctx.monitor)
    conformance = comparison.pop("_conformance", None)
    return _watched(comparison, conformance)


def _fairness_row(row: dict, record: dict, result: dict) -> None:
    checks = result["checks"]
    row["messages"] = result["wfq"]["totals"]["n_events"]
    row["retention"] = checks["min_well_behaved_retention"]
    _flag_status(row, checks["wfq_retention_ok"], "fair", "unfair")


# -- replay --------------------------------------------------------------


def _replay_body(ctx: RunContext) -> dict[str, object]:
    """Record churn, fit it into ``n_slots``, replay it, verify."""
    from repro.service.controller import SessionService
    from repro.simulation.composability import (replay_traffic,
                                                verify_timeline)

    scenario = ctx.scenario
    service = SessionService(
        ctx.topology, allocator=SlotAllocator(
            ctx.topology, table_size=scenario.table_size,
            frequency_hz=ctx.frequency_hz),
        name=scenario.name, seed=ctx.run.seed, record_events=False,
        record_timeline=True, telemetry=ctx.telemetry)
    service.run(ctx.events)
    timeline = service.timeline(horizon_slots=scenario.n_slots)
    report = verify_timeline(timeline, replay_traffic(timeline),
                             backend_factory=ctx.backend,
                             scenario=scenario.name, monitor=ctx.monitor)
    result = report.to_record()
    result["n_channels"] = len(timeline.channel_names)
    return _watched(result, report.conformance)


def _replay_row(row: dict, record: dict, result: dict) -> None:
    row["messages"] = result["n_channels"]
    _flag_status(row, result["composable"], "composable", "diverged")


# -- faults --------------------------------------------------------------


def _faults_body(ctx: RunContext) -> dict[str, object]:
    """Identical churn healthy and fault-merged, then replayed.

    The record carries both the survivability fold and the
    fault-survivor composability verdict.
    """
    from repro.faults.demo import run_churn_with_faults, survivability_record
    from repro.faults.model import FaultSchedule

    scenario = ctx.scenario
    schedule = FaultSchedule(ctx.payload["faults"], ctx.topology,
                             ctx.seed("faults"))
    outcome = run_churn_with_faults(
        ctx.topology, ctx.events, schedule,
        table_size=scenario.table_size, frequency_hz=ctx.frequency_hz,
        horizon_slots=scenario.n_slots, name=scenario.name,
        seed=ctx.run.seed, backend_factory=ctx.backend,
        scenario=scenario.name, telemetry=ctx.telemetry,
        monitor=ctx.monitor)
    return _watched({
        "survivability": survivability_record(
            outcome.baseline.totals, outcome.faulty.totals,
            outcome.faulty.faults),
        "faults": outcome.faulty.faults,
        "totals": outcome.faulty.totals,
        "invariant": outcome.faulty.invariant,
        "composability": outcome.verdict.to_record(),
        "n_channels": len(outcome.timeline.channel_names),
    }, outcome.verdict.conformance)


def _faults_row(row: dict, record: dict, result: dict) -> None:
    row["traffic"] = record.get("faults", "-")
    row["messages"] = result["totals"]["n_events"]
    row["survival"] = result["survivability"]["session_survival"]
    row["retention"] = result["survivability"]["guarantee_retention"]
    _flag_status(row, result["composability"]["composable"],
                 "composable", "diverged")


# -- design --------------------------------------------------------------


def _design_check(scenario: ScenarioSpec) -> None:
    from repro.design.space import DesignSpec
    if not isinstance(scenario.design, DesignSpec):
        raise ConfigurationError(
            "mode='design' scenarios need a DesignSpec in 'design'")


def _design_body(ctx: RunContext) -> dict[str, object]:
    """Evaluate one dimensioning candidate.

    The body lives with the explorer and is imported on first use:
    ``repro.design`` imports the campaign runner, and workers that
    never see a design run should not pay for the synthesis models.
    """
    from repro.design.explorer import execute_design_run
    return execute_design_run(ctx.run)


def _design_row(row: dict, record: dict, result: dict) -> None:
    row["messages"] = result["n_channels"]
    row["area_mm2"] = round(result["area"]["total_um2"] / 1e6, 4)
    row["mhz"] = result["operating_frequency_mhz"]


# -- synthetic -----------------------------------------------------------


def _synthetic_body(ctx: RunContext) -> dict[str, object]:
    """A seeded hash chain: deterministic, allocation-free, cheap.

    Seeds listed in the spec's ``fail_seeds`` raise, exercising the
    crashed-envelope path through real worker processes.
    """
    spec = ctx.payload["synthetic"]
    if ctx.run.seed in spec.fail_seeds:
        raise RuntimeError(
            f"synthetic failure injected for seed {ctx.run.seed}")
    digest = ctx.run.run_seed
    for _ in range(spec.work):
        digest = int.from_bytes(
            hashlib.sha256(digest.to_bytes(8, "big")).digest()[:8],
            "big") >> 1
    return {"result": {"digest": digest}}


def _synthetic_row(row: dict, record: dict, result: dict) -> None:
    row["digest"] = result["digest"] % 10 ** 6


KINDS: dict[str, Kind] = {kind.name: kind for kind in (
    Kind("simulate",
         "allocate a seeded workload and run `n_slots` of `traffic` on "
         "`backend`",
         header=("backend", "clocking", "topology", "traffic", "n_slots"),
         body=_simulate_body, row=_simulate_row,
         backends=available_backends()),
    Kind("serve",
         "run the online control plane (`SessionService`) over a seeded "
         "churn stream; `policy=\"wfq\"` needs a tenant-tagged `churn`",
         header=("mode", "topology", "churn", "table_size"),
         body=_serve_body, row=_serve_row,
         payload={"churn": ChurnSpec}, policies=("fcfs", "wfq"),
         check=_serve_check),
    Kind("replay",
         "record churn through the service, fit it into `n_slots`, "
         "execute the timeline on `backend` and report the dynamic "
         "composability verdict (churn run vs solo reference)",
         header=("mode", "backend", "topology", "churn", "n_slots",
                 "table_size"),
         body=_replay_body, row=_replay_row,
         payload={"churn": ChurnSpec}, backends=("flit", "be"),
         open_tail=True),
    Kind("design",
         "evaluate one dimensioning candidate: prune analytically, "
         "optimise the mapping, bisect the minimum feasible frequency, "
         "price the network with the synthesis models",
         header=("mode",),
         body=_design_body, row=_design_row,
         payload={"design": None}, check=_design_check),
    Kind("faults",
         "run identical churn healthy and merged with a seeded fault "
         "schedule, replay the churn+fault timeline on `backend`; "
         "reports survivability and the fault-survivor composability "
         "verdict",
         header=("mode", "backend", "topology", "churn", "faults",
                 "n_slots", "table_size"),
         body=_faults_body, row=_faults_row,
         payload={"churn": ChurnSpec, "faults": FaultSpec},
         backends=("flit", "be"), open_tail=True),
    Kind("fairness",
         "compare the wfq control plane, the FCFS baseline and "
         "per-tenant solo references over one tenant-tagged churn "
         "stream",
         header=("mode", "policy", "topology", "churn", "table_size"),
         body=_fairness_body, row=_fairness_row,
         payload={"churn": None}, policies=("fcfs", "wfq"),
         open_tail=True, check=_fairness_check),
    Kind("synthetic",
         "execute a seed-deterministic SHA-256 hash chain "
         "(`SyntheticSpec.work` rounds; `fail_seeds` raise inside the "
         "worker) — the grid filler for fabric-scale benchmarks and "
         "crash/resume drills",
         header=("mode", "topology", "work"),
         body=_synthetic_body, row=_synthetic_row,
         payload={"synthetic": SyntheticSpec}),
)}
