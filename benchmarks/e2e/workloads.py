"""The five workloads: what one pass does, and what it must get right.

All run on the paper's Section VII operating point — 4x3 concentrated
mesh, 4 NIs per router, 32-slot tables, 500 MHz.  Each workload builds
its inputs from the seed in :meth:`generate` (the program only ever
sees generated inputs), and :meth:`one_pass` runs the public API once,
wrapping every call into a layer in a phase span, checking the outputs,
and returning the pass's canonical JSON plus its exact counts.

Sizes give passes of roughly a second here, so that set-up, seven timed
passes and a traced pass fit the benchmark's run budget; ``smoke`` sizes
are for the tier-1 test only.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
from pathlib import Path

from repro.campaign import (CampaignRunner, demo_campaign, design_campaign,
                            fault_campaign, synthetic_campaign)
from repro.core.allocation import SlotAllocator
from repro.experiments.section7 import composability_rows, section7_setup
from repro.faults.model import FaultSchedule, FaultSpec
from repro.service import (DEFAULT_CLASSES, ChurnSpec, ChurnWorkload,
                           QosClass, SessionService, WeightedFairScheduler,
                           abusive_tenant_mix, merge_events)
from repro.service.fairness_demo import demo_fairness_spec
from repro.simulation.backend import FlitLevelBackend
from repro.simulation.composability import replay_traffic, verify_timeline
from repro.simulation.traffic import PeriodicBurst
from repro.telemetry.monitor import (FabricRollup, conformance_from_result,
                                     timeline_conformance)
from repro.topology.builders import concentrated_mesh
from repro.usecase.generator import generate_section7
from repro.usecase.runner import burst_traffic, run_be, run_gs

TABLE_SIZE = 32
FREQUENCY_HZ = 500e6
ARRIVAL_RATE_PER_S = 18000.0
#: Scratch space for campaign journals; inside the checkout, ignored.
WORK_DIR = Path(__file__).resolve().parent / ".work"


def canonical(record) -> str:
    """The JSON every digest is taken over."""
    return json.dumps(record, sort_keys=True)


def section7_mesh():
    return concentrated_mesh(4, 3, nis_per_router=4)


def new_allocator(topology) -> SlotAllocator:
    return SlotAllocator(topology, table_size=TABLE_SIZE,
                         frequency_hz=FREQUENCY_HZ)


class Workload:
    """Inputs from a seed, then identical passes over them."""

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke

    def generate(self, tracer) -> None:
        raise NotImplementedError

    def one_pass(self, tracer, checks) -> tuple[str, dict[str, float]]:
        raise NotImplementedError

    def end_to_end(self, values: dict[str, float],
                   wall_s: float) -> dict[str, float]:
        """This workload's own end-to-end samples for one timed pass."""
        return {name: values[name]
                for name in ("session_events_per_s", "admit_p99_us",
                             "admit_mean_us", "sim_slots_per_s")
                if name in values}


# -- the service workloads --------------------------------------------------

def trace_service(tracer, service) -> None:
    """Per-call wrappers on what ``SessionService.run`` reaches."""
    wrap = tracer.wrap
    wrap(service, "process", "service.controller.process")
    wrap(service, "report", "service.metrics.report")
    wrap(service.admission, "admit", "service.admission.admit")
    wrap(service.admission, "release", "service.admission.release")
    wrap(service.checker, "check_transition", "service.invariants.check")
    for method in ("record_open", "record_close", "snapshot"):
        wrap(service.metrics, method, "service.metrics.record")
    if service.recorder is not None:
        for method in ("record_start", "record_stop"):
            wrap(service.recorder, method, "core.timeline.record")
    wrap(service.allocator, "route_quotes", "core.allocation.route_quotes")
    if service.policy == "wfq":
        for method in ("admit_decision", "on_admitted",
                       "on_capacity_reject"):
            wrap(WeightedFairScheduler, method, "service.fairness.decide")


def serve(tracer, checks, events, n_session_events: int, **service_kwargs):
    """One ``SessionService.run`` with its checks and exact counts."""
    with tracer.span("service.controller.init"):
        service = SessionService(record_events=False, **service_kwargs)
        if tracer.detailed:
            trace_service(tracer, service)
    with tracer.span("service.controller.run"):
        report = service.run(events)
    run_s = tracer.duration("service.controller.run")
    checks.check("invariant ok", bool(report.invariant["ok"]))
    checks.check("every event processed",
                 report.totals["n_events"] == n_session_events)
    admission = service.admission
    lookups = admission.path_hits + admission.path_misses
    decided = admission.admits + admission.rejects
    values = {
        "session_events_per_s": n_session_events / run_s,
        "admit_p99_us": report.timing["admit_p99_us"],
        "admit_mean_us": report.timing["admit_mean_us"],
        "service.admission.admits": admission.admits,
        "service.admission.rejects": admission.rejects,
        "service.admission.releases": admission.releases,
        "service.admission.accept_ratio": admission.admits / decided,
        "service.admission.cache_hit_ratio": admission.path_hits / lookups,
        "service.invariants.checks": report.invariant[
            "transitions_checked"],
        "service.invariants.peak_active": report.totals["peak_active"],
    }
    return service, report, values


class ChurnWarm(Workload):
    """FCFS churn over a shared allocator whose caches the cold pass fills."""

    def generate(self, tracer) -> None:
        self.topology = section7_mesh()
        n_sessions = 400 if self.smoke else 8000
        with tracer.span("service.churn.generate"):
            self.events = ChurnWorkload(
                ChurnSpec(n_sessions=n_sessions,
                          arrival_rate_per_s=ARRIVAL_RATE_PER_S),
                self.topology, self.seed).events()
        self.allocator = new_allocator(self.topology)

    def pass_allocator(self) -> SlotAllocator:
        return self.allocator

    def one_pass(self, tracer, checks):
        _, report, values = serve(
            tracer, checks, self.events, len(self.events),
            topology=self.topology, allocator=self.pass_allocator(),
            seed=self.seed)
        values["service.churn.events"] = len(self.events)
        with tracer.span("service.metrics.to_json"):
            text = report.to_json()
        values["service.metrics.report_bytes"] = len(text)
        return text, values


class ChurnVaried(ChurnWarm):
    """The same churn with 256 jittered QoS classes and a fresh allocator
    every pass: nearly every open misses the candidate cache."""

    def generate(self, tracer) -> None:
        self.topology = section7_mesh()
        n_sessions = 200 if self.smoke else 3000
        with tracer.span("service.churn.generate"):
            rng = random.Random(self.seed ^ 0x5EED)
            classes = []
            for index in range(256):
                base = DEFAULT_CLASSES[index % len(DEFAULT_CLASSES)]
                classes.append(QosClass(
                    f"{base.name}{index // len(DEFAULT_CLASSES):02d}",
                    throughput_mb_s=(base.throughput_mb_s
                                     * rng.uniform(0.7, 1.3)),
                    max_latency_ns=(None if base.max_latency_ns is None
                                    else base.max_latency_ns
                                    * rng.uniform(1.0, 1.3)),
                    weight=base.weight))
            self.events = ChurnWorkload(
                ChurnSpec(n_sessions=n_sessions,
                          arrival_rate_per_s=ARRIVAL_RATE_PER_S,
                          classes=tuple(classes)),
                self.topology, self.seed).events()

    def pass_allocator(self) -> SlotAllocator:
        return new_allocator(self.topology)


class Pipeline(Workload):
    """Every layer once, in the order users run it: tenanted churn and
    faults -> wfq service -> timeline -> replay -> verify -> monitor ->
    rebuild -> canonical JSON."""

    def generate(self, tracer) -> None:
        self.topology = section7_mesh()
        n_sessions, limit, n_faults = ((300, 500, 3) if self.smoke
                                       else (3000, 5400, 10))
        self.horizon_slots = 2000 if self.smoke else 18000
        self.tenants = abusive_tenant_mix(3, floor_opens_per_window=2)
        with tracer.span("service.churn.generate"):
            self.events = ChurnWorkload(
                ChurnSpec(n_sessions=n_sessions,
                          arrival_rate_per_s=ARRIVAL_RATE_PER_S,
                          tenants=self.tenants),
                self.topology, self.seed).events(limit=limit)
        with tracer.span("faults.model.schedule"):
            # Failures paced to land inside the span of the churn trace.
            span_s = self.events[-1].time_s
            self.faults = FaultSchedule(
                FaultSpec(n_faults=n_faults,
                          fault_rate_per_s=1.2 * n_faults / span_s,
                          mean_repair_s=span_s / 20,
                          # Links only: one router failure evicts enough
                          # sessions to move a pass's work by a tenth.
                          router_fraction=0.0),
                self.topology, self.seed + 1).events()
        self.first_failure = next(event for event in self.faults
                                  if event.action == "fail")
        self.allocator = new_allocator(self.topology)

    def one_pass(self, tracer, checks):
        with tracer.span("service.controller.merge"):
            merged = merge_events(self.events, self.faults)
        service, report, values = serve(
            tracer, checks, merged, len(self.events),
            topology=self.topology, allocator=self.allocator,
            seed=self.seed, policy="wfq", fairness=demo_fairness_spec(),
            tenants=self.tenants, record_timeline=True, monitor=True)
        with tracer.span("core.timeline.build"):
            timeline = service.timeline(horizon_slots=self.horizon_slots)
        with tracer.span("simulation.composability.replay_traffic"):
            traffic = replay_traffic(timeline)
        results = []

        def backend_factory(config):
            # Times each backend run and keeps the churn run's result,
            # so its conformance is judged (and timed) apart from verify.
            backend = FlitLevelBackend(config)
            run = backend.run

            def timed_run(request):
                with tracer.span("simulation.backend.flit_run"):
                    result = run(request)
                results.append(result)
                return result

            backend.run = timed_run
            return backend

        with tracer.span("simulation.composability.verify"):
            verdict = verify_timeline(timeline, traffic,
                                      backend_factory=backend_factory,
                                      scenario="pipeline")
        with tracer.span("telemetry.monitor.quote_conformance"):
            quoted = service.conformance_report(scenario="pipeline")
        with tracer.span("telemetry.monitor.timeline_conformance"):
            # The watchdog holds a channel to one allocation's bound, so
            # it can only judge survivors no fault ever relocated.
            intervals = timeline.channel_intervals()
            observed = timeline_conformance(
                timeline, results[0], n_slots=self.horizon_slots,
                channels=[name for name in verdict.survivors
                          if len(intervals[name]) == 1],
                scenario="pipeline")
        with tracer.span("telemetry.monitor.rollup"):
            rollup = FabricRollup.from_timeline(timeline)
        failure = self.first_failure
        with tracer.span("core.allocation.rebuild"):
            rebuild = service.allocation.rebuild_excluding(
                failed_links=([failure.target]
                              if failure.kind == "link" else ()),
                failed_routers=([failure.target]
                                if failure.kind == "router" else ()))
        with tracer.span("telemetry.monitor.report_json"):
            text = canonical({
                "service": report.to_record(),
                "timeline": timeline.to_record(),
                "composability": verdict.to_record(),
                "quoted": quoted.to_record(),
                "observed": observed.to_record(),
                "rollup": rollup.to_record(),
                "rebuild": rebuild.to_record()})
        checks.check("survivors composable", verdict.is_composable)
        checks.check("survivors exist", len(verdict.survivors) > 0)
        checks.check("no quoted bound violated", quoted.n_violated == 0)
        checks.check("no observed bound violated",
                     observed.n_violated == 0)
        sim_slots = sum(result.simulated_slots for result in results)
        n_opens = report.totals["n_opens"]
        values.update({
            "sim_slots_per_s": sim_slots / tracer.duration(
                "simulation.composability.verify"),
            "service.churn.events": len(self.events),
            "faults.model.events": len(self.faults),
            "service.fairness.decisions": n_opens,
            "service.fairness.shed": report.totals["n_shed"],
            "service.fairness.shed_ratio":
                report.totals["n_shed"] / n_opens,
            "service.metrics.report_bytes": len(text),
            "core.timeline.transitions": service.recorder.n_transitions,
            "core.timeline.epochs": timeline.n_epochs,
            "simulation.backend.flit_runs": len(results),
            "simulation.backend.sim_slots": sim_slots,
            "simulation.composability.survivors": len(verdict.survivors),
            "simulation.composability.identical_ratio":
                len(verdict.identical) / len(verdict.survivors),
            "telemetry.monitor.channels_monitored":
                len(quoted.channels) + len(observed.channels),
            "telemetry.monitor.violated":
                quoted.n_violated + observed.n_violated,
        })
        return text, values


# -- the workloads the service never touches --------------------------------

class Sec7Static(Workload):
    """The paper's own experiment: offline allocation of the 200
    connections, one long guaranteed-service epoch, the static
    watchdog, subset composability and the best-effort baseline.

    The use case is the paper's canonical instance for every seed (other
    generator seeds need between zero and seven negotiation rounds, or
    fail, so allocation time would follow the seed); the seed draws the
    phase of every connection's bursts and how far below its required
    rate the whole use case offers traffic.
    """

    def generate(self, tracer) -> None:
        self.gs_slots, self.subset_slots, self.be_ticks = (
            (1000, 400, 150) if self.smoke else (5000, 1500, 600))
        rng = random.Random(self.seed)
        # Offered load stays 2-6 % under the requirement: a connection
        # whose requirement nearly fills its slots otherwise delivers
        # more than its quote over a finite window at some phases, which
        # the watchdog reads as a violation.
        self.rate_factor = rng.uniform(0.94, 0.98)
        names = sorted(spec.name
                       for app in generate_section7().use_case.applications
                       for spec in app.channels)
        self.offsets = {name: rng.randrange(97) for name in names}

    def one_pass(self, tracer, checks):
        with tracer.span("core.allocation.configure"):
            _, config = section7_setup()
        with tracer.span("simulation.traffic.build"):
            traffic = {
                name: PeriodicBurst(burst.burst_messages,
                                    burst.message_words,
                                    burst.period_cycles,
                                    offset_cycles=self.offsets[name])
                for name, burst in burst_traffic(
                    config, rate_factor=self.rate_factor).items()}
        with tracer.span("simulation.backend.gs_run"):
            gs = run_gs(config, n_slots=self.gs_slots, traffic=traffic)
        with tracer.span("telemetry.monitor.static_conformance"):
            conformance = conformance_from_result(
                config, gs.result, scenario="sec7_static")
        with tracer.span("simulation.composability.compare_subsets"):
            rows = composability_rows(config, n_slots=self.subset_slots)
        with tracer.span("baseline.be_network.run"):
            be = run_be(config, frequency_hz=FREQUENCY_HZ,
                        n_ticks=self.be_ticks, traffic=traffic)
        with tracer.span("telemetry.monitor.report_json"):
            text = canonical({
                "gs": {"n_measured": gs.n_measured,
                       "n_latency_ok": gs.n_latency_ok,
                       "n_within_bound": gs.n_within_bound,
                       "worst_margin_ns": round(gs.worst_margin_ns, 3),
                       "result": gs.result.to_record()},
                "conformance": conformance.to_record(),
                "composability": rows,
                "be": {"n_measured": be.n_measured,
                       "n_latency_ok": be.n_latency_ok,
                       "mean_latency_ns": round(be.mean_latency_ns, 3),
                       "max_latency_ns": round(be.max_latency_ns, 3)}})
        n_channels = len(config.allocation.channels)
        checks.check("all requirements met", gs.all_requirements_met)
        checks.check("all within bounds", gs.all_within_bounds)
        checks.check("every connection measured",
                     gs.n_measured == n_channels == 200)
        checks.check("no bound violated", conformance.n_violated == 0)
        checks.check("every subset composable",
                     all(row["composable"] for row in rows))
        values = {
            "sim_slots_per_s": self.gs_slots / tracer.duration(
                "simulation.backend.gs_run"),
            "core.allocation.channels": n_channels,
            "simulation.backend.sim_slots": self.gs_slots,
            "telemetry.monitor.channels_monitored":
                len(conformance.channels),
            "telemetry.monitor.violated": conformance.n_violated,
            "baseline.be_network.ticks": self.be_ticks,
        }
        return text, values


class CampaignGrid(Workload):
    """The campaign fabric: every scenario mode through two workers,
    then a hash-chain grid that is all dispatch, journal and streaming
    aggregation."""

    def generate(self, tracer) -> None:
        def seeded(spec):
            return dataclasses.replace(spec, base_seed=self.seed)

        # The design sweep keeps its own seed: its bisection work moves
        # by a third with the use case the seed would draw.
        design = design_campaign()
        if self.smoke:
            self.grid = [seeded(demo_campaign(n_slots=200, seeds=(1,)))]
            design = dataclasses.replace(design,
                                         scenarios=design.scenarios[:2])
            n_scenarios, n_seeds = 10, 10
        else:
            self.grid = [
                seeded(demo_campaign(seeds=(1,))),
                seeded(fault_campaign(n_sessions=40, n_slots=800,
                                      seeds=(1,)))]
            n_scenarios, n_seeds = 50, 20
        self.design = design
        self.synthetic = seeded(synthetic_campaign(
            n_scenarios=n_scenarios,
            seeds=tuple(range(1, n_seeds + 1))))
        self.workdir = WORK_DIR / f"{os.getpid()}"

    def one_pass(self, tracer, checks):
        digests = {}
        n_failed = 0
        with tracer.span("campaign.runner.grid"):
            grid_runs = 0
            for spec in self.grid:
                result = CampaignRunner(spec, workers=2).run()
                digests[spec.name] = result.digest()
                grid_runs += result.n_runs
                n_failed += result.n_failed
        with tracer.span("design.explorer.campaign"):
            design = CampaignRunner(self.design, workers=2).run()
            digests[self.design.name] = design.digest()
            n_failed += design.n_failed
        try:
            with tracer.span("campaign.runner.synthetic"):
                synthetic = CampaignRunner(
                    self.synthetic, workers=2, workdir=self.workdir,
                    keep_records=False).run()
            with tracer.span("campaign.runner.stream_digest"):
                digests[self.synthetic.name] = synthetic.digest()
        finally:
            with tracer.span("campaign.runner.cleanup"):
                shutil.rmtree(self.workdir, ignore_errors=True)
                if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
                    WORK_DIR.rmdir()
        n_failed += synthetic.n_failed
        resident = synthetic.meta["aggregate"]["peak_resident_records"]
        checks.check("no run failed", n_failed == 0)
        checks.check("streaming keeps one record resident", resident == 1)
        values = {
            "campaign.runs": (grid_runs + design.n_runs
                              + synthetic.n_runs),
            "campaign.runner.grid_runs": grid_runs,
            "campaign.runner.synthetic_runs_per_s":
                synthetic.n_runs / tracer.duration(
                    "campaign.runner.synthetic"),
            "campaign.runner.batches":
                synthetic.meta["dispatch"]["batches"],
            "campaign.runner.steals": synthetic.meta["dispatch"]["steals"],
            "campaign.runner.peak_resident_records": resident,
            "campaign.runner.failed_runs": n_failed,
            "design.explorer.candidates": design.n_runs,
        }
        return canonical(digests), values

    def end_to_end(self, values, wall_s):
        return {"campaign_runs_per_s": values["campaign.runs"] / wall_s}


WORKLOADS = {
    "churn_warm": ChurnWarm,
    "churn_varied": ChurnVaried,
    "pipeline": Pipeline,
    "sec7_static": Sec7Static,
    "campaign_grid": CampaignGrid,
}
