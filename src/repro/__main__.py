"""Command-line entry point: figures, tables, campaigns, and the service.

Usage::

    python -m repro fig5          # Figure 5: area vs target frequency
    python -m repro fig6a         # Figure 6(a): area/fmax vs arity
    python -m repro fig6b         # Figure 6(b): area/fmax vs data width
    python -m repro costs         # FIFO / mesochronous / related work
    python -m repro usecase       # Section VII GS run + isolation
    python -m repro sweep         # Section VII best-effort sweep
    python -m repro ablations     # design-choice ablations
    python -m repro all           # everything above
    python -m repro campaign --demo --workers 4   # scenario grid, pooled
    python -m repro campaign --demo --list        # show the grid, don't run
    python -m repro campaign --preset design_campaign --output report.json
    python -m repro campaign --demo --workdir wd  # checkpointed; --resume wd
    python -m repro serve --demo --events 200     # online admission service
    python -m repro serve --policy wfq --demo     # multi-tenant fairness
    python -m repro replay --demo --events 120 --slots 1200
    python -m repro design --demo --workers 4     # Pareto dimensioning
    python -m repro faults --demo --output report.json
    python -m repro monitor --demo --slots 1500 --top 5

``docs/cli.md`` documents every subcommand — flags, example output,
exit codes — and ``--help`` on any of them lists its flags.

``serve``, ``replay``, ``design``, ``faults`` and ``monitor`` are
*checked demos*: without ``--demo`` they refuse (custom runs are driven
from Python); with it the flow runs twice and the command exits non-zero
unless the two canonical JSON reports are byte-identical and the flow's
own verdicts hold (``_checked_demo`` is the one skeleton behind all of
them).  All but ``monitor`` run a campaign preset built from their
flags (``repro.campaign.presets``: ``serve_demo``, ``fairness_demo``,
``replay_demo``, ``faults_demo``, ``design_demo``), so their report is
that preset's campaign report.  ``campaign --demo`` checks serial
against parallel the same way.

``--monitor`` (``serve``, ``replay``, ``faults``, ``campaign``) arms the
conformance watchdog; every demo accepts ``--telemetry PATH`` and
``--trace PATH`` and prints a wall-clock phase table.  The canonical
reports stay byte-identical with any of it on or off.  ``--profile``
before the subcommand wraps the invocation in
:func:`repro.telemetry.run_profiled`.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from importlib import import_module

from repro.experiments.report import format_table


def _print_tables(*tables: tuple[list, str]) -> None:
    """Print ``(rows, title)`` tables, a blank line between them."""
    print("\n\n".join(format_table(rows, title=title)
                      for rows, title in tables))


def _finish_telemetry(tel, args: argparse.Namespace) -> None:
    """Print the phase table; write JSONL/trace files when asked to."""
    phases = tel.meta.get("phases", [])
    if phases:
        print()
        print(format_table(
            phases, title="phase timing [wall-clock; excluded from the "
                  "canonical report]"))
    if args.telemetry:
        tel.write_jsonl(args.telemetry)
        print(f"telemetry JSONL written to {args.telemetry}")
    if args.trace:
        tel.write_chrome_trace(args.trace)
        print(f"Chrome trace (load in Perfetto or chrome://tracing) "
              f"written to {args.trace}")


def _print_campaign_meta(meta: dict) -> None:
    """The runner's wall-clock execution report (never serialised)."""
    print()
    print(format_table(
        [{"stage": stage, "wall_s": wall}
         for stage, wall in meta["stages"].items()],
        title="campaign stages [wall-clock; excluded from the "
              "canonical report]"))
    workers = meta["worker_table"]
    if len(workers) > 1:
        print(format_table(
            [{"pid": pid, "runs": entry["runs"],
              "wall_s": entry["wall_s"], "cpu_s": entry["cpu_s"],
              "warmup_s": entry["warmup_s"]}
             for pid, entry in workers.items()],
            title="per-worker runs"))
    stragglers = meta["stragglers"]
    if stragglers:
        worst = max(stragglers, key=lambda s: s["wall_s"])
        print(f"stragglers: {len(stragglers)} run(s) took >= 3x the "
              f"median ({meta['median_run_wall_s']:.3f}s); "
              f"worst: {worst['run_id']} at {worst['wall_s']:.3f}s")
    shards = meta["shards"]
    print(f"shards: {shards['completed']}/{shards['n_shards']} completed")
    if meta["resume"]["enabled"]:
        print(f"resume: {meta['resume']['n_resumed']} run(s) restored "
              "from the workdir journals")
    dispatch = meta["dispatch"]  # empty for an in-process run
    if dispatch:
        print(f"dispatch: {dispatch['batches']} batches, "
              f"{dispatch['worker_deaths']} worker deaths")


def _sweep(section7, config) -> None:
    rows = section7.be_sweep_rows(config)
    print(format_table(rows, title="Section VII — best-effort sweep"))
    crossing = section7.be_crossing_mhz(rows)
    if crossing is None:
        print("\nbest effort never met all requirements in the sweep")
    else:
        print(f"\nbest effort needs {crossing:.0f} MHz "
              "(aelite: 500 MHz)")
    print()
    print(format_table(
        section7.cost_rows(config, be_required_mhz=crossing or 1000.0),
        title="Router-network silicon cost"))


#: The paper artefacts: subcommand -> (module under repro.experiments,
#: ((rows function, table title), ...)).  The Section VII row functions
#: take the configured use case, the others nothing; ``sweep`` prints
#: itself because what it prints depends on where best effort crosses.
_ARTEFACTS = {
    "fig5": ("figures", (
        ("figure5_rows", "Figure 5 — area vs target frequency "
                         "(arity-5, 32-bit, 90 nm)"),)),
    "fig6a": ("figures", (
        ("figure6a_rows", "Figure 6(a) — area & fmax vs arity"),)),
    "fig6b": ("figures", (
        ("figure6b_rows", "Figure 6(b) — area & fmax vs data width"),)),
    "costs": ("area_comparison", (
        ("fifo_rows", "Bi-synchronous FIFO cost"),
        ("mesochronous_rows", "Mesochronous arity-5 router"),
        ("related_work_rows", "Related-work comparison"),
        ("headline_ratio_rows", "aelite vs AEthereal GS+BE"),
        ("throughput_rows", "Raw throughput per area"))),
    "usecase": ("section7", (
        ("usecase_gs_rows", "Section VII — aelite GS @ 500 MHz"),
        ("composability_rows", "Section VII — application isolation"))),
    "sweep": ("section7", _sweep),
    "ablations": ("ablations", (
        ("table_size_rows", "Ablation — slot-table size"),
        ("fifo_depth_rows", "Ablation — link-stage FIFO depth"),
        ("ordering_rows", "Ablation — allocation order"),
        ("pipeline_stage_rows", "Ablation — link pipeline stages"),
        ("backend_rows", "Ablation — simulation backend / clocking"))),
}


def _print_artefact(name: str) -> None:
    """Regenerate one paper artefact: its tables, in order."""
    module_name, tables = _ARTEFACTS[name]
    module = import_module(f"repro.experiments.{module_name}")
    args = ()
    if module_name == "section7":
        args = (module.section7_setup()[1],)
    if callable(tables):
        tables(module, *args)
    else:
        _print_tables(*((getattr(module, rows)(*args), title)
                        for rows, title in tables))


def _campaign(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignRunner, preset_by_name
    if args.demo and args.preset:
        print("campaign: --demo and --preset are mutually exclusive",
              file=sys.stderr)
        return 2
    if not (args.demo or args.preset):
        print("campaign: pick --demo or --preset <name>; build custom "
              "grids with repro.campaign in Python", file=sys.stderr)
        return 2
    spec = preset_by_name("demo" if args.demo else args.preset)
    workdir = args.resume or args.workdir
    if args.stream and workdir is None:
        print("campaign: --stream needs --workdir (the shard journals "
              "are the record store the report streams from)",
              file=sys.stderr)
        return 2
    runs = spec.expand()
    if args.list:
        from repro.campaign.kinds import grid_row
        print(format_table(
            [grid_row(run) for run in runs],
            title=f"campaign {spec.name!r} — {len(runs)} runs"))
        return 0
    from repro.telemetry.hub import Telemetry
    tel = Telemetry(name="campaign")
    with tel.phase("campaign"):
        result = CampaignRunner(
            spec, workers=args.workers, telemetry=tel, workdir=workdir,
            resume=args.resume is not None,
            keep_records=not args.stream,
            shard_size=args.shard_size).run()
    print(format_table(result.summary_rows(),
                       title=f"campaign {spec.name!r} — {result.n_runs} "
                             f"runs on {args.workers} workers "
                             f"({result.n_failed} failed)"))
    print("\n" + result.summary())
    agree = True
    if args.workers > 1 and args.demo and workdir is None:
        with tel.phase("serial-verify"):
            serial = CampaignRunner(spec, workers=1).run()
        agree = serial.to_json() == result.to_json()
        print("\n" + _verdict_line("serial/parallel reports "
                                   "byte-identical", agree,
                                   "DETERMINISM BUG"))
    elif args.workers == 1:
        print("\nworkers=1: in-process run, serial/parallel "
              "determinism check skipped")
    _print_campaign_meta(result.meta)
    monitor = _monitor_spec(args)
    conformance_ok = True
    if monitor is not None:
        from repro.campaign import campaign_conformance
        conformance_ok = _print_conformance(
            campaign_conformance(result, spec=monitor), args)
    if args.output:
        result.write(args.output)
        print(f"aggregated JSON report written to {args.output}")
    else:
        print("\n" + result.to_json())
    _finish_telemetry(tel, args)
    return 0 if agree and conformance_ok else 1


def _verdict_line(claim: str, held: bool, failure: str,
                  note: str = "") -> str:
    """One line of a pass condition: a claim, whether it held, what a
    ``NO`` is called, and a note trailing the verdict word."""
    return f"{claim}: {'yes' if held else 'NO — ' + failure}{note}"


def _demo_preset(args: argparse.Namespace):
    """The campaign preset a checked demo runs, built from its flags."""
    from repro.campaign.presets import (design_demo, fairness_demo,
                                        faults_demo, replay_demo,
                                        serve_demo)
    if args.experiment == "design":
        return design_demo(seed=args.seed,
                           spare_capacity=args.spare_capacity)
    if args.experiment == "faults":
        return faults_demo(n_events=args.events, n_slots=args.slots,
                           n_faults=args.faults, seed=args.seed)
    if args.experiment == "replay":
        return replay_demo(n_events=args.events, n_slots=args.slots,
                           seed=args.seed)
    if args.policy == "wfq":
        return fairness_demo(n_events=args.events, seed=args.seed)
    return serve_demo(n_events=args.events, seed=args.seed)


def _preset_flow(args: argparse.Namespace, tel, monitor):
    """Run the demo's preset twice; print the campaign's table and the
    preset's detail table; hand back its verdicts.

    The instrumented pass runs every run through ``run_kind`` with the
    telemetry hub, and arms the watchdog on the preset's first
    scenario.  ``design`` fans its candidates out over ``--workers``
    through the campaign runner instead.
    """
    from repro.campaign.kinds import run_kind
    from repro.campaign.presets import DEMO_CHECKS
    from repro.campaign.runner import CampaignResult, CampaignRunner
    from repro.telemetry.checked import run_twice
    spec = _demo_preset(args)

    def one_pass(run_telemetry, run_monitor):
        if args.experiment == "design":
            return CampaignRunner(spec, workers=args.workers,
                                  telemetry=run_telemetry).run(), None
        records = [run_kind(run, telemetry=run_telemetry,
                            monitor=None if index else run_monitor)
                   for index, run in enumerate(spec.expand())]
        conformance = records[0].pop("_conformance", None)
        records.sort(key=lambda record: record["run_id"])
        return CampaignResult(spec.name, spec.base_seed, records), \
            conformance

    (result, conformance), canonical, identical = run_twice(
        one_pass, lambda outcome: outcome[0].to_json(), telemetry=tel,
        monitor=monitor, phases=("run", "re-run"))
    tables = [(result.summary_rows(),
               f"campaign {spec.name!r} — {result.n_runs} runs "
               f"({result.n_failed} failed)")]
    verdicts = [("every run finished", not result.n_failed, "RUN FAILED")]
    if not result.n_failed:
        checks, detail = DEMO_CHECKS[spec.name](result.records)
        verdicts += checks
        tables.append(detail)
    _print_tables(*tables)
    if result.meta:
        _print_campaign_meta(result.meta)
    return verdicts, identical, canonical, conformance


def _checked_demo(args: argparse.Namespace) -> int:
    """The skeleton every checked demo shares.

    Refuse without ``--demo``; run the flow on a fresh telemetry hub
    (it prints its tables and hands back its verdicts, the run-twice
    verdict, the canonical report and the watchdog's report); then the
    verdict lines, the conformance verdict when the monitor is armed,
    ``--output``, the phase table and the exit code.
    """
    flow, what, advice = _DEMOS[args.experiment]
    if not args.demo:
        print(f"{args.experiment}: only the built-in --demo {what} is "
              f"runnable from the CLI; {advice}", file=sys.stderr)
        return 2
    from repro.telemetry.hub import Telemetry
    tel = Telemetry(name=args.experiment)
    monitor = _monitor_spec(args)
    verdicts, identical, canonical, conformance = flow(args, tel, monitor)
    verdicts.append(("repeated-run reports byte-identical", identical,
                     "DETERMINISM BUG"))
    print()
    for verdict in verdicts:
        print(_verdict_line(*verdict))
    ok = all(held for _, held, *_ in verdicts)
    if monitor is not None:
        ok = _print_conformance(conformance, args) and ok
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(canonical)
            handle.write("\n")
        print(f"canonical JSON report written to {args.output}")
    _finish_telemetry(tel, args)
    return 0 if ok else 1


def _monitor_flow(args: argparse.Namespace, tel, monitor):
    """``monitor --demo``: Section VII's conformance and heatmaps (not a
    campaign preset — the use case is no ``WorkloadSpec``)."""
    from repro.experiments.section7 import section7_setup
    from repro.telemetry.checked import run_twice
    from repro.telemetry.monitor import (ConformanceReport, FabricRollup,
                                         MonitorSpec,
                                         conformance_from_result)
    from repro.usecase.runner import run_gs
    spec = MonitorSpec(slack_fraction=args.slack)
    with tel.phase("configure"):
        _, config = section7_setup()

    def watch(run_telemetry, run_monitor) -> ConformanceReport:
        outcome = run_gs(config, n_slots=args.slots)
        return conformance_from_result(config, outcome.result, spec=spec)

    conformance, canonical, identical = run_twice(
        watch, ConformanceReport.to_json, telemetry=tel,
        phases=("simulate", "conformance"))
    rollup = FabricRollup.from_allocation(config.allocation)
    rollup.emit_counter_tracks(tel)
    print(conformance.summary() + "\n")
    _print_tables(
        (conformance.summary_rows(args.top), "least-headroom channels"),
        (rollup.link_rows(args.top), "hottest links (slot occupancy)"),
        (rollup.ni_rows(args.top), "busiest source NIs (slot occupancy)"))
    return ([("zero violated channels on the GS backend",
              conformance.n_violated == 0, "BOUNDS BUG")],
            identical, canonical, None)


#: The checked demos: subcommand -> (flow, what ``--demo`` runs, where
#: custom runs are driven from instead).
_DEMOS = {
    "serve": (_preset_flow, "trace",
              "drive custom workloads with repro.service in Python"),
    "replay": (_preset_flow, "trace",
               "drive custom timelines with "
               "repro.simulation.verify_timeline in Python"),
    "design": (_preset_flow, "exploration",
               "build custom problems with repro.design in Python "
               "(DesignSpace.scenarios, CampaignRunner, pareto_front)"),
    "faults": (_preset_flow, "flow",
               "drive custom schedules with repro.faults in Python "
               "(FaultSpec, FaultSchedule, Allocation.rebuild_excluding)"),
    "monitor": (_monitor_flow, "flow",
                "build custom watchdogs with repro.telemetry.monitor in "
                "Python (MonitorSpec, conformance_from_result, "
                "timeline_conformance, FabricRollup)"),
}


def _positive_int(text: str) -> int:
    """argparse ``type=`` of a count: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    """argparse ``type=`` of a fraction: a float that is not nan/inf."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"must be a finite number, got {text!r}")
    return value


def _output_path(text: str) -> str:
    """argparse ``type=`` of a file to write: its directory must exist,
    so a bad path is refused before the run, not after it."""
    directory = os.path.dirname(text) or "."
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(
            f"must be a path in an existing directory, got {text!r}")
    return text


def _add_observability_flags(subparser: argparse.ArgumentParser) -> None:
    """``--telemetry`` / ``--trace`` outputs, shared by every demo."""
    subparser.add_argument("--telemetry", type=_output_path, default=None,
                           metavar="PATH",
                           help="write the deterministic metric/span "
                                "JSONL stream here")
    subparser.add_argument("--trace", type=_output_path, default=None,
                           metavar="PATH",
                           help="write a Chrome trace-event JSON here "
                                "(load in Perfetto or chrome://tracing)")


def _add_monitor_flags(subparser: argparse.ArgumentParser) -> None:
    """``--monitor`` conformance watchdog flags, shared by the demos."""
    subparser.add_argument("--monitor", action="store_true",
                           help="arm the guarantee-conformance watchdog: "
                                "classify observed/quoted behaviour "
                                "against the analytical bounds "
                                "(within_bounds / tight / violated); "
                                "the canonical report stays "
                                "byte-identical")
    subparser.add_argument("--monitor-output", type=_output_path,
                           default=None, dest="monitor_output",
                           metavar="PATH",
                           help="write the canonical conformance report "
                                "JSON here (implies --monitor)")
    subparser.add_argument("--monitor-slack", type=_finite_float,
                           default=0.2,
                           dest="monitor_slack", metavar="FRACTION",
                           help="headroom fraction under which a "
                                "channel classifies as 'tight' "
                                "(default 0.2)")


def _add_demo_parser(sub, name: str, *, help: str, demo: str,
                     events: int | None = None, slots: int | None = None,
                     seed: bool = True, monitor: bool = True
                     ) -> argparse.ArgumentParser:
    """A checked demo's subparser: the flags every demo shares.

    ``events`` / ``slots`` are the defaults of ``--events`` /
    ``--slots``; a demo without the axis leaves them ``None``.
    """
    parser = sub.add_parser(name, help=help)
    parser.add_argument("--demo", action="store_true", help=demo)
    if events is not None:
        parser.add_argument("--events", type=_positive_int,
                            default=events,
                            help="number of session events to process "
                                 f"(default {events})")
    if slots is not None:
        parser.add_argument("--slots", type=_positive_int, default=slots,
                            help="simulation horizon in TDM slots "
                                 f"(default {slots})")
    if seed:
        parser.add_argument("--seed", type=int, default=2009,
                            help="workload seed (default 2009)")
    parser.add_argument("--output", type=_output_path, default=None,
                        help="write the canonical JSON report here")
    _add_observability_flags(parser)
    if monitor:
        _add_monitor_flags(parser)
    return parser


def _monitor_spec(args: argparse.Namespace):
    """The armed :class:`MonitorSpec`, or ``None`` when monitoring is off."""
    if not (getattr(args, "monitor", False)
            or getattr(args, "monitor_output", None)):
        return None
    from repro.telemetry.monitor import MonitorSpec
    return MonitorSpec(slack_fraction=args.monitor_slack)


def _print_conformance(conformance, args: argparse.Namespace) -> bool:
    """Print one conformance verdict; write it if asked.  True when ok."""
    if conformance is None:
        print("\nconformance: monitor armed but no report was produced")
        return False
    print("\n" + conformance.summary())
    rows = conformance.summary_rows()
    if rows:
        print(format_table(rows, title="least-headroom channels"))
    if args.monitor_output:
        conformance.write(args.monitor_output)
        print(f"conformance report written to {args.monitor_output}")
    tenant_rows = conformance.tenant_rows()
    if tenant_rows:
        print(format_table(tenant_rows,
                           title="per-tenant guarantee retention"))
    return conformance.ok


def main(argv: list[str] | None = None) -> int:
    """CLI dispatcher; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the aelite paper's figures and tables, "
                    "or run scenario campaigns.")
    parser.add_argument("--profile", action="store_true",
                        help="wrap the command in cProfile and print "
                             "the hot spots to stderr (place before "
                             "the subcommand)")
    sub = parser.add_subparsers(dest="experiment", required=True,
                                metavar="command")
    for name in sorted(_ARTEFACTS) + ["all"]:
        sub.add_parser(name, help=f"regenerate the {name} artefact(s)"
                       if name != "all" else "everything above")
    campaign = sub.add_parser(
        "campaign", help="run a scenario campaign over worker processes")
    campaign.add_argument("--demo", action="store_true",
                          help="run the built-in demo grid "
                               "(2 topologies x 2 traffic mixes x 2 "
                               "backends x 2 seeds)")
    campaign.add_argument("--preset", default=None, metavar="NAME",
                          help="run a registered preset grid, e.g. "
                               "churn_campaign or just churn (an "
                               "unknown name lists them all)")
    campaign.add_argument("--workers", type=_positive_int, default=2,
                          help="worker processes (default 2; 1 runs "
                               "in-process for profiling/debugging)")
    campaign.add_argument("--workdir", default=None, metavar="DIR",
                          help="checkpoint directory: completed runs "
                               "journal into per-shard JSONL files so a "
                               "killed campaign can --resume")
    campaign.add_argument("--resume", default=None, metavar="DIR",
                          help="resume a killed campaign from its "
                               "workdir DIR, skipping journaled runs; "
                               "the final report stays byte-identical "
                               "to an uninterrupted run (still needs "
                               "--demo/--preset to rebuild the spec)")
    campaign.add_argument("--stream", action="store_true",
                          help="streaming aggregation: never hold the "
                               "full record list in memory (requires "
                               "--workdir; the report streams from the "
                               "shard journals)")
    campaign.add_argument("--shard-size", type=_positive_int, default=None,
                          metavar="N",
                          help="runs per checkpoint shard (default: "
                               "derived from grid size, independent of "
                               "worker count)")
    campaign.add_argument("--output", type=_output_path, default=None,
                          help="write the aggregated JSON report here "
                               "instead of stdout")
    campaign.add_argument("--list", action="store_true",
                          help="print the expanded run grid and exit")
    _add_observability_flags(campaign)
    _add_monitor_flags(campaign)
    serve = _add_demo_parser(
        sub, "serve", events=2000,
        help="run the online admission service over a churn trace",
        demo="run the built-in seeded churn trace on the Section VII "
             "mesh (twice; verifies the reports are byte-identical)")
    serve.add_argument("--policy", choices=("fcfs", "wfq"),
                       default="fcfs",
                       help="admission policy: fcfs (default, the "
                            "legacy single-tenant demo) or wfq (the "
                            "multi-tenant weighted-fair demo: abusive "
                            "tenant vs FCFS vs per-tenant solo "
                            "baselines)")
    _add_demo_parser(
        sub, "replay", events=240, slots=3000,
        help="record a churn trace and replay it as a reconfiguration "
             "timeline at cycle level",
        demo="run the built-in seeded churn trace, replay it on the "
             "flit-level and best-effort backends, and verify dynamic "
             "composability (twice; reports must be byte-identical)")
    design = _add_demo_parser(
        sub, "design", monitor=False,
        help="dimension a network from a workload: explore the design "
             "space and emit the Pareto front",
        demo="dimension the demo-scale Section VII workload over the "
             "built-in 18-candidate space (twice; reports must be "
             "byte-identical and the minimum-area point must be the "
             "paper's 2x2 mesh at <= 500 MHz)")
    design.add_argument("--workers", type=_positive_int, default=2,
                        help="worker processes for candidate "
                             "evaluation (default 2)")
    design.add_argument("--spare-capacity", type=_finite_float,
                        default=0.0,
                        dest="spare_capacity", metavar="FRACTION",
                        help="fault-tolerance headroom: inflate every "
                             "channel requirement by this fraction so "
                             "the dimensioned network keeps slack for "
                             "degraded-mode re-allocation (default 0)")
    faults = _add_demo_parser(
        sub, "faults", events=240, slots=3000,
        help="inject link/router failures into a churn trace and "
             "measure what survives",
        demo="run the built-in churn+faults flow on a 3x3 mesh against "
             "its fault-free baseline (twice; reports must be "
             "byte-identical and fault survivors bit-identical)")
    faults.add_argument("--faults", type=_positive_int, default=6,
                        help="number of fabric failures to inject "
                             "(default 6)")
    monitor = _add_demo_parser(
        sub, "monitor", slots=3000, seed=False, monitor=False,
        help="guarantee-conformance watchdog + fabric introspection "
             "over the Section VII use case",
        demo="run the Section VII GS use case, classify every channel's "
             "observed worst-case latency and delivered throughput "
             "against its analytical bounds (twice; the conformance "
             "reports must be byte-identical and zero channels "
             "violated), and print the fabric utilisation heatmaps")
    monitor.add_argument("--slack", type=_finite_float, default=0.2,
                         metavar="FRACTION",
                         help="headroom fraction under which a channel "
                              "classifies as 'tight' (default 0.2)")
    monitor.add_argument("--top", type=_positive_int, default=8,
                         help="rows per heatmap/headroom table "
                              "(default 8)")
    args = parser.parse_args(argv)
    if args.profile:
        from repro.telemetry.profiling import run_profiled
        return run_profiled(lambda: _dispatch(args))
    return _dispatch(args)


def _artefacts(args: argparse.Namespace) -> int:
    """Regenerate one paper artefact, or all of them under banners."""
    if args.experiment in _ARTEFACTS:
        _print_artefact(args.experiment)
        return 0
    for name in _ARTEFACTS:
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
        _print_artefact(name)
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    """Route a parsed invocation to its handler.

    A :class:`~repro.core.exceptions.ConfigurationError` — an input the
    library refuses — is a usage error here: one line on stderr, exit 2.
    Output into a pipe whose reader has gone (``| head``) ends quietly,
    exit 1, as the Python documentation's SIGPIPE recipe does: stdout
    is pointed at devnull so the flush at exit cannot raise again.
    """
    from repro.core.exceptions import ConfigurationError
    handlers = {"campaign": _campaign,
                **dict.fromkeys(_DEMOS, _checked_demo)}
    try:
        code = handlers.get(args.experiment, _artefacts)(args)
        sys.stdout.flush()
        return code
    except ConfigurationError as exc:
        print(f"repro {args.experiment}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
