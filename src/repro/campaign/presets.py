"""Ready-made campaign specs: the CLI demos and the CI smoke check.

These are ordinary :class:`~repro.campaign.spec.CampaignSpec` values —
nothing here is privileged.  They double as worked examples of
:func:`~repro.campaign.spec.scenario_grid`.

The ``*_demo`` presets are the checked demos: ``python -m repro serve
--demo`` (``--policy wfq``), ``replay --demo``, ``faults --demo`` and
``design --demo`` build one from their flags, run it twice and judge it
with its entry in :data:`DEMO_CHECKS`.  Their defaults are the CI smoke
sizes, so ``campaign --preset serve_demo --workers 1 --output F``
writes the bytes ``serve --demo --events 200 --output F`` writes.
"""

from __future__ import annotations

from typing import Callable

from repro.campaign.spec import (CampaignSpec, ScenarioSpec, SyntheticSpec,
                                 TopologySpec, TrafficSpec, WorkloadSpec,
                                 scenario_grid)
from repro.faults.model import FaultSpec
from repro.service.churn import ChurnSpec
from repro.service.qos import QosClass

__all__ = ["demo_campaign", "micro_campaign", "churn_campaign",
           "replay_campaign", "design_campaign", "fault_campaign",
           "fairness_campaign", "synthetic_campaign", "serve_demo",
           "fairness_demo", "replay_demo", "faults_demo", "design_demo",
           "PRESETS", "DEMO_CHECKS", "preset_by_name"]


def demo_campaign(*, n_slots: int = 600,
                  seeds: tuple[int, ...] = (1, 2)) -> CampaignSpec:
    """The ``python -m repro campaign --demo`` grid.

    Two topologies × two traffic mixes × two backends = 8 simulation
    scenarios plus one service-churn scenario, one churn-replay
    scenario and one churn+faults scenario, each across the seed grid —
    wide enough to exercise the pool and every scenario mode, small
    enough to finish in seconds.
    """
    scenarios = scenario_grid(
        topologies={
            "mesh2x2": TopologySpec(kind="mesh", cols=2, rows=2,
                                    nis_per_router=1),
            "ring4": TopologySpec(kind="ring", cols=4, nis_per_router=1),
        },
        traffic_mixes={
            "cbr": TrafficSpec(pattern="cbr"),
            "burst": TrafficSpec(pattern="burst"),
        },
        backends={
            "flit": ("flit", "synchronous"),
            "be": ("be", "synchronous"),
        },
        workload=WorkloadSpec(n_channels=6, n_ips=8),
        n_slots=n_slots, table_size=16)
    scenarios += (
        ScenarioSpec(
            name="mesh2x2-churn-serve", mode="serve",
            topology=TopologySpec(kind="mesh", cols=2, rows=2,
                                  nis_per_router=1),
            churn=ChurnSpec(n_sessions=150), table_size=16),
        ScenarioSpec(
            name="mesh3x3-churn-replay", mode="replay", backend="flit",
            topology=TopologySpec(kind="mesh", cols=3, rows=3,
                                  nis_per_router=2),
            churn=ChurnSpec(n_sessions=60), n_slots=1200,
            table_size=16),
        ScenarioSpec(
            name="mesh3x3-churn-faults", mode="faults", backend="flit",
            topology=TopologySpec(kind="mesh", cols=3, rows=3,
                                  nis_per_router=2),
            churn=ChurnSpec(n_sessions=40),
            faults=FaultSpec(n_faults=3, fault_rate_per_s=400.0,
                             mean_repair_s=0.004),
            n_slots=800, table_size=16),
    )
    return CampaignSpec(name="demo", scenarios=scenarios, seeds=seeds)


def micro_campaign() -> CampaignSpec:
    """A 4-scenario micro-campaign for the tier-2 benchmark smoke check.

    One scenario per backend flavour (flit, cycle-synchronous,
    cycle-mesochronous, best-effort) on one small mesh, 400 slots, one
    seed — the cheapest campaign that still exercises every adapter and
    the parallel pool.
    """
    # One pipeline stage per link so the mesochronous scenario is legal.
    topology = TopologySpec(kind="mesh", cols=2, rows=2, nis_per_router=1,
                            pipeline_stages=1)
    workload = WorkloadSpec(n_channels=4, n_ips=8)
    scenarios = tuple(
        ScenarioSpec(name=name, topology=topology, workload=workload,
                     traffic=TrafficSpec(pattern="cbr"),
                     backend=backend, clocking=clocking,
                     n_slots=400, table_size=16)
        for name, backend, clocking in (
            ("flit", "flit", "synchronous"),
            ("cycle-sync", "cycle", "synchronous"),
            ("cycle-meso", "cycle", "mesochronous"),
            ("be", "be", "synchronous"),
        ))
    return CampaignSpec(name="micro-smoke", scenarios=scenarios,
                        seeds=(1,))


def churn_campaign(*, n_sessions: int = 400,
                   seeds: tuple[int, ...] = (1, 2)) -> CampaignSpec:
    """A service-churn sweep: topology × arrival rate × session mix.

    Every scenario runs the online control plane (``mode="serve"``)
    over a seeded churn stream; the grid crosses the Section VII mesh
    against a smaller mesh, slow against fast arrivals, and the default
    mix against a bulk-heavy one — the service-side analogue of the
    simulation demo grid.
    """
    topologies = {
        "cmesh4x3": TopologySpec(kind="cmesh", cols=4, rows=3,
                                 nis_per_router=4),
        "mesh3x3": TopologySpec(kind="mesh", cols=3, rows=3,
                                nis_per_router=2),
    }
    bulk_heavy = (
        QosClass("video", throughput_mb_s=40.0, max_latency_ns=400.0,
                 weight=1.0),
        QosClass("bulk", throughput_mb_s=120.0, max_latency_ns=None,
                 weight=3.0),
    )
    mixes = {"default": None,
             "bulkheavy": bulk_heavy}
    rates = {"slow": 1000.0, "fast": 10000.0}
    scenarios = []
    for topo_label, topology in sorted(topologies.items()):
        for mix_label, classes in sorted(mixes.items()):
            for rate_label, rate in sorted(rates.items()):
                churn = ChurnSpec(
                    n_sessions=n_sessions, arrival_rate_per_s=rate,
                    **({} if classes is None else {"classes": classes}))
                scenarios.append(ScenarioSpec(
                    name=f"{topo_label}-{mix_label}-{rate_label}",
                    mode="serve", topology=topology, churn=churn,
                    table_size=32))
    return CampaignSpec(name="churn", scenarios=tuple(scenarios),
                        seeds=seeds)


def replay_campaign() -> CampaignSpec:
    """A dynamic-composability sweep: topology × backend under churn.

    Every scenario records a 120-session churn trace through the control
    plane, fits it into 2 400 simulation slots, and replays it as a
    reconfiguration timeline on the named backend.  The flit scenarios
    state the paper's claim (survivor traces bit-identical across every
    epoch); the best-effort scenarios show churn of the same profile
    destroying isolation on the baseline.
    """
    topologies = {
        "mesh3x3": TopologySpec(kind="mesh", cols=3, rows=3,
                                nis_per_router=2),
        "cmesh4x3": TopologySpec(kind="cmesh", cols=4, rows=3,
                                 nis_per_router=4),
    }
    scenarios = []
    for topo_label, topology in sorted(topologies.items()):
        for backend in ("flit", "be"):
            scenarios.append(ScenarioSpec(
                name=f"{topo_label}-{backend}-replay", mode="replay",
                backend=backend, topology=topology,
                churn=ChurnSpec(n_sessions=120),
                n_slots=2400, table_size=32))
    return CampaignSpec(name="replay", scenarios=tuple(scenarios),
                        seeds=(1, 2))


def design_campaign() -> CampaignSpec:
    """A design-space sweep: dimension a network for a churn profile.

    The workload is the expected concurrent session population of a
    churn profile at a 95 % target admission rate (Little's law, see
    :func:`repro.design.space.workload_from_churn`); every scenario is
    one ``mode="design"`` candidate — topology family x slot-table size
    — evaluated through pruning, mapping optimisation, feasibility
    bisection and the synthesis cost models.  The aggregated records
    are exactly what :func:`repro.design.pareto_front` consumes.
    """
    from repro.design.space import DesignSpace, workload_from_churn

    seed = 2009
    use_case = workload_from_churn(
        ChurnSpec(n_sessions=200, arrival_rate_per_s=800.0),
        target_admission_rate=0.95, seed=seed)
    space = DesignSpace(
        topologies=(
            TopologySpec(kind="mesh", cols=2, rows=2, nis_per_router=3),
            TopologySpec(kind="mesh", cols=3, rows=3, nis_per_router=2),
            TopologySpec(kind="cmesh", cols=3, rows=2, nis_per_router=4),
            TopologySpec(kind="torus", cols=3, rows=3, nis_per_router=2),
            TopologySpec(kind="ring", cols=5, nis_per_router=2),
        ),
        table_sizes=(16, 32),
        mappings=("optimized",))
    return CampaignSpec(name="design", scenarios=space.scenarios(use_case),
                        seeds=(1,), base_seed=seed)


def fault_campaign(*, n_sessions: int = 80, n_slots: int = 1600,
                   seeds: tuple[int, ...] = (1, 2)) -> CampaignSpec:
    """A survivability sweep: fault rate × topology × slot-table size.

    Every scenario runs the control plane over churn merged with a
    seeded fault schedule (``mode="faults"``), folds the outcome against
    the fault-free baseline of the identical churn, and replays the
    churn+fault timeline on the flit backend for the fault-survivor
    composability verdict.  The grid crosses a sparse adversary (few
    faults, quick repairs) against a dense one (many faults, slow
    repairs) over two topologies and two slot-table sizes — the
    quantitative answer to "how much service survives N failures?".
    """
    topologies = {
        "mesh3x3": TopologySpec(kind="mesh", cols=3, rows=3,
                                nis_per_router=2),
        "cmesh4x3": TopologySpec(kind="cmesh", cols=4, rows=3,
                                 nis_per_router=4),
    }
    adversaries = {
        "sparse": FaultSpec(n_faults=3, fault_rate_per_s=150.0,
                            mean_repair_s=0.003),
        "dense": FaultSpec(n_faults=8, fault_rate_per_s=600.0,
                           mean_repair_s=0.01),
    }
    scenarios = []
    for topo_label, topology in sorted(topologies.items()):
        for adv_label, faults in sorted(adversaries.items()):
            for table_size in (16, 32):
                scenarios.append(ScenarioSpec(
                    name=f"{topo_label}-{adv_label}-t{table_size}-faults",
                    mode="faults", backend="flit", topology=topology,
                    churn=ChurnSpec(n_sessions=n_sessions),
                    faults=faults, n_slots=n_slots,
                    table_size=table_size))
    return CampaignSpec(name="faults", scenarios=tuple(scenarios),
                        seeds=seeds)


def fairness_campaign(*, n_events: int = 800,
                      seeds: tuple[int, ...] = (1, 2)) -> CampaignSpec:
    """A multi-tenant fairness sweep: adversary intensity × weights.

    Every scenario runs the ``mode="fairness"`` comparison — the
    weighted-fair control plane versus the FCFS baseline versus
    per-tenant solo references over one tenant-tagged churn stream —
    on the Section VII mesh.  The grid crosses a mild against a severe
    abuser (3x / 10x the honest arrival intensity) with equal against
    skewed tenant weights, so the aggregated retention columns show
    both knobs of the policy at work.
    """
    from repro.service.fairness import TenantSpec, abusive_tenant_mix

    topology = TopologySpec(kind="cmesh", cols=4, rows=3,
                            nis_per_router=4)
    adversaries = {"mild": 3.0, "severe": 10.0}
    weightings = {"equal": 1.0, "weighted": 2.0}
    scenarios = []
    for adv_label, multiplier in sorted(adversaries.items()):
        for weight_label, weight in sorted(weightings.items()):
            tenants = abusive_tenant_mix(
                3, multiplier=multiplier, floor_opens_per_window=2)
            if weight != 1.0:
                # Skewed grid cells double every honest tenant's
                # fair-share weight while the abuser keeps weight 1.
                tenants = (tenants[0],) + tuple(
                    TenantSpec(t.name, weight=weight,
                               rate_multiplier=t.rate_multiplier,
                               apps=t.apps,
                               floor_opens_per_window=
                               t.floor_opens_per_window)
                    for t in tenants[1:])
            churn = ChurnSpec(
                n_sessions=max(1, (n_events + 1) // 2 + 8),
                arrival_rate_per_s=18000.0, tenants=tenants)
            scenarios.append(ScenarioSpec(
                name=f"cmesh4x3-{adv_label}-{weight_label}-fairness",
                mode="fairness", topology=topology, churn=churn,
                table_size=32))
    return CampaignSpec(name="fairness", scenarios=tuple(scenarios),
                        seeds=seeds)


def synthetic_campaign(*, n_scenarios: int = 8,
                       seeds: tuple[int, ...] = (1, 2),
                       work: int = 200,
                       fail_seeds: tuple[int, ...] = ()) -> CampaignSpec:
    """A fabric-scale grid of ``mode="synthetic"`` runs.

    Each run hashes a seeded chain for ``work`` rounds and records the
    final digest — deterministic, allocation-free, microseconds-cheap —
    so 10k+-run grids exercise sharding, checkpointing, dispatch and
    streaming aggregation without simulation cost drowning the
    measurement.  Seeds listed in ``fail_seeds`` raise inside the run
    body, driving the crashed-envelope degradation path.

    >>> spec = synthetic_campaign(n_scenarios=3, seeds=(1, 2))
    >>> len(list(spec.expand()))
    6
    """
    synthetic = SyntheticSpec(work=work, fail_seeds=fail_seeds)
    scenarios = tuple(
        ScenarioSpec(name=f"synth-{i:04d}", mode="synthetic",
                     synthetic=synthetic)
        for i in range(n_scenarios))
    return CampaignSpec(name="synthetic", scenarios=scenarios,
                        seeds=seeds)


# -- the checked demos ---------------------------------------------------

#: The Section VII mesh and the denser mesh the replay and faults demos
#: reroute on; the churn demos run at 32-slot tables and 500 MHz.
_SECTION7_MESH = TopologySpec(kind="cmesh", cols=4, rows=3, nis_per_router=4)
_DEMO_MESH = TopologySpec(kind="mesh", cols=3, rows=3, nis_per_router=2)


def _open_tail_sessions(n_events: int) -> int:
    """Sessions whose stream an open-tail kind cuts to ``n_events``
    events (it keeps three halves of the session count)."""
    return max(1, 2 * n_events // 3)


def serve_demo(*, n_events: int = 200, seed: int = 2009) -> CampaignSpec:
    """``python -m repro serve --demo``: the control plane over one
    seeded churn trace on the Section VII mesh.

    Every session opens and closes, so ``n_events`` (rounded up to
    even) events come from half as many sessions.
    """
    return CampaignSpec(name="serve_demo", scenarios=(ScenarioSpec(
        name="cmesh4x3-serve", mode="serve", topology=_SECTION7_MESH,
        churn=ChurnSpec(n_sessions=(n_events + 1) // 2),
        table_size=32),), seeds=(seed,))


def fairness_demo(*, n_events: int = 600, seed: int = 2009) -> CampaignSpec:
    """``python -m repro serve --policy wfq --demo``: wfq vs FCFS vs
    per-tenant solo under the abusive-tenant profile."""
    from repro.service.fairness_demo import fairness_churn_spec
    return CampaignSpec(name="fairness_demo", scenarios=(ScenarioSpec(
        name="cmesh4x3-fairness", mode="fairness", topology=_SECTION7_MESH,
        churn=fairness_churn_spec(_open_tail_sessions(n_events)),
        table_size=32),), seeds=(seed,))


def replay_demo(*, n_events: int = 120, n_slots: int = 1200,
                seed: int = 2009) -> CampaignSpec:
    """``python -m repro replay --demo``: a churn trace replayed on the
    flit-level backend, and one of the same profile on the best-effort
    baseline (a run's id seeds its stream, so the two traces differ)."""
    churn = ChurnSpec(n_sessions=_open_tail_sessions(n_events))
    return CampaignSpec(name="replay_demo", scenarios=tuple(
        ScenarioSpec(name=f"mesh3x3-{backend}-replay", mode="replay",
                     backend=backend, topology=_DEMO_MESH, churn=churn,
                     n_slots=n_slots, table_size=32)
        for backend in ("flit", "be")), seeds=(seed,))


def faults_demo(*, n_events: int = 120, n_slots: int = 1200,
                n_faults: int = 6, seed: int = 2009) -> CampaignSpec:
    """``python -m repro faults --demo``: churn merged with ``n_faults``
    failures paced to land inside the ~20 ms the trace spans, most
    repaired quickly, against its fault-free baseline."""
    return CampaignSpec(name="faults_demo", scenarios=(ScenarioSpec(
        name="mesh3x3-faults", mode="faults", topology=_DEMO_MESH,
        churn=ChurnSpec(n_sessions=_open_tail_sessions(n_events)),
        faults=FaultSpec(n_faults=n_faults, fault_rate_per_s=400.0,
                         mean_repair_s=0.004, router_fraction=0.25),
        n_slots=n_slots, table_size=32),), seeds=(seed,))


def design_demo(*, seed: int = 2009,
                spare_capacity: float = 0.0) -> CampaignSpec:
    """``python -m repro design --demo``: dimension the demo-scale
    Section VII workload over the built-in 18-candidate space.

    ``spare_capacity`` inflates every requirement by that fraction
    (fault-tolerance headroom).
    """
    import dataclasses

    from repro.design.space import demo_space, section7_demo_use_case
    space = dataclasses.replace(demo_space(), spare_capacity=spare_capacity)
    return CampaignSpec(
        name="design_demo",
        scenarios=space.scenarios(section7_demo_use_case(seed)), seeds=(1,))


def _serve_checks(records: list[dict]) -> tuple[list, tuple]:
    result = records[0]["result"]
    invariant = result["invariant"]
    rows = [{"class": name, "opens": stats["opens"],
             "accepted": stats["accepted"], "rejected": stats["rejected"]}
            for name, stats in sorted(result["per_class"].items())]
    return ([(f"composability invariant held across "
              f"{invariant['transitions_checked']} transitions",
              bool(invariant["ok"]), "ISOLATION BUG")],
            (rows, "admission per QoS class"))


def _fairness_checks(records: list[dict]) -> tuple[list, tuple]:
    result = records[0]["result"]
    checks = result["checks"]
    rows = [{"tenant": name,
             "behaved": "yes" if row["well_behaved"] else "ABUSIVE",
             "solo": row["solo_rate"], "wfq": row["wfq_rate"],
             "fcfs": row["fcfs_rate"],
             "wfq_retention": row["wfq_retention"],
             "fcfs_retention": row["fcfs_retention"]}
            for name, row in sorted(result["retention"].items())]
    return ([(f"well-behaved tenants retain >= "
              f"{checks['retention_floor']:.0%} of their solo admission "
              "rate under wfq", bool(checks["wfq_retention_ok"]),
              "FAIRNESS BUG",
              f" (min {checks['min_well_behaved_retention']:.1%})"),
             ("FCFS baseline fails the same bound (the policy earns its "
              "keep)", bool(checks["fcfs_fails"]), "adversary too weak")],
            (rows, "admission retention vs solo baseline"))


def _replay_checks(records: list[dict]) -> tuple[list, tuple]:
    results = {record["backend"]: record["result"] for record in records}
    flit, be = results["flit"], results["be"]
    rows = [{"backend": name, "epochs": result["n_epochs"],
             "survivors": result["n_survivors"],
             "identical": result["identical"],
             "diverged": len(result["diverged"])}
            for name, result in sorted(results.items())]
    return ([("flit (TDM): survivors bit-identical across every epoch",
              bool(flit["composable"]) and flit["n_survivors"] > 0,
              "ISOLATION BUG"),
             ("best-effort baseline diverges under churn of the same "
              "profile", bool(be["diverged"]), "expected divergence missing")],
            (rows, "survivor traces, churn run vs solo reference"))


def _faults_checks(records: list[dict]) -> tuple[list, tuple]:
    result = records[0]["result"]
    composability = result["composability"]
    survival = result["survivability"]
    rows = [{key: survival[key] for key in (
        "admission_retention", "session_survival", "guarantee_retention",
        "n_evicted", "n_reallocated", "n_dropped")}]
    return ([(f"fault survivors bit-identical across "
              f"{composability['n_epochs']} epochs",
              bool(composability["composable"]), "ISOLATION BUG"),
             ("composability invariant held through all faults",
              bool(result["invariant"]["ok"]), "ISOLATION BUG")],
            (rows, "survivability vs the fault-free baseline"))


def _design_checks(records: list[dict]) -> tuple[list, tuple]:
    from repro.design.explorer import pareto_front
    front = pareto_front(records)
    rows = [{"candidate": record["scenario"],
             "mhz": record["result"]["operating_frequency_mhz"],
             "area_mm2": round(record["result"]["area"]["total_um2"] / 1e6,
                               4),
             "slack": record["result"]["guarantee_slack"]}
            for record in front]
    verdicts = []
    # The paper's dimensioning answers the unprovisioned workload; a
    # candidate provisioned with spare capacity carries the fraction.
    if not any("spare_capacity" in record for record in records):
        chosen = front[0] if front else None
        verdicts.append((
            "minimum-area point matches the paper's dimensioning "
            "(2x2 mesh at <= 500 MHz)",
            chosen is not None
            and str(chosen["topology"]).startswith("mesh2x2")
            and chosen["result"]["operating_frequency_mhz"] <= 500.0,
            "SEARCH REGRESSION",
            "" if chosen is None else f" ({chosen['scenario']} at "
            f"{chosen['result']['operating_frequency_mhz']:.0f} MHz)"))
    return verdicts, (rows, "Pareto front (area, frequency, slack)")


#: How each checked demo judges its preset's records (run-id order):
#: ``(verdicts, detail table)``, a verdict being ``(claim, held, failure
#: word[, note])`` and the table ``(rows, title)``.  The claims sit
#: beside the presets, not on the kinds, because they are claims about
#: these scenarios — the best-effort replay diverges under *this* churn,
#: the minimum-area point is the paper's for *this* workload — that
#: other runs of the same kind need not meet.
DEMO_CHECKS: dict[str, Callable[[list[dict]], tuple[list, tuple]]] = {
    "serve_demo": _serve_checks,
    "fairness_demo": _fairness_checks,
    "replay_demo": _replay_checks,
    "faults_demo": _faults_checks,
    "design_demo": _design_checks,
}


#: Registry of the ready-made campaigns, keyed by their function names
#: (what ``python -m repro campaign --preset <name>`` accepts).
PRESETS: dict[str, Callable[[], CampaignSpec]] = {
    "demo_campaign": demo_campaign,
    "micro_campaign": micro_campaign,
    "churn_campaign": churn_campaign,
    "replay_campaign": replay_campaign,
    "design_campaign": design_campaign,
    "fault_campaign": fault_campaign,
    "fairness_campaign": fairness_campaign,
    "synthetic_campaign": synthetic_campaign,
    "serve_demo": serve_demo,
    "fairness_demo": fairness_demo,
    "replay_demo": replay_demo,
    "faults_demo": faults_demo,
    "design_demo": design_demo,
}


def preset_by_name(name: str) -> CampaignSpec:
    """Build a preset campaign; unknown names list what is available."""
    from repro.core.exceptions import ConfigurationError
    key = name if name in PRESETS else f"{name}_campaign"
    if key not in PRESETS:
        raise ConfigurationError(
            f"unknown campaign preset {name!r}; available: "
            f"{', '.join(sorted(PRESETS))}")
    return PRESETS[key]()
