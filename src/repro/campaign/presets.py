"""Ready-made campaign specs: the CLI demo and the CI smoke check.

These are ordinary :class:`~repro.campaign.spec.CampaignSpec` values —
nothing here is privileged.  They double as worked examples of
:func:`~repro.campaign.spec.scenario_grid`.
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
           "fairness_campaign", "synthetic_campaign", "PRESETS",
           "preset_by_name"]


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


def micro_campaign(*, n_slots: int = 400) -> CampaignSpec:
    """A 4-scenario micro-campaign for the tier-2 benchmark smoke check.

    One scenario per backend flavour (flit, cycle-synchronous,
    cycle-mesochronous, best-effort) on one small mesh, one seed — the
    cheapest campaign that still exercises every adapter and the
    parallel pool.
    """
    # One pipeline stage per link so the mesochronous scenario is legal.
    topology = TopologySpec(kind="mesh", cols=2, rows=2, nis_per_router=1,
                            pipeline_stages=1)
    workload = WorkloadSpec(n_channels=4, n_ips=8)
    scenarios = tuple(
        ScenarioSpec(name=name, topology=topology, workload=workload,
                     traffic=TrafficSpec(pattern="cbr"),
                     backend=backend, clocking=clocking,
                     n_slots=n_slots, table_size=16)
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
    epoch); the best-effort scenarios show the same churn destroying
    isolation on the baseline.
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
