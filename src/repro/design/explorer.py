"""The parallel multi-objective design-space explorer.

Closes the loop from workload to network: enumerate a
:class:`~repro.design.space.DesignSpace`, reject provably infeasible
candidates with the analytical bounds of :mod:`repro.design.prune`
*before* any allocation runs, improve each survivor's mapping with the
seeded annealer of :mod:`repro.design.mapping_opt`, bisect for its
minimum feasible operating frequency (floor-tightened by the same
bounds; the winning probe's allocation is the one priced), and price it
with the synthesis models — then return the byte-deterministic Pareto
front over silicon area, operating frequency and worst-case guarantee
slack.

Candidate evaluation is one campaign run (``mode="design"``), so the
fan-out, process pooling, record ordering and byte-determinism of
:class:`~repro.campaign.runner.CampaignRunner` are inherited rather
than reimplemented.
"""

from __future__ import annotations

from repro.campaign.spec import RunSpec, TopologySpec, derive_seed
from repro.core.exceptions import (AllocationError, ConfigurationError,
                                   TopologyError)
from repro.core.requirements import link_payload_bytes_per_s
from repro.core.words import WordFormat
from repro.design.mapping_opt import optimize_mapping
from repro.design.prune import frequency_lower_bound_hz, prune_candidate
from repro.design.search import (configuration_area,
                                 min_feasible_configuration)
from repro.design.space import DesignSpec, provisioned_use_case
from repro.synthesis.network import network_fmax_hz
from repro.topology.graph import Topology
from repro.topology.mapping import (Mapping, communication_clustered,
                                    hop_weighted_demand, round_robin,
                                    router_distances, traffic_balanced)

__all__ = ["evaluate_candidate", "execute_design_run", "pareto_front"]


#: The one-shot mapping heuristics by strategy name.
_HEURISTICS = {
    "traffic_balanced": lambda use_case, topology: traffic_balanced(
        use_case.ips, use_case.channels, topology),
    "communication_clustered": lambda use_case, topology:
        communication_clustered(use_case.ips, use_case.channels, topology),
    "round_robin": lambda use_case, topology: round_robin(
        use_case.ips, topology),
}


def _mapping_portfolio(strategy: str, topology: Topology, use_case,
                       seed: int, link_budget: float, table_size: int,
                       ceiling_hz: float, fmt: WordFormat
                       ) -> list[tuple[str, Mapping, float]]:
    """Mappings to try for one candidate, best bet first.

    The annealed mapping minimises the analytical cost, but the greedy
    allocator is not that cost — so for ``"optimized"`` the plain
    heuristics ride along as fallbacks and a candidate is only declared
    infeasible when *every* portfolio entry fails.  Entries are
    ``(label, mapping, optimizer_improvement)``; construction failures
    of individual heuristics (e.g. capacity) just drop the entry.
    ``use_case`` is the (possibly spare-capacity-provisioned) workload
    the candidate is evaluated against.
    """
    if strategy != "optimized":
        return [(strategy, _HEURISTICS[strategy](use_case, topology), 0.0)]
    # Build each heuristic once: they seed the annealer *and* ride
    # along as fallback portfolio entries.
    heuristics: list[tuple[str, Mapping]] = []
    for label in ("traffic_balanced", "communication_clustered"):
        try:
            heuristics.append(
                (label, _HEURISTICS[label](use_case, topology)))
        except (ConfigurationError, TopologyError):
            continue
    result = optimize_mapping(topology, use_case, seed=seed,
                              warm_starts=[m for _, m in heuristics]
                              or None,
                              link_budget_bytes_per_s=link_budget,
                              table_size=table_size,
                              frequency_hz=ceiling_hz, fmt=fmt)
    portfolio = [("optimized", result.mapping, result.improvement)]
    for label, mapping in heuristics:
        if all(mapping.ip_to_ni != m.ip_to_ni for _, m, _ in portfolio):
            portfolio.append((label, mapping, 0.0))
    return portfolio


def evaluate_candidate(topology_spec: TopologySpec, design: DesignSpec,
                       table_size: int, *, seed: int) -> dict[str, object]:
    """Evaluate one candidate into its JSON-ready result record.

    The record's ``status`` distinguishes how far the candidate got:
    ``pruned`` (analytical lower bound fired — no allocation was ever
    attempted), ``infeasible`` (the allocator failed even at the
    frequency ceiling), ``configuration_failed`` (the candidate cannot
    host the workload at all), or ``ok`` with the full dimensioning.
    """
    record: dict[str, object] = {
        "topology": topology_spec.label,
        "table_size": table_size,
        "data_width": design.data_width,
        "mapping": design.mapping,
    }
    if design.spare_capacity:
        record["spare_capacity"] = design.spare_capacity
    fmt = WordFormat(data_width=design.data_width)
    use_case = provisioned_use_case(design.use_case,
                                    design.spare_capacity)
    try:
        topology = topology_spec.build()
        fmax_hz = network_fmax_hz(topology, fmt)
        ceiling_hz = min(design.max_frequency_mhz * 1e6, fmax_hz)
        search_floor_hz = design.min_frequency_mhz * 1e6
        if ceiling_hz <= search_floor_hz:
            record["status"] = "infeasible"
            record["error"] = (
                f"achievable ceiling {ceiling_hz / 1e6:.0f} MHz is below "
                f"the search floor {search_floor_hz / 1e6:.0f} MHz")
            return record
        portfolio = _mapping_portfolio(
            design.mapping, topology, use_case, seed,
            link_payload_bytes_per_s(ceiling_hz, fmt), table_size,
            ceiling_hz, fmt)
    except (ConfigurationError, TopologyError) as exc:
        record["status"] = "configuration_failed"
        record["error"] = str(exc)
        return record

    chosen = None
    first_prune = None
    last_error: str | None = None
    all_pruned = True
    distances = router_distances(topology)
    for label, mapping, improvement in portfolio:
        mapping.validate(topology)
        low_hz = search_floor_hz
        if design.prune:
            verdict = prune_candidate(topology, use_case, mapping,
                                      table_size=table_size,
                                      frequency_hz=ceiling_hz, fmt=fmt,
                                      distances=distances)
            if first_prune is None:
                first_prune = verdict
            if not verdict.feasible_possible:
                last_error = verdict.reasons[0]
                continue
            low_hz = max(low_hz, frequency_lower_bound_hz(
                topology, use_case, mapping, fmt=fmt))
            low_hz = min(low_hz, ceiling_hz * 0.999)
        all_pruned = False
        try:
            config = min_feasible_configuration(
                topology, use_case, mapping, table_size=table_size,
                fmt=fmt, low_hz=low_hz, high_hz=ceiling_hz,
                tolerance_hz=design.tolerance_mhz * 1e6)
        except (AllocationError, ConfigurationError, TopologyError) as exc:
            last_error = str(exc)
            continue
        chosen = (label, mapping, improvement, config.frequency_hz,
                  config, low_hz)
        break
    if chosen is None:
        if design.prune and all_pruned and first_prune is not None:
            record["status"] = "pruned"
            record["prune"] = first_prune.to_record()
        else:
            record["status"] = "infeasible"
            record["error"] = last_error or "empty mapping portfolio"
        return record
    mapping_used, mapping, improvement, frequency_hz, config, low_hz = \
        chosen
    record["mapping_used"] = mapping_used
    bounds = config.bounds()
    # Worst relative margin over every requirement; no cap — a 3x
    # overprovisioned candidate must out-rank a 1.5x one on the slack
    # objective.  None when the workload carries no finite requirement.
    slack = float("inf")
    latency_slack_ns: float | None = None
    throughput_slack = float("inf")
    for b in bounds.values():
        throughput_slack = min(throughput_slack, b.throughput_slack)
        if b.required_throughput_bytes_per_s > 0:
            slack = min(slack, b.throughput_slack /
                        b.required_throughput_bytes_per_s)
        if b.required_latency_ns is not None:
            latency_slack_ns = (b.latency_slack_ns
                                if latency_slack_ns is None
                                else min(latency_slack_ns,
                                         b.latency_slack_ns))
            slack = min(slack, b.latency_slack_ns / b.required_latency_ns)
    record["status"] = "ok"
    record["result"] = {
        "operating_frequency_mhz": round(frequency_hz / 1e6, 3),
        "fmax_mhz": round(fmax_hz / 1e6, 1),
        "frequency_floor_mhz": round(low_hz / 1e6, 3),
        "area": configuration_area(config).to_record(),
        "n_channels": len(bounds),
        "n_routers": len(topology.routers),
        "n_nis": len(topology.nis),
        "worst_latency_slack_ns": (None if latency_slack_ns is None
                                   else round(latency_slack_ns, 2)),
        "worst_throughput_slack_mb_s": round(throughput_slack / 1e6, 3),
        "guarantee_slack": (round(slack, 6) if slack != float("inf")
                            else None),
        "mean_link_utilisation": round(
            config.allocation.mean_link_utilisation(), 6),
        "hop_weighted_demand_mbhops": round(hop_weighted_demand(
            topology, mapping, use_case.channels,
            distances=distances) / 1e6, 3),
        "mapping_improvement": round(improvement, 6),
    }
    return record


def execute_design_run(run: RunSpec) -> dict[str, object]:
    """The ``design`` scenario kind's run body: one candidate's fields.

    Every feasibility probe is a fresh ``configure()`` — nothing is
    shared between runs, which is what keeps a repeated run
    byte-identical — and the allocation priced is the winning probe's
    own (:func:`~repro.design.search.min_feasible_configuration`).
    """
    scenario = run.scenario
    return evaluate_candidate(
        scenario.topology, scenario.design, scenario.table_size,
        seed=derive_seed(run.run_seed, "design", run.seed))


def pareto_front(records: list[dict[str, object]]
                 ) -> list[dict[str, object]]:
    """Non-dominated subset of ``status="ok"`` candidate records.

    Objectives: minimise total silicon area, minimise operating
    frequency, maximise the worst-case guarantee slack.  The front is
    sorted by (area, frequency, topology label, table size) so its JSON
    form is stable.
    """
    ok = [r for r in records if r.get("status") == "ok"]

    def key(r: dict[str, object]) -> tuple[float, float, float]:
        result = r["result"]
        slack = result["guarantee_slack"]  # None = no finite requirement
        return (result["area"]["total_um2"],
                result["operating_frequency_mhz"],
                -slack if slack is not None else -float("inf"))

    def dominates(a: tuple[float, float, float],
                  b: tuple[float, float, float]) -> bool:
        return all(x <= y for x, y in zip(a, b)) and a != b

    keyed = [(key(r), r) for r in ok]
    front = [r for k, r in keyed
             if not any(dominates(other, k) for other, _ in keyed)]
    front.sort(key=lambda r: (r["result"]["area"]["total_um2"],
                              r["result"]["operating_frequency_mhz"],
                              str(r["topology"]), r["table_size"]))
    return front
