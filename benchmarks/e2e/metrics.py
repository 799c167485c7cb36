"""What ``BENCHMARK.json`` cannot say about its own metrics.

``BENCHMARK.json`` (repo root) is the single source for every metric's
name, unit and direction, and for the bounds of the end-to-end metrics
that every workload reports.  Its schema has no room for three things
the benchmark needs, so they live here:

* :data:`WORKLOAD_METRICS` — the end-to-end metrics that only some
  workloads can report (a Section VII run has no session events).  The
  manifest requires every ``end_to_end`` metric from every workload and
  never 0, so these are declared under ``per_layer`` there and keep
  their bound and their workload list here; ``--compare`` applies them
  exactly like the manifest's own bounds.
* :data:`EXACT` — simulated counts and ratios that must repeat exactly
  between two runs of the same seed.
* :data:`MOVES` — which end-to-end metric each layer should move, on
  which workload (the prediction a later optimisation is held to).
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = ROOT / "BENCHMARK.json"

CHURN = ("churn_warm", "churn_varied", "pipeline")

#: name -> (bound, workloads that report it).
WORKLOAD_METRICS: dict[str, tuple[float, tuple[str, ...]]] = {
    "session_events_per_s": (0.10, CHURN),
    "admit_p99_us": (0.15, CHURN),
    "sim_slots_per_s": (0.10, ("pipeline", "sec7_static")),
    "campaign_runs_per_s": (0.10, ("campaign_grid",)),
    "failure_share": (0.0, CHURN + ("sec7_static", "campaign_grid")),
}

#: Deterministic per-seed numbers: ``--compare`` demands equality.
#: (``campaign.runner.batches`` / ``steals`` depend on worker timing and
#: are deliberately absent.)
EXACT = frozenset({
    "failure_share",
    "service.churn.events", "faults.model.events",
    "service.fairness.decisions", "service.fairness.shed",
    "service.fairness.shed_ratio",
    "service.admission.admits", "service.admission.rejects",
    "service.admission.releases", "service.admission.accept_ratio",
    "service.admission.cache_hit_ratio",
    "core.allocation.route_quotes_calls", "core.allocation.channels",
    "service.invariants.checks", "service.invariants.peak_active",
    "service.metrics.report_bytes",
    "core.timeline.transitions", "core.timeline.epochs",
    "simulation.backend.flit_runs", "simulation.backend.sim_slots",
    "simulation.composability.survivors",
    "simulation.composability.identical_ratio",
    "telemetry.monitor.channels_monitored", "telemetry.monitor.violated",
    "baseline.be_network.ticks",
    "campaign.runner.grid_runs", "campaign.runner.peak_resident_records",
    "campaign.runner.failed_runs", "design.explorer.candidates",
})

#: layer prefix -> the end-to-end metric it should move, and where.
MOVES: dict[str, str] = {
    "service.churn": "setup_s on churn_warm, churn_varied, pipeline",
    "faults.model": "setup_s on pipeline",
    "service.controller": "session_events_per_s and wall_s on churn_warm; "
                          "cold_run_s moves setup_s on churn_warm",
    "service.fairness": "session_events_per_s on pipeline only "
                        "(0 calls on the FCFS workloads)",
    "service.admission": "admit_p99_us and session_events_per_s on "
                         "churn_warm (hit path) and churn_varied (miss "
                         "path); small share on pipeline",
    "core.allocation": "route_quotes_s moves wall_s on churn_varied and "
                       "setup_s on churn_warm; configure_s moves wall_s on "
                       "sec7_static",
    "service.invariants": "session_events_per_s on churn_warm (O(active) "
                          "per event); less on pipeline",
    "service.metrics": "wall_s on the churn workloads (a share above 10% "
                       "is itself a finding)",
    "core.timeline": "wall_s on pipeline",
    "simulation.backend": "sim_slots_per_s on pipeline (many short epochs) "
                          "and sec7_static (one long epoch)",
    "simulation.composability": "wall_s on pipeline and sec7_static",
    "telemetry.monitor": "wall_s on sec7_static (static_conformance_s) and "
                         "pipeline (rollup_s); nothing on churn workloads",
    "baseline.be_network": "wall_s on sec7_static only",
    "campaign.runner": "campaign_runs_per_s on campaign_grid (synthetic_* "
                       "isolates dispatch, grid_s the mode executors)",
    "design.explorer": "wall_s on campaign_grid",
    "bench": "none: these qualify the other numbers",
}


def load_manifest() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def declared(manifest: dict) -> dict[str, dict]:
    """Every declared metric by name (``end_to_end`` and ``per_layer``)."""
    return {entry["name"]: entry
            for section in ("end_to_end", "per_layer")
            for entry in manifest[section]}


def bound_of(name: str, manifest: dict) -> float | None:
    """The regression bound of ``name``, or ``None`` if it has none."""
    for entry in manifest["end_to_end"]:
        if entry["name"] == name:
            return float(entry["bound"])
    if name in WORKLOAD_METRICS:
        return WORKLOAD_METRICS[name][0]
    return None
