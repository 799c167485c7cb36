"""Scenario campaigns: declarative sweep specs and a sharded runner.

The campaign subsystem turns the unified
:class:`~repro.simulation.backend.SimulationBackend` protocol into a
batch engine: describe a grid of scenarios (topology × workload ×
traffic mix × backend/clocking × seeds) as plain data, then execute it
serially or across worker processes with byte-identical aggregated
results either way.  The grid is partitioned into deterministic shards
(:func:`shard_campaign`); give the runner a workdir and completed runs
checkpoint into per-shard journals (:class:`CampaignWorkdir`), so a
killed campaign resumes where it stopped — and still produces the
byte-identical report.
"""

from repro.campaign.fabric import (CampaignWorkdir, Shard,
                                   default_shard_size, shard_campaign,
                                   spec_fingerprint)
from repro.campaign.kinds import campaign_conformance
from repro.campaign.presets import (PRESETS, churn_campaign, demo_campaign,
                                    design_campaign, fault_campaign,
                                    micro_campaign, preset_by_name,
                                    replay_campaign, synthetic_campaign)
from repro.campaign.runner import CampaignResult, CampaignRunner
from repro.campaign.spec import (CampaignSpec, RunSpec, ScenarioSpec,
                                 SyntheticSpec, TopologySpec, TrafficSpec,
                                 WorkloadSpec, derive_seed, scenario_grid)

__all__ = [
    "TopologySpec", "WorkloadSpec", "TrafficSpec", "SyntheticSpec",
    "ScenarioSpec", "RunSpec", "CampaignSpec", "scenario_grid",
    "derive_seed",
    "CampaignRunner", "CampaignResult",
    "campaign_conformance",
    "Shard", "shard_campaign", "default_shard_size", "spec_fingerprint",
    "CampaignWorkdir",
    "demo_campaign", "micro_campaign", "churn_campaign",
    "replay_campaign", "design_campaign", "fault_campaign",
    "synthetic_campaign",
    "PRESETS", "preset_by_name",
]
