"""Tests for the scenario-campaign subsystem.

The load-bearing claim is determinism: a campaign spec plus a seed grid
fully determines the aggregated report, byte for byte, no matter how the
runs are scheduled across processes.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import (CampaignRunner, CampaignSpec, ScenarioSpec,
                            TopologySpec, TrafficSpec, WorkloadSpec,
                            demo_campaign, derive_seed, micro_campaign,
                            scenario_grid)
from repro.campaign.kinds import run_kind
from repro.core.exceptions import ConfigurationError


def _tiny_campaign(seeds=(1, 2)) -> CampaignSpec:
    scenarios = scenario_grid(
        topologies={"mesh2x2": TopologySpec(kind="mesh", cols=2, rows=2)},
        traffic_mixes={"cbr": TrafficSpec(pattern="cbr"),
                       "bernoulli": TrafficSpec(pattern="bernoulli")},
        backends={"flit": ("flit", "synchronous"),
                  "be": ("be", "synchronous")},
        workload=WorkloadSpec(n_channels=4, n_ips=8),
        n_slots=300)
    return CampaignSpec(name="tiny", scenarios=scenarios, seeds=seeds)


class TestSpecs:
    def test_grid_crosses_all_axes(self):
        spec = _tiny_campaign()
        assert len(spec.scenarios) == 1 * 2 * 2
        runs = spec.expand()
        assert len(runs) == 4 * 2
        assert len({r.run_id for r in runs}) == len(runs)

    def test_expansion_order_is_stable(self):
        a = [r.run_id for r in _tiny_campaign().expand()]
        b = [r.run_id for r in _tiny_campaign().expand()]
        assert a == b

    def test_derive_seed_is_stable_and_label_sensitive(self):
        assert derive_seed(7, "a", "b") == derive_seed(7, "a", "b")
        assert derive_seed(7, "a", "b") != derive_seed(7, "a", "c")
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_workload_deterministic_per_seed(self):
        workload = WorkloadSpec(n_channels=5, n_ips=8)
        topo = TopologySpec(kind="mesh", cols=2, rows=2).build()
        first, _ = workload.build(topo, seed=99)
        second, _ = workload.build(topo, seed=99)
        assert [c.name for c in first.channels] == \
            [c.name for c in second.channels]
        assert [c.throughput_bytes_per_s for c in first.channels] == \
            [c.throughput_bytes_per_s for c in second.channels]
        third, _ = workload.build(topo, seed=100)
        assert [c.throughput_bytes_per_s for c in first.channels] != \
            [c.throughput_bytes_per_s for c in third.channels]

    def test_single_ni_topology_rejected_not_hung(self):
        """All IPs on one NI must error out, not spin forever."""
        workload = WorkloadSpec(n_channels=2, n_ips=4)
        topo = TopologySpec(kind="single", nis_per_router=1).build()
        with pytest.raises(ConfigurationError):
            workload.build(topo, seed=1)

    def test_traffic_matches_section7_builders(self):
        """The rate-driven mixes delegate to the canonical builders."""
        from repro.usecase.runner import burst_traffic, cbr_traffic
        run = _tiny_campaign(seeds=(1,)).expand()[0]
        scenario = run.scenario
        topo = scenario.topology.build()
        use_case, mapping = scenario.workload.build(topo, 42)
        from repro.core.configuration import configure
        config = configure(topo, use_case,
                           table_size=scenario.table_size,
                           frequency_hz=500e6, mapping=mapping,
                           require_met=False)
        built = TrafficSpec(pattern="cbr").build(config, 0)
        reference = cbr_traffic(config)
        assert {n: p.interval_cycles for n, p in built.items()} == \
            {n: p.interval_cycles for n, p in reference.items()}
        built = TrafficSpec(pattern="burst").build(config, 0)
        reference = burst_traffic(config)
        assert {n: p.period_cycles for n, p in built.items()} == \
            {n: p.period_cycles for n, p in reference.items()}

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologySpec(kind="klein_bottle")
        with pytest.raises(ConfigurationError):
            TrafficSpec(pattern="telepathy")
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="s", n_slots=0)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="s", backend="flitt")
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="s", backend="cycle", clocking="psychic")
        with pytest.raises(ConfigurationError):
            CampaignSpec(name="c", scenarios=())
        with pytest.raises(ConfigurationError):
            CampaignSpec(
                name="c",
                scenarios=(ScenarioSpec(name="dup"),
                           ScenarioSpec(name="dup")))
        with pytest.raises(ConfigurationError):
            CampaignRunner(_tiny_campaign(), workers=0)


class TestExecution:
    def test_single_run_record_shape(self):
        run = _tiny_campaign(seeds=(3,)).expand()[0]
        record = run_kind(run)
        assert record["status"] == "ok"
        assert record["run_id"] == run.run_id
        result = record["result"]
        assert result["messages_delivered"] > 0
        assert result["latency_ns"]["max"] >= result["latency_ns"]["p99"]
        json.dumps(record)  # JSON-serialisable throughout

    def test_serial_and_parallel_reports_byte_identical(self):
        spec = _tiny_campaign()
        serial = CampaignRunner(spec, workers=1).run()
        parallel = CampaignRunner(spec, workers=2).run()
        assert serial.n_runs == parallel.n_runs == 8
        assert serial.n_failed == parallel.n_failed == 0
        assert serial.to_json() == parallel.to_json()

    def test_repeated_runs_byte_identical(self):
        spec = _tiny_campaign(seeds=(5,))
        first = CampaignRunner(spec, workers=1).run()
        second = CampaignRunner(spec, workers=1).run()
        assert first.to_json() == second.to_json()

    def test_different_seeds_change_results(self):
        runs = _tiny_campaign(seeds=(1, 2)).expand()
        flit_runs = [r for r in runs if r.scenario.backend == "flit"
                     and "cbr" in r.scenario.name]
        records = [run_kind(r) for r in flit_runs[:2]]
        assert records[0]["result"] != records[1]["result"]

    def test_summary_rows_render(self):
        from repro.experiments.report import format_table
        result = CampaignRunner(_tiny_campaign(seeds=(1,)),
                                workers=1).run()
        rows = result.summary_rows()
        assert len(rows) == 4
        table = format_table(rows, title="campaign")
        assert "p99_ns" in table

    def test_infeasible_scenario_is_a_record_not_a_crash(self):
        # A saturating workload far beyond capacity on a tiny table.
        spec = CampaignSpec(
            name="infeasible",
            scenarios=(ScenarioSpec(
                name="hot", topology=TopologySpec(kind="mesh", cols=2,
                                                  rows=2),
                workload=WorkloadSpec(n_channels=24, n_ips=8,
                                      min_throughput_mb_s=300.0,
                                      max_throughput_mb_s=500.0),
                traffic=TrafficSpec(pattern="cbr"),
                n_slots=100, table_size=4),),
            seeds=(1,))
        result = CampaignRunner(spec, workers=1).run()
        assert result.n_runs == 1
        record = result.records[0]
        assert record["status"] == "allocation_failed"
        assert "error" in record


class TestPresets:
    def test_demo_campaign_shape(self):
        spec = demo_campaign()
        # 8 simulate + 1 serve + 1 replay + 1 faults
        assert len(spec.scenarios) == 11
        assert len(spec.expand()) == 22
        modes = {s.mode for s in spec.scenarios}
        assert modes == {"simulate", "serve", "replay", "faults"}

    def test_micro_campaign_runs_clean(self):
        result = CampaignRunner(micro_campaign(), workers=1).run()
        assert result.n_runs == 4
        assert result.n_failed == 0


class TestReplayMode:
    def _replay_scenario(self, backend="flit"):
        from repro.service.churn import ChurnSpec
        return ScenarioSpec(
            name=f"replay-{backend}", mode="replay", backend=backend,
            topology=TopologySpec(kind="mesh", cols=3, rows=3,
                                  nis_per_router=2),
            churn=ChurnSpec(n_sessions=50), n_slots=800, table_size=16)

    def test_replay_rejects_cycle_backend(self):
        with pytest.raises(ConfigurationError):
            self._replay_scenario(backend="cycle")

    def test_churn_spec_rejected_for_simulate(self):
        from repro.service.churn import ChurnSpec
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="s", mode="simulate",
                         churn=ChurnSpec(n_sessions=10))

    def test_flit_replay_record_is_composable(self):
        spec = CampaignSpec(name="replay",
                            scenarios=(self._replay_scenario(),),
                            seeds=(1,))
        record = run_kind(spec.expand()[0])
        assert record["status"] == "ok"
        result = record["result"]
        assert result["composable"] is True
        assert result["diverged"] == []
        assert result["n_epochs"] >= 3
        assert result["n_survivors"] >= 1
        json.dumps(record)

    def test_replay_runs_deterministic(self):
        spec = CampaignSpec(name="replay",
                            scenarios=(self._replay_scenario("be"),),
                            seeds=(2,))
        first = CampaignRunner(spec, workers=1).run()
        second = CampaignRunner(spec, workers=1).run()
        assert first.to_json() == second.to_json()
        assert first.records[0]["status"] == "ok"

    def test_replay_summary_rows_render(self):
        from repro.experiments.report import format_table
        spec = CampaignSpec(name="replay",
                            scenarios=(self._replay_scenario(),),
                            seeds=(1,))
        result = CampaignRunner(spec, workers=1).run()
        rows = result.summary_rows()
        assert rows[0]["status"].endswith("composable")
        format_table(rows, title="replay")
