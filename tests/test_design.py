"""Tests for the ``repro.design`` design-space explorer subsystem.

Covers the analytical pruning bounds (soundness: a pruned candidate is
really infeasible), the mapping optimizer (deterministic, never worse
than its warm start, repairs co-location), the one candidate ->
scenario expansion (``DesignSpace.scenarios``), the campaign integration
(``mode="design"`` runs are byte-deterministic across process pools),
the Pareto front arithmetic, and the demo's acceptance claim — the
minimum-area feasible point for the Section VII demo workload is the
paper's 2x2 mesh at or below 500 MHz.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, ScenarioSpec
from repro.campaign.kinds import run_kind
from repro.campaign.spec import TopologySpec
from repro.core.application import Application, UseCase
from repro.core.configuration import configure
from repro.core.connection import MB, ChannelSpec
from repro.core.exceptions import AllocationError, ConfigurationError
from repro.core.words import WordFormat
from repro.design import (Candidate, DesignExplorer, DesignSpace,
                          DesignSpec, evaluate_candidate,
                          frequency_lower_bound_hz,
                          min_feasible_configuration, optimize_mapping,
                          pareto_front, prune_candidate,
                          section7_demo_use_case, workload_from_churn)
from repro.design.search import configuration_area
from repro.service.churn import ChurnSpec
from repro.topology.builders import mesh
from repro.topology.mapping import round_robin


def _small_use_case(scale: float = 1.0) -> UseCase:
    """Four IPs in a ring of channels: round_robin keeps endpoints on
    distinct NIs on every topology with >= 4 NIs."""
    channels = (
        ChannelSpec("c0", "ip0", "ip1", 40 * MB * scale,
                    max_latency_ns=400.0, application="app"),
        ChannelSpec("c1", "ip1", "ip2", 25 * MB * scale,
                    application="app"),
        ChannelSpec("c2", "ip2", "ip3", 30 * MB * scale,
                    max_latency_ns=500.0, application="app"),
        ChannelSpec("c3", "ip3", "ip0", 20 * MB * scale,
                    application="app"),
    )
    return UseCase("small", (Application("app", channels),))


class TestDesignSpace:
    def test_candidates_cross_product_and_order(self):
        space = DesignSpace(
            topologies=(TopologySpec(kind="mesh", cols=2, rows=2),
                        TopologySpec(kind="ring", cols=4)),
            table_sizes=(8, 16), data_widths=(32,),
            mappings=("optimized", "round_robin"))
        candidates = space.candidates()
        assert len(candidates) == 2 * 2 * 1 * 2
        assert [c.label for c in candidates] == \
            sorted(c.label for c in candidates)
        assert candidates == space.candidates()

    def test_invalid_spaces_rejected(self):
        with pytest.raises(ConfigurationError):
            DesignSpace(topologies=())
        with pytest.raises(ConfigurationError):
            DesignSpace(topologies=(TopologySpec(),), table_sizes=(1,))
        with pytest.raises(ConfigurationError):
            DesignSpace(topologies=(TopologySpec(),),
                        mappings=("telepathic",))

    def test_design_spec_validation(self):
        with pytest.raises(ConfigurationError):
            DesignSpec(use_case=UseCase("empty", ()))
        with pytest.raises(ConfigurationError):
            DesignSpec(use_case=_small_use_case(), mapping="bogus")
        with pytest.raises(ConfigurationError):
            DesignSpec(use_case=_small_use_case(),
                       min_frequency_mhz=800.0, max_frequency_mhz=500.0)

    def test_scenario_design_mode_validation(self):
        from repro.service.churn import ChurnSpec
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="d", mode="design")  # missing DesignSpec
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="d", mode="simulate",
                         design=DesignSpec(use_case=_small_use_case()))
        with pytest.raises(ConfigurationError):
            # Design workloads come from the DesignSpec, never churn.
            ScenarioSpec(name="d", mode="design", churn=ChurnSpec(),
                         design=DesignSpec(use_case=_small_use_case()))


class TestChurnWorkload:
    def test_littles_law_concurrency(self):
        churn = ChurnSpec(n_sessions=100, arrival_rate_per_s=1000.0,
                          mean_duration_s=0.02)
        use_case = workload_from_churn(churn, seed=7)
        assert len(use_case.channels) == 20  # 1000/s x 0.02 s
        half = workload_from_churn(churn, target_admission_rate=0.5,
                                   seed=7)
        assert len(half.channels) == 10

    def test_deterministic_and_class_grouped(self):
        churn = ChurnSpec(n_sessions=100, arrival_rate_per_s=2000.0)
        a = workload_from_churn(churn, seed=3)
        b = workload_from_churn(churn, seed=3)
        assert [c.name for c in a.channels] == [c.name for c in b.channels]
        class_names = {cls.name for cls in churn.classes}
        for app in a.applications:
            assert app.name in class_names
        c = workload_from_churn(churn, seed=4)
        assert [ch.src_ip for ch in a.channels] != \
            [ch.src_ip for ch in c.channels]

    def test_bad_admission_rate(self):
        with pytest.raises(ConfigurationError):
            workload_from_churn(ChurnSpec(), target_admission_rate=0.0)


class TestPruneSoundness:
    def test_oversubscribed_ni_is_pruned_and_really_infeasible(self):
        topo = mesh(2, 2, nis_per_router=2)
        # 6 channels fan out of one hub NI at rates no 16-slot table
        # carries at 200 MHz.
        channels = tuple(
            ChannelSpec(f"f{i}", "hub", f"leaf{i}", 120 * MB,
                        application="fan")
            for i in range(6))
        use_case = UseCase("fan", (Application("fan", channels),))
        mapping = round_robin(list(use_case.ips), topo)
        ceiling = 200e6
        verdict = prune_candidate(topo, use_case, mapping,
                                  table_size=16, frequency_hz=ceiling)
        assert not verdict.feasible_possible
        assert verdict.reasons
        with pytest.raises(AllocationError):
            configure(topo, use_case, table_size=16,
                      frequency_hz=ceiling, mapping=mapping)

    def test_feasible_candidate_not_pruned(self):
        topo = mesh(2, 2, nis_per_router=2)
        use_case = _small_use_case()
        mapping = round_robin(list(use_case.ips), topo)
        verdict = prune_candidate(topo, use_case, mapping,
                                  table_size=16, frequency_hz=500e6)
        assert verdict.feasible_possible
        assert verdict.checks > 0
        configure(topo, use_case, table_size=16, frequency_hz=500e6,
                  mapping=mapping)  # must not raise

    def test_latency_floor_fires(self):
        topo = mesh(4, 1, nis_per_router=1)
        channels = (ChannelSpec("far", "ip0", "ip3", 1 * MB,
                                max_latency_ns=20.0, application="a"),)
        use_case = UseCase("tight", (Application("a", channels),))
        mapping = round_robin(["ip0", "ip1", "ip2", "ip3"], topo)
        verdict = prune_candidate(topo, use_case, mapping,
                                  table_size=8, frequency_hz=500e6)
        assert not verdict.feasible_possible
        assert any("latency floor" in reason
                   for reason in verdict.reasons)

    def test_frequency_lower_bound_is_sound(self):
        topo = mesh(2, 2, nis_per_router=1)
        use_case = _small_use_case(scale=2.0)
        mapping = round_robin(list(use_case.ips), topo)
        floor = frequency_lower_bound_hz(topo, use_case, mapping)
        assert floor > 0
        found = min_feasible_configuration(topo, use_case, mapping,
                                           table_size=16, low_hz=50e6,
                                           high_hz=2e9).frequency_hz
        assert found >= floor * (1 - 1e-9)


class TestMappingOptimizer:
    def test_deterministic_and_no_worse_than_warm_start(self):
        topo = mesh(3, 2, nis_per_router=2)
        use_case = section7_demo_use_case()
        first = optimize_mapping(topo, use_case, seed=11)
        second = optimize_mapping(topo, use_case, seed=11)
        assert first.mapping.ip_to_ni == second.mapping.ip_to_ni
        assert first.final_cost <= first.start_cost + 1e-6
        assert first.colocated_channels == 0
        first.mapping.validate(topo)
        other = optimize_mapping(topo, use_case, seed=12)
        assert other.final_cost <= other.start_cost + 1e-6


class TestEvaluateCandidate:
    def test_ok_record_shape(self):
        design = DesignSpec(use_case=_small_use_case(),
                            max_frequency_mhz=800.0)
        record = evaluate_candidate(
            TopologySpec(kind="mesh", cols=2, rows=2, nis_per_router=2),
            design, 16, seed=1)
        assert record["status"] == "ok"
        result = record["result"]
        assert result["operating_frequency_mhz"] <= 800.0
        assert result["area"]["total_um2"] > 0
        assert result["n_channels"] == 4
        json.dumps(record)

    def test_wider_words_cost_more_silicon(self):
        records = [
            evaluate_candidate(
                TopologySpec(kind="mesh", cols=2, rows=2,
                             nis_per_router=2),
                DesignSpec(use_case=_small_use_case(), data_width=width,
                           max_frequency_mhz=800.0),
                16, seed=1)
            for width in (32, 64)]
        assert all(r["status"] == "ok" for r in records)
        assert records[1]["result"]["area"]["total_um2"] > \
            records[0]["result"]["area"]["total_um2"]

    def test_hopeless_candidate_is_pruned(self):
        design = DesignSpec(use_case=_small_use_case(scale=100.0),
                            max_frequency_mhz=300.0)
        record = evaluate_candidate(
            TopologySpec(kind="mesh", cols=2, rows=2, nis_per_router=1),
            design, 8, seed=1)
        assert record["status"] == "pruned"
        assert record["prune"]["reasons"]
        json.dumps(record)

    def test_pruning_never_changes_the_verdict(self):
        """prune=True may only skip work, not flip feasibility."""
        for scale in (1.0, 30.0):
            use_case = _small_use_case(scale=scale)
            records = [
                evaluate_candidate(
                    TopologySpec(kind="mesh", cols=2, rows=2,
                                 nis_per_router=2),
                    DesignSpec(use_case=use_case, prune=prune,
                               max_frequency_mhz=600.0),
                    16, seed=1)
                for prune in (True, False)]
            feasible = [r["status"] == "ok" for r in records]
            assert feasible[0] == feasible[1]


class TestCampaignIntegration:
    def _spec(self) -> CampaignSpec:
        design = DesignSpec(use_case=_small_use_case(),
                            max_frequency_mhz=800.0)
        scenarios = tuple(
            ScenarioSpec(name=f"m{cols}x2-t{size}", mode="design",
                         topology=TopologySpec(kind="mesh", cols=cols,
                                               rows=2, nis_per_router=2),
                         table_size=size, design=design)
            for cols in (2, 3) for size in (8, 16))
        return CampaignSpec(name="design-tiny", scenarios=scenarios,
                            seeds=(1,))

    def test_execute_run_dispatches_design_mode(self):
        record = run_kind(self._spec().expand()[0])
        assert record["mode"] == "design"
        assert record["status"] in ("ok", "pruned", "infeasible")
        json.dumps(record)

    def test_serial_and_parallel_byte_identical(self):
        spec = self._spec()
        serial = CampaignRunner(spec, workers=1).run()
        parallel = CampaignRunner(spec, workers=2).run()
        assert serial.to_json() == parallel.to_json()
        assert serial.n_runs == 4

    def test_summary_rows_render(self):
        from repro.experiments.report import format_table
        result = CampaignRunner(self._spec(), workers=1).run()
        rows = result.summary_rows()
        table = format_table(rows, title="design")
        assert "area_mm2" in table

    def test_design_campaign_preset(self):
        from repro.campaign import design_campaign, preset_by_name
        spec = design_campaign()
        assert all(s.mode == "design" for s in spec.scenarios)
        assert len(spec.scenarios) == 10
        assert preset_by_name("design").name == "design"
        assert preset_by_name("design_campaign").name == "design"
        with pytest.raises(ConfigurationError) as excinfo:
            preset_by_name("nope")
        assert "design_campaign" in str(excinfo.value)

    def test_design_campaign_scenarios_are_the_parents(self):
        """The preset expands to the scenarios it did before
        ``DesignSpace.scenarios`` replaced its hand-kept loop: the
        digest is of ``repr`` of every scenario at the commit before,
        less the ``optimizer=OptimizerSpec(...)`` field deleted with it.
        """
        from repro.campaign import design_campaign
        text = "\n".join(repr(s) for s in design_campaign().scenarios)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "7230104938a96fb8171a770cd852c700"
            "b396d3529453870c81bf3ab3fa7ff01d")


class TestParetoFront:
    @staticmethod
    def _record(run_id, area, mhz, slack):
        return {"run_id": run_id, "status": "ok", "topology": run_id,
                "table_size": 16,
                "result": {"area": {"total_um2": area},
                           "operating_frequency_mhz": mhz,
                           "guarantee_slack": slack}}

    def test_dominated_points_removed(self):
        a = self._record("a", 100.0, 400.0, 0.5)
        b = self._record("b", 120.0, 450.0, 0.4)   # dominated by a
        c = self._record("c", 150.0, 300.0, 0.1)   # best frequency
        d = self._record("d", 110.0, 500.0, 0.9)   # best slack
        front = pareto_front([b, d, c, a])
        ids = [r["run_id"] for r in front]
        assert ids == ["a", "d", "c"]  # sorted by area then frequency

    def test_failed_records_ignored(self):
        bad = {"run_id": "x", "status": "pruned"}
        good = self._record("g", 1.0, 1.0, 1.0)
        assert [r["run_id"] for r in pareto_front([bad, good])] == ["g"]

    def test_identical_points_all_kept(self):
        a = self._record("a", 100.0, 400.0, 0.5)
        b = self._record("b", 100.0, 400.0, 0.5)
        assert len(pareto_front([a, b])) == 2


class TestExplorerAndDemo:
    def test_mini_exploration_deterministic(self):
        space = DesignSpace(
            topologies=(TopologySpec(kind="mesh", cols=2, rows=2,
                                     nis_per_router=2),
                        TopologySpec(kind="ring", cols=4,
                                     nis_per_router=2)),
            table_sizes=(16,), max_frequency_mhz=800.0)
        explorer = DesignExplorer(_small_use_case(), space, workers=1)
        first = explorer.explore()
        second = explorer.explore()
        assert first.to_json() == second.to_json()
        assert first.n_candidates == 2
        assert first.front

    def test_space_scenarios_is_the_one_expansion(self):
        """What the explorer runs is the space's own expansion, and the
        space's search interval is what every candidate is held to."""
        space = DesignSpace(
            topologies=(TopologySpec(kind="mesh", cols=2, rows=2),
                        TopologySpec(kind="ring", cols=4)),
            table_sizes=(8, 16), mappings=("optimized", "round_robin"),
            max_frequency_mhz=500.0, tolerance_mhz=25.0, prune=False,
            spare_capacity=0.25)
        use_case = _small_use_case()
        scenarios = space.scenarios(use_case)
        spec = DesignExplorer(use_case, space, name="x").campaign_spec()
        assert spec.scenarios == scenarios
        assert spec.name == "x"
        assert [s.name for s in scenarios] == \
            [c.label for c in space.candidates()]
        for scenario, candidate in zip(scenarios, space.candidates()):
            assert scenario.mode == "design"
            assert (scenario.topology, scenario.table_size) == \
                (candidate.topology, candidate.table_size)
            assert scenario.design == DesignSpec(
                use_case=use_case, data_width=candidate.data_width,
                mapping=candidate.mapping, max_frequency_mhz=500.0,
                tolerance_mhz=25.0, prune=False, spare_capacity=0.25)

    def test_demo_rediscovers_the_papers_point(self):
        from repro.design import demo_space
        report = DesignExplorer(section7_demo_use_case(), demo_space(),
                                workers=2).explore()
        chosen = report.min_area_point()
        assert chosen is not None
        assert str(chosen["topology"]).startswith("mesh2x2")
        assert chosen["result"]["operating_frequency_mhz"] <= 500.0
        assert report.count("ok") >= 5  # a real front, not a lone point
        assert report.n_candidates == 18
        # The report is canonical JSON end to end.
        json.loads(report.to_json())


class TestMinFeasibleConfiguration:
    def test_min_frequency_found(self, mesh_config):
        frequency = min_feasible_configuration(
            mesh_config.topology, mesh_config.use_case,
            mesh_config.mapping, table_size=8).frequency_hz
        # The fixture allocates at 500 MHz, so the minimum is at most
        # that; and the requirements make 100 MHz insufficient... or
        # not — assert only the contract: feasible at the result.
        config = configure(mesh_config.topology, mesh_config.use_case,
                           table_size=8, frequency_hz=frequency,
                           mapping=mesh_config.mapping)
        assert config.summary().all_requirements_met
        assert frequency <= 500e6 + 10e6

    def test_min_frequency_monotone_contract(self, mesh_config):
        """Slightly below the minimum must be infeasible (if > low)."""
        frequency = min_feasible_configuration(
            mesh_config.topology, mesh_config.use_case,
            mesh_config.mapping, table_size=8, low_hz=50e6,
            tolerance_hz=5e6).frequency_hz
        if frequency > 55e6:
            with pytest.raises(AllocationError):
                configure(mesh_config.topology, mesh_config.use_case,
                          table_size=8, frequency_hz=frequency * 0.8,
                          mapping=mesh_config.mapping)

    def test_infeasible_raises(self, mesh_config):
        scaled = type(mesh_config.use_case)(
            "impossible",
            tuple(type(app)(app.name, tuple(
                ch.scaled(1000.0) for ch in app.channels))
                for app in mesh_config.use_case.applications))
        with pytest.raises(AllocationError):
            min_feasible_configuration(
                mesh_config.topology, scaled, mesh_config.mapping,
                table_size=8, high_hz=1e9)

    def test_bad_interval_rejected(self, mesh_config):
        with pytest.raises(ConfigurationError):
            min_feasible_configuration(
                mesh_config.topology, mesh_config.use_case,
                mesh_config.mapping, table_size=8, low_hz=1e9,
                high_hz=1e8)

    @pytest.mark.parametrize("bound", ["low_hz", "high_hz",
                                       "tolerance_hz"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_bound_refused(self, mesh_config, bound, value):
        with pytest.raises(ConfigurationError,
                           match=f"{bound} must be a finite positive"):
            min_feasible_configuration(
                mesh_config.topology, mesh_config.use_case,
                mesh_config.mapping, table_size=8, **{bound: value})


def _at_table_sizes(topology, use_case, mapping, sizes,
                    frequency_hz=500e6):
    """The configuration at each table size, or ``None`` where some
    requirement cannot be met."""
    configs = []
    for size in sizes:
        try:
            configs.append(configure(topology, use_case, table_size=size,
                                     frequency_hz=frequency_hz,
                                     mapping=mapping))
        except AllocationError:
            configs.append(None)
    return configs


class TestTableSize:
    """Feasibility, bound quality and cost as the slot table grows, at
    one frequency."""

    @pytest.fixture(scope="class")
    def section7_fanout(self):
        """The Section VII topology (4x3 cmesh, 4 NIs) with six
        bandwidth-only channels out of one NI: a table of fewer than six
        slots cannot serialise the injection link, and feasibility of a
        bandwidth-only workload is monotone in table size."""
        from repro.topology.builders import concentrated_mesh
        from repro.topology.mapping import Mapping
        topology = concentrated_mesh(4, 3, nis_per_router=4)
        nis = topology.nis
        channels = tuple(
            ChannelSpec(f"fan{i}", "hub", f"leaf{i}", 40 * MB,
                        application="fan")
            for i in range(6))
        use_case = UseCase("fanout", (Application("fan", channels),))
        mapping = Mapping({"hub": nis[0], **{
            f"leaf{i}": nis[i + 1] for i in range(6)}})
        return _at_table_sizes(topology, use_case, mapping,
                               [4, 8, 16, 32, 64])

    def test_feasibility_is_monotone_in_table_size(self, section7_fanout):
        flags = [config is not None for config in section7_fanout]
        assert flags[0] is False  # 4 slots < 6 channels on one NI link
        assert True in flags
        # Once feasible, never infeasible again at a larger size.
        assert flags == sorted(flags)

    def test_bound_quality_follows_the_table(self, section7_fanout):
        feasible = [c for c in section7_fanout if c is not None]
        for config in feasible:
            summary = config.summary()
            assert summary.max_latency_ns >= summary.mean_latency_ns > 0
            assert 0 < config.allocation.mean_link_utilisation() <= 1
        # Larger tables spread the same demand thinner.
        utils = [c.allocation.mean_link_utilisation() for c in feasible]
        assert utils == sorted(utils, reverse=True)
        # Longer rotations worsen the worst-case wait, so latency
        # bounds grow with the table.
        latencies = [c.summary().max_latency_ns for c in feasible]
        assert latencies == sorted(latencies)

    def test_larger_tables_lower_utilisation(self, mesh_config):
        configs = _at_table_sizes(mesh_config.topology,
                                  mesh_config.use_case,
                                  mesh_config.mapping, [8, 16, 32])
        feasible = [c for c in configs if c is not None]
        assert feasible
        utils = [c.allocation.mean_link_utilisation() for c in feasible]
        assert utils == sorted(utils, reverse=True)

    def test_network_area_grows_with_the_table(self):
        topo = mesh(2, 2, nis_per_router=2)
        use_case = _small_use_case()
        mapping = round_robin(list(use_case.ips), topo)
        feasible = [c for c in _at_table_sizes(topo, use_case, mapping,
                                               [2, 16, 32])
                    if c is not None]
        assert feasible
        # NI slot tables grow with the table size: area rises.
        areas = [configuration_area(c).total_um2 for c in feasible]
        assert all(area > 0 for area in areas)
        assert areas == sorted(areas)
