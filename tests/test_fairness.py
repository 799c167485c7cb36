"""Integration tests for multi-tenant weighted-fair admission.

The adversarial regression (abusive tenant vs wfq vs FCFS), the
fairness + faults composition, deterministic event merging with policy
events, the campaign/CLI surface and the per-tenant conformance rows.
"""

from __future__ import annotations

import json

import pytest

from decision_log import record_decisions
from repro.campaign.kinds import run_kind
from repro.campaign.runner import CampaignRunner
from repro.campaign.presets import fairness_campaign, preset_by_name
from repro.campaign.spec import RunSpec, ScenarioSpec, TopologySpec
from repro.core.allocation import SlotAllocator
from repro.core.exceptions import ConfigurationError
from repro.faults.model import FaultEvent, FaultSchedule, FaultSpec
from repro.service import (ChurnSpec, ChurnWorkload, FairnessSpec,
                           PolicyEvent, SessionService, TenantSpec,
                           abusive_tenant_mix, merge_events, shed_rank,
                           tenant_events)
from repro.campaign.kinds import run_kind
from repro.campaign.presets import fairness_demo
from repro.service.fairness_demo import RETENTION_FLOOR
from repro.topology.builders import concentrated_mesh, mesh

TENANTED = ChurnSpec(n_sessions=120, arrival_rate_per_s=15000.0,
                     tenants=abusive_tenant_mix(
                         2, floor_opens_per_window=2))


@pytest.fixture(scope="module")
def small_mesh():
    return mesh(3, 3, nis_per_router=2)


def _service(topology, **kwargs):
    return SessionService(topology, allocator=SlotAllocator(
        topology, table_size=32, frequency_hz=500e6),
        name="fair-test", seed=1, **kwargs)


class TestMergeEvents:
    def test_equal_instant_total_order(self, small_mesh):
        """Ties break close < repair < policy < fail < open."""
        churn = ChurnWorkload(ChurnSpec(n_sessions=6), small_mesh, 3)
        events = churn.events()
        t = events[0].time_s
        fail = FaultEvent(t, "fail", "link", ("r0_0", "r1_0"))
        repair = FaultEvent(t, "repair", "link", ("r0_0", "r1_0"))
        policy = PolicyEvent(t, "set_weight", "acme", 2.0)
        opens = tuple(e for e in events if e.kind == "open")
        shifted_close = opens[0].__class__(t, "close", opens[0].session)
        merged = merge_events(
            (opens[0], shifted_close), (fail,), (repair,), (policy,))
        at_t = [e for e in merged if e.time_s == t]
        kinds = [getattr(e, "action", None) or e.kind for e in at_t]
        assert kinds == ["close", "repair", "set_weight", "fail",
                         "open"]

    def test_merge_is_input_order_invariant(self, small_mesh):
        """Any permutation of the input streams merges identically."""
        churn = ChurnWorkload(ChurnSpec(n_sessions=20), small_mesh, 5)
        events = churn.events()
        schedule = FaultSchedule(
            FaultSpec(n_faults=3, fault_rate_per_s=400.0,
                      mean_repair_s=0.004), small_mesh, 9)
        faults = schedule.events()
        policies = (PolicyEvent(events[2].time_s, "set_floor", "a", 1),
                    PolicyEvent(events[2].time_s, "set_weight", "a",
                                3.0))
        forward = merge_events(events, faults, policies)
        backward = merge_events(policies, faults, events)
        assert forward == backward
        assert [e.time_s for e in forward] == sorted(
            e.time_s for e in forward)

    def test_single_stream_still_sorted(self, small_mesh):
        churn = ChurnWorkload(ChurnSpec(n_sessions=10), small_mesh, 2)
        events = churn.events()
        assert merge_events(tuple(reversed(events))) == tuple(events)


class TestPolicyKnob:
    def test_fcfs_rejects_fairness_configuration(self, small_mesh):
        with pytest.raises(ConfigurationError):
            _service(small_mesh, fairness=FairnessSpec())
        with pytest.raises(ConfigurationError):
            _service(small_mesh, tenants=(TenantSpec("a"),))
        with pytest.raises(ConfigurationError):
            _service(small_mesh, policy="lifo")

    @pytest.mark.parametrize("field", [
        "overload_window", "min_overload_samples",
        "tenant_opens_per_window", "app_opens_per_window"])
    @pytest.mark.parametrize("value", [2.5, float("nan"), 0])
    def test_spec_count_that_is_not_whole_is_refused(self, field, value):
        """Refused where the spec is built, not when a scheduler slices
        a fractional window or compares against a NaN count."""
        with pytest.raises(ConfigurationError, match=field):
            FairnessSpec(**{field: value})

    def test_spec_counts_are_stored_as_ints(self):
        spec = FairnessSpec(overload_window=32.0, min_overload_samples=8.0,
                            tenant_opens_per_window=4.0)
        assert (spec.overload_window, spec.min_overload_samples,
                spec.tenant_opens_per_window,
                spec.app_opens_per_window) == (32, 8, 4, None)
        assert type(spec.overload_window) is int
        with pytest.raises(ConfigurationError, match="overload_window"):
            FairnessSpec(overload_window=None)

    def test_fcfs_service_refuses_policy_events(self, small_mesh):
        service = _service(small_mesh)
        with pytest.raises(ConfigurationError):
            service.process(PolicyEvent(0.0, "set_weight", "a", 2.0))

    @pytest.mark.parametrize("args", [
        (float("nan"), "set_weight", "a", 2.0),
        (float("inf"), "set_floor", "a", 1),
        (-1.0, "set_limit", "a", None),
        (0.0, "set_weight", "a", float("nan")),
        (0.0, "set_weight", "a", float("inf")),
        (0.0, "set_floor", "a", float("inf")),
    ], ids=["nan-time", "inf-time", "negative-time", "nan-weight",
            "inf-weight", "inf-floor"])
    def test_non_finite_time_or_value_is_refused(self, args):
        with pytest.raises(ConfigurationError, match="finite"):
            PolicyEvent(*args)

    def test_policy_event_reweights_live_scheduler(self, small_mesh):
        workload = ChurnWorkload(TENANTED, small_mesh, 11)
        events = workload.events(limit=60)
        reweight = PolicyEvent(events[10].time_s, "set_weight",
                               "good0", 5.0)
        service = _service(small_mesh, policy="wfq",
                           tenants=TENANTED.tenants)
        report = service.run(merge_events(events, (reweight,)))
        assert report.fairness is not None
        per_tenant = report.fairness["per_tenant"]
        assert per_tenant["good0"]["weight"] == 5.0
        assert per_tenant["abuser"]["weight"] == 1.0

    def test_wfq_report_carries_tenant_sections(self, small_mesh):
        workload = ChurnWorkload(TENANTED, small_mesh, 11)
        report = _service(small_mesh, policy="wfq",
                          tenants=TENANTED.tenants).run(
            workload.events(limit=80))
        record = json.loads(report.to_json())
        assert set(record["tenants"]) == {t.name
                                          for t in TENANTED.tenants}
        assert record["fairness"]["policy"] == "wfq"
        assert record["totals"]["n_shed"] == sum(
            t["shed"] for t in record["fairness"]["per_tenant"].values())


class TestAdversarialRegression:
    """The ISSUE's acceptance criterion, as a regression test."""

    @pytest.fixture(scope="class")
    def demo_run(self):
        run, = fairness_demo(n_events=800).expand()
        return run

    @pytest.fixture(scope="class")
    def demo(self, demo_run):
        return run_kind(demo_run)["result"]

    def test_well_behaved_tenants_keep_solo_rate_under_wfq(self, demo):
        checks = demo["checks"]
        assert checks["wfq_retention_ok"], checks
        assert checks["min_well_behaved_retention"] >= RETENTION_FLOOR

    def test_fcfs_baseline_demonstrably_fails(self, demo):
        assert demo["checks"]["fcfs_fails"]
        worst = min(
            row["fcfs_retention"]
            for row in demo["retention"].values()
            if row["well_behaved"])
        assert worst < RETENTION_FLOOR

    def test_abuser_is_contained_not_starved(self, demo):
        abuser = demo["retention"]["abuser"]
        assert not abuser["well_behaved"]
        assert abuser["wfq_retention"] < abuser["fcfs_retention"]
        assert demo["wfq"]["fairness"]["per_tenant"]["abuser"][
            "admitted"] > 0

    def test_reports_byte_identical_and_canonical(self, demo_run, demo):
        report_json = json.dumps(demo, sort_keys=True)
        assert report_json == json.dumps(run_kind(demo_run)["result"],
                                         sort_keys=True)
        assert "_conformance" not in demo and "_reports" not in demo
        assert json.loads(report_json) == demo

    def test_solo_filter_partitions_stream(self, small_mesh):
        events = ChurnWorkload(TENANTED, small_mesh, 3).events(limit=60)
        per_tenant = [tenant_events(events, t.name)
                      for t in TENANTED.tenants]
        assert sum(len(p) for p in per_tenant) == len(events)
        assert sorted(e.session.session_id for p in per_tenant
                      for e in p) == sorted(
            e.session.session_id for e in events)


class TestFaultComposition:
    """Fairness composes with the fault tier and stays replayable."""

    def test_wfq_with_faults_keeps_survivors_composable(self):
        from repro.simulation.composability import (replay_traffic,
                                                    verify_timeline)
        topology = mesh(3, 3, nis_per_router=2)
        churn = ChurnWorkload(TENANTED, topology, 5)
        schedule = FaultSchedule(
            FaultSpec(n_faults=3, fault_rate_per_s=400.0,
                      mean_repair_s=0.004), topology, 9)
        service = _service(
            topology, policy="wfq", tenants=TENANTED.tenants,
            fairness=FairnessSpec(tenant_opens_per_window=30),
            record_timeline=True)
        report = service.run(merge_events(churn.events(limit=80),
                                          schedule.events()))
        assert report.faults["n_evicted"] > 0
        assert report.fairness is not None
        timeline = service.timeline(horizon_slots=900)
        verdict = verify_timeline(timeline, replay_traffic(timeline),
                                  scenario="fairness-faults")
        assert verdict.is_composable

    def test_floors_hold_under_faults(self):
        """Policy sheds only tenants at/above their window floor."""
        from repro.service.fairness import WeightedFairScheduler
        topology = mesh(3, 3, nis_per_router=2)
        churn = ChurnWorkload(TENANTED, topology, 5)
        schedule = FaultSchedule(
            FaultSpec(n_faults=3, fault_rate_per_s=400.0,
                      mean_repair_s=0.004), topology, 9)
        scheduler = WeightedFairScheduler(
            TENANTED.tenants,
            spec=FairnessSpec(pressure_threshold=0.0,
                              tenant_opens_per_window=2))
        decisions = record_decisions(scheduler)
        service = _service(topology, policy="wfq",
                           tenants=TENANTED.tenants)
        service._fairness = scheduler
        service.run(merge_events(churn.events(limit=80),
                                 schedule.events()))
        floor_of = {t.name: t.floor_opens_per_window
                    for t in TENANTED.tenants}
        sheds = [d for d in decisions if d[4] != "pass"]
        assert sheds, "hostile spec should shed something"
        for (_, tenant, _, _, _, admitted_in_window) in sheds:
            assert admitted_in_window >= floor_of[tenant]


class TestFairnessScenarios:
    def test_policy_axis_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", policy="wfq")  # simulate mode
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", mode="serve", policy="wfq",
                         churn=ChurnSpec())  # untenanted
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", mode="fairness",
                         churn=ChurnSpec())  # untenanted
        with pytest.raises(ConfigurationError, match="need a spec in"):
            ScenarioSpec(name="x", mode="fairness")  # no churn at all
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", mode="serve", policy="lifo")
        spec = ScenarioSpec(name="x", mode="fairness", churn=TENANTED)
        assert spec.policy == "fcfs"

    def test_execute_fairness_run_record(self):
        scenario = ScenarioSpec(
            name="fair", mode="fairness",
            topology=TopologySpec(kind="cmesh", cols=4, rows=3,
                                  nis_per_router=4),
            churn=TENANTED, table_size=32)
        run = RunSpec(run_id="fair/seed1", scenario=scenario, seed=1,
                      base_seed=2009)
        record = run_kind(run)
        assert record["status"] == "ok"
        assert record["mode"] == "fairness"
        result = record["result"]
        assert set(result["retention"]) == {t.name
                                            for t in TENANTED.tenants}
        assert "wfq" in result and "fcfs" in result
        assert not any(k.startswith("_") for k in result)
        assert record == run_kind(run)

    def test_wfq_serve_scenario_runs(self):
        scenario = ScenarioSpec(
            name="wfq-serve", mode="serve", policy="wfq",
            topology=TopologySpec(kind="mesh", cols=3, rows=3,
                                  nis_per_router=2),
            churn=TENANTED, table_size=32)
        record = run_kind(RunSpec(
            run_id="wfq-serve/seed1", scenario=scenario, seed=1,
            base_seed=2009))
        assert record["status"] == "ok"
        assert record["policy"] == "wfq"
        assert record["result"]["fairness"]["policy"] == "wfq"

    def test_fairness_preset_shape_and_summary(self):
        spec = fairness_campaign(n_events=200, seeds=(1,))
        assert preset_by_name("fairness").name == "fairness"
        assert len(spec.expand()) == 4
        result = CampaignRunner(spec, keep_records=True).run()
        assert result.n_failed == 0
        rows = result.summary_rows()
        assert all("retention" in row for row in rows)
        assert all(row["status"].startswith("ok/") for row in rows)


class TestFairnessCli:
    def test_wfq_demo_exit_code(self, capsys, tmp_path):
        from repro.__main__ import main
        report, telemetry = tmp_path / "wfq.json", tmp_path / "wfq.jsonl"
        assert main(["serve", "--policy", "wfq", "--demo",
                     "--events", "600", "--output", str(report),
                     "--telemetry", str(telemetry)]) == 0
        out = capsys.readouterr().out
        assert "byte-identical: yes" in out
        assert "retention" in out
        assert "ABUSIVE" in out
        # Every shed is attributed to the policy layer that made it.
        sheds = {line["labels"]["layer"]: line["value"] for line in
                 map(json.loads, telemetry.read_text().splitlines())
                 if line.get("name") == "service.fairness.sheds"}
        assert set(sheds) == {"throttle", "overload", "fairness"}
        record, = json.loads(report.read_text())["records"]
        assert sum(sheds.values()) == \
            record["result"]["wfq"]["totals"]["n_shed"] > 0

    def test_fcfs_demo_output_unchanged(self, capsys):
        from repro.__main__ import main
        assert main(["serve", "--demo", "--events", "120"]) == 0
        out = capsys.readouterr().out
        assert "ABUSIVE" not in out and "fairness" not in out


class TestTenantConformance:
    def test_monitored_demo_reports_per_tenant_retention(self):
        from repro.telemetry.monitor import MonitorSpec
        run, = fairness_demo(n_events=400).expand()
        record = run_kind(run, monitor=MonitorSpec())
        conformance = record.pop("_conformance")
        assert record == run_kind(run)
        retention = conformance.tenant_retention
        assert retention, "monitored wfq run must attribute tenants"
        for name, row in retention.items():
            assert row["n_monitored"] > 0
            assert 0.0 <= row["retention"] <= 1.0
        assert conformance.tenant_rows()

    def test_shed_rank_orders_default_classes(self):
        from repro.service.qos import DEFAULT_CLASSES
        ranks = {c.name: shed_rank(c) for c in DEFAULT_CLASSES}
        assert ranks["bulk"] == 0
        assert ranks["voice"] == max(ranks.values())
