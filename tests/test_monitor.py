"""The telemetry analysis tier: conformance watchdog and rollups.

Pins the monitor's two contracts:

* classification — the ``within_bounds`` / ``tight`` / ``violated``
  verdict algebra, including the epsilon band that keeps an *attained*
  bound (observed == analytical worst case, the TDM ideal) out of
  ``violated``;
* byte-determinism — conformance reports and fabric rollups serialise
  identically across repeated runs, and arming the monitor never
  changes a flow's canonical report.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import campaign_conformance
from repro.core.exceptions import ConfigurationError
from repro.simulation.backend import FlitLevelBackend, SimRequest
from repro.simulation.traffic import ConstantBitRate
from repro.telemetry.monitor import (TOP_K, ConformanceReport,
                                     FabricRollup, MonitorSpec,
                                     conformance_from_result,
                                     quote_conformance)


def _cbr_traffic(config):
    return {
        name: ConstantBitRate.from_rate(
            ca.spec.throughput_bytes_per_s, config.frequency_hz,
            config.fmt)
        for name, ca in config.allocation.channels.items()}


def _gs_result(config, n_slots=800):
    return FlitLevelBackend(config).run(
        SimRequest(n_slots=n_slots, traffic=_cbr_traffic(config)))


class TestClassification:

    def test_verdict_bands(self):
        spec = MonitorSpec(slack_fraction=0.2)
        assert spec.classify(50.0, 100.0) == "within_bounds"
        assert spec.classify(80.0, 100.0) == "tight"
        assert spec.classify(100.0, 100.0) == "tight"
        assert spec.classify(101.0, 100.0) == "violated"

    def test_attained_bound_is_tight_not_violated(self):
        # The paper's bounds are exact: burst traffic drives observed
        # worst-case latency onto the analytical bound, with float fuzz
        # on either side.  The eps band absorbs it.
        spec = MonitorSpec()
        bound = 216.0
        assert spec.classify(bound * (1 - 1e-15), bound) == "tight"
        assert spec.classify(bound * (1 + 1e-15), bound) == "tight"

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            MonitorSpec(slack_fraction=1.0)

    def test_worst_channels_orders_by_headroom(self):
        from repro.telemetry.monitor import ChannelConformance

        def entry(name, worst):
            return ChannelConformance(
                channel=name, kind="trace", verdict="within_bounds",
                latency_bound_ns=100.0, worst_latency_ns=worst,
                n_messages=1)
        report = ConformanceReport(source="test", scenario="s", channels=(
            entry("a", 90.0), entry("b", 50.0), entry("c", 99.0),
            ChannelConformance(channel="d", kind="trace",
                               verdict="within_bounds")))
        worst = [c.channel for c in report.worst_channels(4)]
        assert worst[0] == "c"  # least headroom first
        assert worst[-1] == "d"  # unmeasured entries sort last


class TestSimulationConformance:

    def test_mesh_gs_within_bounds_and_deterministic(self, mesh_config):
        result = _gs_result(mesh_config)
        report = conformance_from_result(mesh_config, result)
        assert isinstance(report, ConformanceReport)
        assert len(report.channels) == 3
        assert report.n_violated == 0
        assert report.ok
        # CBR at the required rate leaves slack: latency stays under
        # the worst-case bound and throughput under the quota.
        rerun = conformance_from_result(mesh_config,
                                        _gs_result(mesh_config))
        assert report.to_json() == rerun.to_json()

    def test_section7_gs_zero_violated_byte_deterministic(self):
        # The acceptance bar: the Section VII use case reports zero
        # violated channels on the GS backend, twice-run identical.
        from repro.experiments.section7 import section7_setup
        from repro.usecase.runner import run_gs
        _, config = section7_setup()
        first = conformance_from_result(
            config, run_gs(config, n_slots=1200).result)
        second = conformance_from_result(
            config, run_gs(config, n_slots=1200).result)
        assert len(first.channels) == 200
        assert first.n_violated == 0
        assert first.to_json() == second.to_json()
        # Burst traffic attains the worst case: every channel lands
        # tight-or-better, none violated.
        counts = first.counts
        assert counts["within_bounds"] + counts["tight"] == 200

    def test_invalid_verdict_rejected(self):
        from repro.telemetry.monitor import ChannelConformance
        with pytest.raises(ConfigurationError):
            ChannelConformance(channel="c0", kind="trace",
                               verdict="fine")


class TestServiceConformance:

    def test_monitored_service_reports_and_stays_byte_identical(self):
        from repro.campaign.kinds import run_kind
        from repro.campaign.presets import serve_demo
        run, = serve_demo().expand()
        plain = run_kind(run)
        monitored = run_kind(run, monitor=MonitorSpec())
        conformance = monitored.pop("_conformance")
        assert plain == monitored
        assert conformance.n_violated == 0
        assert all(c.kind == "quote" for c in conformance.channels)

    def test_unarmed_service_refuses_conformance_report(self):
        from repro.core.allocation import SlotAllocator
        from repro.core.exceptions import ConfigurationError
        from repro.service.controller import SessionService
        from repro.topology.builders import mesh
        topology = mesh(2, 2, nis_per_router=1)
        service = SessionService(topology, allocator=SlotAllocator(
            topology, table_size=32, frequency_hz=500e6))
        with pytest.raises(ConfigurationError):
            service.conformance_report()

    def test_quote_violation_detected(self):
        report = quote_conformance(
            [("s0", "voice", 1200.0, 1000.0, 64e6, 64e6),
             ("s1", "bulk", 100.0, None, 16e6, 32e6)])
        verdicts = {c.channel: c.verdict for c in report.channels}
        assert verdicts == {"s0": "violated", "s1": "violated"}
        assert not report.ok


class TestTimelineConformance:

    @pytest.fixture(scope="class")
    def faults_run(self):
        from repro.campaign.presets import faults_demo
        run, = faults_demo(n_events=100, n_slots=1200, n_faults=4).expand()
        return run

    def test_faults_demo_survivors_zero_violated(self, faults_run):
        from repro.campaign.kinds import run_kind
        record = run_kind(faults_run, monitor=MonitorSpec())
        conformance = record.pop("_conformance")
        assert conformance.n_violated == 0
        assert conformance.source == "timeline"
        # The stashed artifact is the only key the watchdog added.
        assert record == run_kind(faults_run)

    def test_monitor_off_report_bytes_unchanged(self, faults_run):
        from repro.campaign.kinds import run_kind
        on = run_kind(faults_run, monitor=MonitorSpec())
        del on["_conformance"]
        assert json.dumps(on, sort_keys=True) == \
            json.dumps(run_kind(faults_run), sort_keys=True)


class TestCampaignConformance:

    def test_statuses_fold_to_verdicts(self):
        records = [
            {"run_id": "r0", "status": "ok", "result": {}},
            {"run_id": "r1", "status": "crashed",
             "error": "boom", "result": {}},
            {"run_id": "r2", "status": "ok",
             "result": {"composability": {"composable": False}}},
        ]
        report = campaign_conformance(records)
        verdicts = {c.channel: c.verdict for c in report.channels}
        assert verdicts["r0"] == "within_bounds"
        assert verdicts["r1"] == "violated"
        assert verdicts["r2"] == "violated"
        assert report.n_violated == 2

    def test_two_seeds_of_a_scenario_get_a_row_each(self):
        """Rows are keyed by run, not by scenario: both seeds of a
        scenario used to fold under the scenario's name."""
        from repro.campaign import (CampaignRunner, CampaignSpec,
                                    ScenarioSpec, TopologySpec,
                                    WorkloadSpec)
        spec = CampaignSpec(name="two-seed", seeds=(1, 2), scenarios=(
            ScenarioSpec(name="flit", n_slots=200, table_size=16,
                         topology=TopologySpec(kind="mesh", cols=2, rows=2),
                         workload=WorkloadSpec(n_channels=4, n_ips=8)),))
        result = CampaignRunner(spec, workers=1).run()
        report = campaign_conformance(result)
        names = [c.channel for c in report.channels]
        assert names == [run.run_id for run in spec.expand()]
        assert len(set(names)) == 2


class TestFabricRollup:
    def test_tables_default_to_top_k_rows(self, mesh_config):
        rollup = FabricRollup.from_allocation(mesh_config.allocation)
        assert rollup.hotspots() == rollup.hotspots(TOP_K)
        assert rollup.link_rows() == rollup.link_rows(TOP_K)
        assert rollup.ni_rows() == rollup.ni_rows(TOP_K)
        assert len(rollup.link_rows(1)) == 1


    def test_from_allocation_heatmap(self, mesh_config):
        rollup = FabricRollup.from_allocation(mesh_config.allocation)
        assert rollup.n_channels == 3
        assert rollup.table_size == mesh_config.allocation.table_size
        hot = rollup.hotspots(2)
        assert len(hot) == 2
        # Hotspots are sorted by occupancy, then name.
        assert hot[0][1] >= hot[1][1]
        assert json.dumps(rollup.to_record(), sort_keys=True) == \
            json.dumps(FabricRollup.from_allocation(
                mesh_config.allocation).to_record(), sort_keys=True)

    def test_counter_tracks_reach_chrome_trace(self, mesh_config):
        from repro.telemetry import Telemetry
        tel = Telemetry("rollup")
        FabricRollup.from_allocation(
            mesh_config.allocation).emit_counter_tracks(tel)
        trace = tel.chrome_trace()
        counters = [e for e in trace["traceEvents"]
                    if e.get("ph") == "C"]
        assert counters
        assert all(e["cat"] == "fabric" for e in counters)

