"""The scenario-kind table and the checked-demo skeleton, tested as tables.

One parametrised test per contract instead of one per mode: every entry
of :data:`repro.campaign.kinds.KINDS` validates, rejects foreign payload
fields, executes deterministically and renders; every preset lists; and
every checked demo of the CLI exits 0 with its byte-identity verdict and
writes exactly the library function's canonical JSON.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path
from typing import Callable

import pytest

import repro.__main__ as cli
from repro.__main__ import main
from repro.campaign import (PRESETS, CampaignResult, RunSpec, ScenarioSpec,
                            TopologySpec, TrafficSpec)
from repro.campaign.fabric import spec_fingerprint
from repro.campaign.kinds import KINDS, PAYLOAD_FIELDS, grid_row, run_kind
from repro.campaign.spec import CampaignSpec, SyntheticSpec, WorkloadSpec
from repro.core.allocation import Allocation, SlotAllocator
from repro.core.application import Application, UseCase
from repro.core.connection import MB, ChannelSpec
from repro.core.exceptions import (ConfigurationError,
                                   require_finite_positive, require_whole)
from repro.core.timeline import (ReconfigurationTimeline, TimelineEvent,
                                 TimelineRecorder)
from repro.core.words import WordFormat
from repro.design import DesignSpec
from repro.faults import FaultEvent, FaultSpec
from repro.service import (ChurnSpec, FairnessSpec, TenantSpec,
                           abusive_tenant_mix)
from repro.simulation.backend import SimRequest
from repro.topology.builders import concentrated_mesh, mesh, ring, torus
from repro.usecase.generator import Section7Parameters

#: One small value per payload field (tenant-tagged churn, so it fits
#: every kind that accepts churn).
PAYLOADS = {
    "churn": ChurnSpec(n_sessions=24, arrival_rate_per_s=15000.0,
                       tenants=abusive_tenant_mix(
                           2, floor_opens_per_window=2)),
    "design": DesignSpec(use_case=UseCase("ring", (Application("app", (
        ChannelSpec("c0", "ip0", "ip1", 40 * MB, application="app"),
        ChannelSpec("c1", "ip1", "ip0", 25 * MB, application="app"))),))),
    "faults": FaultSpec(n_faults=2),
    "synthetic": SyntheticSpec(work=4),
}

TOPOLOGY = TopologySpec(kind="mesh", cols=3, rows=3, nis_per_router=2)


def _scenario(kind, **overrides) -> ScenarioSpec:
    """The kind's scenario with every payload field it accepts left at
    its default (required ones filled from ``PAYLOADS``)."""
    required = {name: PAYLOADS[name]
                for name, default in kind.payload.items() if default is None}
    return ScenarioSpec(name=f"k-{kind.name}", mode=kind.name,
                        topology=TOPOLOGY, n_slots=300, table_size=32,
                        **{**required, **overrides})


@pytest.mark.parametrize("kind", KINDS.values(), ids=lambda k: k.name)
class TestEveryKind:
    def test_default_scenario_validates(self, kind):
        scenario = _scenario(kind)
        assert scenario.mode == kind.name
        assert set(kind.payload) <= set(PAYLOAD_FIELDS)
        assert kind.summary and kind.header

    def test_foreign_payload_field_is_rejected(self, kind):
        foreign = [name for name in PAYLOAD_FIELDS
                   if name not in kind.payload]
        assert foreign, "no kind accepts every payload field"
        for name in foreign:
            with pytest.raises(ConfigurationError, match=name):
                _scenario(kind, **{name: PAYLOADS[name]})

    def test_run_is_deterministic_and_renders(self, kind):
        accepted = {name: PAYLOADS[name] for name in kind.payload}
        scenario = _scenario(kind, **accepted)
        run = RunSpec(run_id=f"{scenario.name}/seed1", scenario=scenario,
                      seed=1, base_seed=2009)
        record = run_kind(run)
        assert record["status"] in ("ok", "pruned", "infeasible")
        assert record == run_kind(run)
        assert list(record)[:3] == ["run_id", "scenario", "seed"]
        assert set(kind.header) <= set(record)
        # the record names its kind (simulate predates the key)
        assert record.get("mode", "simulate") == kind.name
        json.dumps(record)
        (row,) = CampaignResult(campaign="k", base_seed=2009,
                                records=[record]).summary_rows()
        assert row["run"] == run.run_id
        assert row["status"].startswith(record["status"])
        assert len(row) > 5, "the kind's row adds its own columns"
        assert grid_row(run)["mode"] == kind.name


@pytest.mark.parametrize(
    "kind", [k for k in KINDS.values()
             if k.backends and "cycle" not in k.backends],
    ids=lambda k: k.name)
def test_backend_that_cannot_reconfigure_is_rejected(kind):
    with pytest.raises(ConfigurationError, match="backend"):
        _scenario(kind, backend="cycle")


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_preset_lists(preset, capsys):
    assert main(["campaign", "--list", "--preset", preset]) == 0
    out = capsys.readouterr().out
    runs = PRESETS[preset]().expand()
    assert f"{len(runs)} runs" in out
    assert all(run.run_id in out for run in runs[:3])


def test_unknown_mode_names_the_kinds():
    with pytest.raises(ConfigurationError, match="simulate.*synthetic"):
        ScenarioSpec(name="x", mode="psychic")


class TestNonFiniteAxes:
    """Numeric axes fail at construction, not inside a worker."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       0.0, -1.0])
    def test_frequency_must_be_finite_positive(self, value):
        with pytest.raises(ConfigurationError, match="frequency_mhz"):
            ScenarioSpec(name="x", frequency_mhz=value)

    @pytest.mark.parametrize("fields", [
        {"rate_factor": math.nan},
        {"rate_factor": math.inf},
        {"pattern": "bernoulli", "probability": 2.0},
        {"pattern": "bernoulli", "probability": math.nan},
        {"pattern": "burst", "burst_messages": 0},
    ], ids=lambda f: ",".join(f"{k}={v}" for k, v in f.items()))
    def test_traffic_axes_are_bounded(self, fields):
        with pytest.raises(ConfigurationError):
            TrafficSpec(**fields)

    def test_boundary_values_still_pass(self):
        TrafficSpec(pattern="bernoulli", probability=0.0)
        TrafficSpec(pattern="bernoulli", probability=1.0)
        TrafficSpec(pattern="burst", burst_messages=1)
        ScenarioSpec(name="x", frequency_mhz=1e-3)

    @pytest.mark.parametrize("make, field, bad, good", [
        (ChurnSpec, "arrival_rate_per_s", math.nan, 5000.0),
        (ChurnSpec, "arrival_rate_per_s", math.inf, 1e-3),
        (partial(SlotAllocator, TOPOLOGY.build(), table_size=8),
         "frequency_hz", math.inf, 500e6),
        (partial(TenantSpec, "t"), "weight", math.nan, 2.0),
        (partial(TenantSpec, "t"), "weight", math.inf, 0.5),
        (partial(TenantSpec, "t"), "rate_multiplier", math.nan, 10.0),
        (FaultSpec, "fault_rate_per_s", math.nan, 300.0),
        (FaultSpec, "mean_repair_s", math.inf, 0.01),
        (ChurnSpec, "mean_duration_s", math.nan, 2e-3),
        (ChurnSpec, "max_duration_s", math.inf, 0.5),
        (ChurnSpec, "pareto_shape", math.nan, 2.5),
        (FairnessSpec, "window_s", math.nan, 1e-3),
        (FairnessSpec, "quantum", math.nan, 2.0),
        (FairnessSpec, "quantum", math.inf, 1.0),
        (partial(FaultEvent, action="fail", kind="router", target="r0_0"),
         "time_s", math.nan, 0.0),
    ], ids=lambda v: getattr(getattr(v, "func", v), "__name__", str(v)))
    def test_public_constructors_refuse_non_finite(self, make, field,
                                                   bad, good):
        """A NaN arrival rate used to build and stamp every event
        ``time_s=nan``, silently breaking ``merge_events``' order."""
        make(**{field: good})
        with pytest.raises(ConfigurationError, match=field):
            make(**{field: bad})


class TestWholeSlotCounts:
    """Slot counts and table sizes are whole numbers at every boundary
    that takes one; a whole float is stored as an ``int``."""

    FABRIC = TOPOLOGY.build()

    @pytest.mark.parametrize("make, field", [
        (partial(ScenarioSpec, "x", table_size=16.5), "table_size"),
        (partial(ScenarioSpec, "x", table_size=math.nan), "table_size"),
        (partial(ScenarioSpec, "x", table_size=math.inf), "table_size"),
        (partial(ScenarioSpec, "x", n_slots=200.5), "n_slots"),
        (partial(ScenarioSpec, "x", n_slots=math.nan), "n_slots"),
        (partial(SimRequest, n_slots=2.5), "n_slots"),
        (partial(SimRequest, n_slots=math.nan), "n_slots"),
        (partial(SlotAllocator, FABRIC, table_size=2.5,
                 frequency_hz=500e6), "table_size"),
        (partial(SlotAllocator, FABRIC, table_size=math.nan,
                 frequency_hz=500e6), "table_size"),
        (partial(SlotAllocator, FABRIC, table_size=math.inf,
                 frequency_hz=500e6), "table_size"),
        (partial(Allocation, FABRIC, 2.5, 500e6, WordFormat()),
         "table_size"),
        (partial(Allocation, FABRIC, math.nan, 500e6, WordFormat()),
         "table_size"),
        (partial(Allocation, FABRIC, math.inf, 500e6, WordFormat()),
         "table_size"),
        (partial(ReconfigurationTimeline, FABRIC, [], horizon_slots=10,
                 table_size=2.5, frequency_hz=500e6), "table_size"),
        (partial(ReconfigurationTimeline, FABRIC, [], horizon_slots=10,
                 table_size=math.nan, frequency_hz=500e6), "table_size"),
        (partial(ReconfigurationTimeline, FABRIC, [],
                 horizon_slots=math.nan, table_size=8, frequency_hz=500e6),
         "horizon_slots"),
        (partial(ReconfigurationTimeline, FABRIC, [], horizon_slots=2.5,
                 table_size=8, frequency_hz=500e6), "horizon_slots"),
        (partial(ReconfigurationTimeline, FABRIC, [],
                 horizon_slots=math.inf, table_size=8, frequency_hz=500e6),
         "horizon_slots"),
        (partial(TimelineEvent, math.nan, "stop", "app"),
         "timeline event slot"),
        (partial(TimelineEvent, 2.5, "stop", "app"), "timeline event slot"),
        (partial(TimelineRecorder, FABRIC, table_size=0,
                 frequency_hz=500e6), "table_size"),
        (partial(TimelineRecorder, FABRIC, table_size=2.5,
                 frequency_hz=500e6), "table_size"),
        (lambda: TimelineRecorder(
            TestWholeSlotCounts.FABRIC, table_size=8,
            frequency_hz=500e6).build(horizon_slots=math.nan),
         "horizon_slots"),
    ], ids=["scenario-fractional-table", "scenario-nan-table",
            "scenario-inf-table", "scenario-fractional-slots",
            "scenario-nan-slots", "request-fractional-slots",
            "request-nan-slots", "allocator-fractional-table",
            "allocator-nan-table", "allocator-inf-table",
            "allocation-fractional-table", "allocation-nan-table",
            "allocation-inf-table", "timeline-fractional-table",
            "timeline-nan-table", "timeline-nan-horizon",
            "timeline-fractional-horizon", "timeline-inf-horizon",
            "event-nan-slot", "event-fractional-slot",
            "recorder-zero-table", "recorder-fractional-table",
            "recorder-nan-horizon"])
    def test_fraction_nan_inf_or_too_small_is_refused(self, make, field):
        # Before: a fractional table crashed the run with a TypeError from
        # ``<<``, a NaN table reached the allocator's mismatch check,
        # 200.5 slots ran with status ok and 2.5 slots were reported as
        # ``simulated_slots``.
        with pytest.raises(ConfigurationError,
                           match=rf"^{field} must be (a whole number )?>= "):
            make()

    def test_whole_floats_are_stored_as_ints(self):
        spec = ScenarioSpec(name="x", table_size=16.0, n_slots=800.0)
        assert repr(spec) == repr(ScenarioSpec(name="x"))
        campaign = partial(CampaignSpec, "c")
        assert spec_fingerprint(campaign((spec,))) == spec_fingerprint(
            campaign((ScenarioSpec(name="x"),)))
        timeline = ReconfigurationTimeline(
            self.FABRIC, [], horizon_slots=10.0, table_size=8.0,
            frequency_hz=500e6)
        for value in (SimRequest(n_slots=8.0).n_slots,
                      SlotAllocator(self.FABRIC, table_size=8.0,
                                    frequency_hz=500e6).table_size,
                      Allocation(self.FABRIC, 8.0, 500e6,
                                 WordFormat()).table_size,
                      timeline.horizon_slots, timeline.table_size,
                      TimelineEvent(3.0, "stop", "app").slot,
                      TimelineRecorder(self.FABRIC, table_size=8.0,
                                       frequency_hz=500e6).table_size):
            assert type(value) is int and value in (3, 8, 10)

    def test_a_whole_float_table_runs_as_its_int(self):
        """``table_size=16.0`` used to crash the run inside the
        allocator's mask arithmetic."""
        def record(table_size):
            scenario = ScenarioSpec(name="x", n_slots=120,
                                    table_size=table_size)
            return run_kind(RunSpec("x/seed1", scenario, 1, 2009))

        assert record(16.0) == record(16)
        assert record(16)["status"] == "ok"


class TestBoundaryHelpersRefuseNonNumbers:
    """``require_whole`` and ``require_finite_positive`` refuse a bool
    and anything that is not a number with a ``ConfigurationError``
    naming the parameter, as they refuse a fraction or a NaN."""

    @pytest.mark.parametrize("value", [True, False, "5", None, [2]],
                             ids=["true", "false", "string", "none", "list"])
    def test_require_whole(self, value):
        with pytest.raises(ConfigurationError,
                           match="^period_cycles must be a whole number"):
            require_whole("period_cycles", value, 0)

    @pytest.mark.parametrize("value", [True, False, "5", None, [2.0]],
                             ids=["true", "false", "string", "none", "list"])
    def test_require_finite_positive(self, value):
        with pytest.raises(ConfigurationError,
                           match="^rate must be a finite positive number"):
            require_finite_positive("rate", value)


class TestWholeCountsAtConstruction:
    """Topology extents, NI counts, link stages, word-format fields and
    the counts of the campaign, use-case and tenant specs are refused at
    construction when fractional or NaN; a whole float keeps its type."""

    @pytest.mark.parametrize("make, field", [
        (partial(mesh, 2, 2, pipeline_stages=1.5), "pipeline_stages"),
        (lambda: mesh(2, 1).set_pipeline_stages("r0_0", "r1_0", 1.5),
         "pipeline_stages"),
        (partial(TopologySpec, pipeline_stages=math.nan), "pipeline_stages"),
        (partial(TopologySpec, pipeline_stages=1.5), "pipeline_stages"),
        (partial(mesh, 2.5, 2), "cols"),
        (partial(ring, 3.5), "ring size"),
        (partial(concentrated_mesh, 2, 2, nis_per_router=1.5),
         "nis_per_router"),
        (partial(WordFormat, flit_size=math.nan), "flit_size"),
        (partial(WordFormat, flit_size=2.5), "flit_size"),
        (partial(WordFormat, data_width=31.5), "data_width"),
        (partial(WorkloadSpec, n_channels=2.5), "n_channels"),
        (partial(WorkloadSpec, n_ips=math.nan), "n_ips"),
        (partial(SyntheticSpec, work=2.5), "synthetic work"),
        (partial(TrafficSpec, pattern="burst", burst_messages=2.5),
         "burst_messages"),
        (partial(Section7Parameters, frequency_hz=math.nan), "frequency_hz"),
        (partial(Section7Parameters, cols=2.5), "cols"),
        (partial(Section7Parameters, table_size=16.5), "table_size"),
        (partial(TenantSpec, "t", floor_opens_per_window=2.5),
         "tenant 't' floor_opens_per_window"),
        (partial(TenantSpec, "t", floor_opens_per_window=math.nan),
         "tenant 't' floor_opens_per_window"),
        (partial(ChannelSpec, "c", "a", "b", MB, burst_bytes=math.nan),
         "channel 'c' burst_bytes"),
        (partial(ChannelSpec, "c", "a", "b", MB, burst_bytes=2.5),
         "channel 'c' burst_bytes"),
        (partial(torus, 3, math.nan), "rows"),
        (partial(TopologySpec, kind="line", cols=2.5), "cols"),
        (partial(TopologySpec, kind="single", nis_per_router=1.5),
         "nis_per_router"),
    ], ids=["mesh-stages", "set-stages", "spec-nan-stages",
            "spec-fractional-stages", "mesh-cols", "ring-size",
            "cmesh-nis", "flit-nan", "flit-fractional", "data-width",
            "workload-channels", "workload-ips",
            "synthetic-work", "burst-messages", "section7-nan-frequency",
            "section7-cols", "section7-table", "tenant-floor",
            "tenant-nan-floor", "channel-nan-burst",
            "channel-fractional-burst", "torus-nan-rows", "line-length",
            "single-router-nis"])
    def test_fraction_or_nan_is_refused_at_construction(self, make, field):
        # Before: a fractional stage count built and crashed ``configure``
        # with a TypeError from ``>>`` (a scenario ended ``crashed``), a
        # fractional extent raised a TypeError from ``range``, NaN passed
        # every ``<`` check, and a 2.5-word flit allocated.
        with pytest.raises(ConfigurationError,
                           match=rf"^{field} must be (a whole|a finite)"):
            make()

    @pytest.mark.parametrize("make, field", [
        (partial(mesh, math.inf, 2), "cols"),
        (partial(ring, math.inf), "ring size"),
        (lambda: mesh(2, 1).set_pipeline_stages("r0_0", "r1_0", math.inf),
         "pipeline_stages"),
        (partial(TopologySpec, pipeline_stages=math.inf), "pipeline_stages"),
        (partial(WordFormat, flit_size=math.inf), "flit_size"),
        (partial(WorkloadSpec, n_channels=math.inf), "n_channels"),
        (partial(Section7Parameters, table_size=math.inf), "table_size"),
        (partial(Section7Parameters, frequency_hz=math.inf), "frequency_hz"),
        (partial(TenantSpec, "t", floor_opens_per_window=math.inf),
         "tenant 't' floor_opens_per_window"),
        (partial(ChannelSpec, "c", "a", "b", MB, burst_bytes=math.inf),
         "channel 'c' burst_bytes"),
    ], ids=["mesh-cols", "ring-size", "set-stages", "spec-stages",
            "flit", "workload-channels", "section7-table",
            "section7-frequency", "tenant-floor", "channel-burst"])
    def test_an_infinity_is_refused_at_construction(self, make, field):
        # An infinity passes every lower-bound ``<`` check, so only the
        # whole-number test stands between it and ``range`` or ``>>``.
        with pytest.raises(ConfigurationError,
                           match=rf"^{field} must be (a whole|a finite)"):
            make()

    def test_a_whole_float_keeps_its_type(self):
        topology = TopologySpec(cols=2.0, rows=2.0, pipeline_stages=1.0)
        assert (topology.cols, topology.pipeline_stages) == (2.0, 1.0)
        assert type(topology.cols) is float
        assert topology.build().links == mesh(2, 2,
                                               pipeline_stages=1).links
        for value, whole in (
                (WordFormat(flit_size=3.0).flit_size, 3),
                (WorkloadSpec(n_channels=6.0).n_channels, 6),
                (SyntheticSpec(work=4.0).work, 4),
                (TrafficSpec(burst_messages=3.0).burst_messages, 3),
                (Section7Parameters(table_size=32.0).table_size, 32),
                (TenantSpec("t", floor_opens_per_window=2.0)
                 .floor_opens_per_window, 2),
                (ChannelSpec("c", "a", "b", MB,
                             burst_bytes=16.0).burst_bytes, 16)):
            assert type(value) is float and value == whole


# -- the checked demos -----------------------------------------------------


def _preset_json(name: str, tmp_path) -> str:
    """The preset's report as ``campaign --preset NAME --workers 1``
    writes it."""
    path = tmp_path / f"{name}.json"
    assert main(["campaign", "--preset", name, "--workers", "1",
                 "--output", str(path)]) == 0
    return path.read_text(encoding="utf-8")


def _monitor_json(tmp_path) -> str:
    from repro.experiments.section7 import section7_setup
    from repro.telemetry.monitor import MonitorSpec, conformance_from_result
    from repro.usecase.runner import run_gs
    _, config = section7_setup()
    return conformance_from_result(
        config, run_gs(config, n_slots=600).result,
        spec=MonitorSpec()).to_json() + "\n"


@dataclasses.dataclass(frozen=True)
class Demo:
    argv: tuple[str, ...]
    library_json: Callable[..., str]
    watched: bool = True    # takes --monitor


#: Each demo at its preset's defaults (the CI smoke sizes), so its
#: ``--output`` is the bytes ``campaign --preset`` writes.
DEMOS = {
    "serve": Demo(("serve", "--events", "200"),
                  partial(_preset_json, "serve_demo")),
    "serve-wfq": Demo(("serve", "--policy", "wfq", "--events", "600"),
                      partial(_preset_json, "fairness_demo")),
    "replay": Demo(("replay", "--events", "120", "--slots", "1200"),
                   partial(_preset_json, "replay_demo")),
    "faults": Demo(("faults", "--events", "120", "--slots", "1200"),
                   partial(_preset_json, "faults_demo")),
    "design": Demo(("design", "--workers", "1"),
                   partial(_preset_json, "design_demo"), watched=False),
    "monitor": Demo(("monitor", "--slots", "600"), _monitor_json,
                    watched=False),
}


@pytest.mark.parametrize("demo", DEMOS.values(), ids=list(DEMOS))
class TestEveryCheckedDemo:
    def test_demo_exits_clean_and_writes_the_library_report(
            self, demo, tmp_path, capsys, monkeypatch):
        path = tmp_path / "report.json"
        flow, *refusal = cli._DEMOS[demo.argv[0]]
        handed = []

        def recording(*args):
            handed.append(flow(*args))
            return handed[-1]

        monkeypatch.setitem(cli._DEMOS, demo.argv[0],
                            (recording, *refusal))
        assert main([*demo.argv, "--demo", "--output", str(path)]) == 0
        out = capsys.readouterr().out
        # The pass condition is data: every verdict the flow handed the
        # skeleton held (the byte-identity verdict is appended to them),
        # and each was printed as its line.
        (verdicts, identical, _, _), = handed
        assert len(verdicts) >= 2 and identical
        for verdict in verdicts:
            assert verdict[1] is True
            assert cli._verdict_line(*verdict) in out
        assert "repeated-run reports byte-identical: yes" in out
        assert "NO —" not in out
        assert f"written to {path}" in out
        assert "phase timing" in out
        text = path.read_text(encoding="utf-8")
        json.loads(text)
        assert text == demo.library_json(tmp_path)

    def test_observability_leaves_the_report_bytes(self, demo, tmp_path):
        plain, observed = tmp_path / "plain.json", tmp_path / "observed.json"
        assert main([*demo.argv, "--demo", "--output", str(plain)]) == 0
        assert main([*demo.argv, "--demo", "--output", str(observed),
                     "--telemetry", str(tmp_path / "t.jsonl"),
                     "--trace", str(tmp_path / "t.json"),
                     *(("--monitor",) if demo.watched else ())]) == 0
        assert observed.read_bytes() == plain.read_bytes()
        assert (tmp_path / "t.jsonl").stat().st_size > 0

    def test_refuses_without_demo_flag(self, demo, capsys):
        assert main(list(demo.argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{demo.argv[0]}: only the built-in --demo" in captured.err


@pytest.mark.parametrize("argv, flag", [
    (("replay", "--demo", "--slots", "0"), "--slots"),
    (("monitor", "--demo", "--slots", "0"), "--slots"),
    (("faults", "--demo", "--faults", "0"), "--faults"),
    (("serve", "--demo", "--events", "-5"), "--events"),
    (("serve", "--demo", "--events", "0"), "--events"),
    (("design", "--demo", "--spare-capacity", "nan"), "--spare-capacity"),
    (("campaign", "--preset", "synthetic", "--shard-size", "0"),
     "--shard-size"),
    (("serve", "--demo", "--output", "/nonexistent/dir/x.json"),
     "--output"),
    (("campaign", "--demo", "--output", "/nonexistent/dir/x.json"),
     "--output"),
    (("faults", "--demo", "--monitor-output", "/nonexistent/dir/x.json"),
     "--monitor-output"),
    (("replay", "--demo", "--telemetry", "/nonexistent/dir/x.jsonl"),
     "--telemetry"),
    (("design", "--demo", "--trace", "/nonexistent/dir/x.json"),
     "--trace"),
], ids=" ".join)
def test_bad_cli_number_is_a_usage_error(argv, flag, capsys):
    """These used to die with a traceback, run a demo over nothing
    (``serve --events 0``: "byte-identical: yes", exit 0), blame the
    search (``--spare-capacity nan``: "SEARCH REGRESSION"), read
    ``--shard-size 0`` as "default", or run the whole flow and then fail
    to open a report path whose directory does not exist."""
    with pytest.raises(SystemExit) as refused:
        main(list(argv))
    assert refused.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert f"error: argument {flag}: must be" in \
        captured.err.splitlines()[-1]


@pytest.mark.parametrize("argv, message", [
    (("campaign", "--preset", "nope"),
     "repro campaign: unknown campaign preset 'nope'"),
    (("design", "--demo", "--spare-capacity", "-1"),
     "repro design: spare_capacity must be >= 0"),
    (("monitor", "--demo", "--slack", "-1"),
     "repro monitor: slack_fraction must be in [0, 1), got -1.0"),
    (("serve", "--demo", "--monitor", "--monitor-slack", "1.5"),
     "repro serve: slack_fraction must be in [0, 1), got 1.5"),
    (("campaign", "--preset", "synthetic", "--resume", "/nonexistent/wd"),
     "repro campaign: nothing to resume in /nonexistent/wd"),
], ids=" ".join)
def test_refused_configuration_is_one_stderr_line(argv, message, capsys):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert line.startswith(message)


#: Prints one line, waits until the test has closed its end of stdout
#: (signalled by closing stdin), then runs the CLI into the dead pipe —
#: so every byte ``main`` writes meets a reader that has gone, however
#: the child's writes are buffered or scheduled.
_CLOSED_PIPE_CHILD = """
import sys
from repro.__main__ import main
print("first line", flush=True)
sys.stdin.read()
sys.exit(main(["campaign", "--demo", "--list"]))
"""


def test_output_into_a_closed_pipe_ends_without_a_traceback():
    """``python -m repro campaign --demo --list | head -1``: the reader
    leaves after one line, and the CLI ends quietly (exit 1, as the
    Python documentation's SIGPIPE recipe exits) with nothing on
    stderr — not a ``BrokenPipeError`` traceback, nor the "Exception
    ignored" line of a failed flush at exit."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-c", _CLOSED_PIPE_CHILD], env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"first line\n"
        proc.stdout.close()
        proc.stdin.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1, stderr
    finally:
        proc.kill()
        proc.wait()
    assert "Traceback" not in stderr
    assert stderr == ""

