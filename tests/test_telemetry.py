"""Tests for :mod:`repro.telemetry` — the observability layer.

The load-bearing contract is *determinism*: canonical reports must be
byte-identical with telemetry on and off, the non-wall portion of the
telemetry stream itself must be byte-identical across repeated runs,
and every wall-clock quantity must be quarantined into the trailing
``meta`` line.  The rest covers the instrument semantics (histogram
bucket edges, Null no-ops), the exporters (JSONL, Chrome
trace) and the satellite regressions (empty latency stats, executor
names in ``SimResult``).
"""

import json

import pytest

from repro.core.exceptions import ConfigurationError
from repro.telemetry import (NULL_TELEMETRY, NullTelemetry, Telemetry,
                             chrome_trace, coalesce)
from repro.telemetry.metrics import (NULL_COUNTER, NULL_GAUGE,
                                     NULL_HISTOGRAM, Histogram,
                                     MetricRegistry)
from repro.telemetry.spans import SPAN_UNITS, Span


def _strip_meta(jsonl: str) -> list[str]:
    """Drop the wall-clock meta line — everything else is deterministic."""
    return [line for line in jsonl.splitlines()
            if json.loads(line).get("kind") != "meta"]


class TestMetrics:
    def test_counter_accumulates(self):
        tel = Telemetry()
        c = tel.counter("events", outcome="ok")
        c.inc()
        c.inc(4)
        assert tel.value("events", outcome="ok") == 5

    def test_counter_identity_by_name_and_labels(self):
        tel = Telemetry()
        assert tel.counter("x", a="1") is tel.counter("x", a="1")
        assert tel.counter("x", a="1") is not tel.counter("x", a="2")

    def test_gauge_set(self):
        tel = Telemetry()
        g = tel.gauge("depth")
        g.set(10)
        g.set(8)
        assert tel.value("depth") == 8

    def test_histogram_bucket_edges_inclusive_upper(self):
        h = Histogram("lat", bounds=(1, 2, 5))
        for v in (0.5, 1, 1.5, 2, 5, 7):
            h.observe(v)
        record = h.to_record()
        # bounds are inclusive uppers; the last bucket is overflow.
        assert record["le"] == [1, 2, 5]
        assert record["counts"] == [2, 2, 1, 1]
        assert record["count"] == 6
        assert record["sum"] == pytest.approx(17.0)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            Histogram("bad", bounds=(2, 1))
        with pytest.raises(ConfigurationError):
            Histogram("bad", bounds=())

    def test_histogram_rebind_with_other_bounds_rejected(self):
        registry = MetricRegistry()
        registry.histogram("h", bounds=(1, 2))
        with pytest.raises(ConfigurationError):
            registry.histogram("h", bounds=(1, 2, 3))

    def test_registry_orders_metrics_deterministically(self):
        tel = Telemetry()
        tel.counter("z").inc()
        tel.counter("a", k="2").inc()
        tel.counter("a", k="1").inc()
        names = [(m.name, m.labels) for m in tel.registry.metrics()]
        assert names == sorted(names)


class TestNullTelemetry:
    def test_null_instruments_are_shared_no_ops(self):
        tel = NullTelemetry()
        assert tel.counter("anything", a="b") is NULL_COUNTER
        assert tel.gauge("g") is NULL_GAUGE
        assert tel.histogram("h", bounds=(1, 2)) is NULL_HISTOGRAM
        tel.counter("x").inc(100)
        tel.gauge("y").set(5)
        tel.histogram("z", bounds=(1,)).observe(3)
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.value == 0
        assert NULL_HISTOGRAM.count == 0

    def test_null_span_and_phase_record_nothing(self):
        tel = NullTelemetry()
        tel.span("s", 0, 1)
        with tel.phase("p"):
            pass
        assert tel.spans == []
        assert "phases" not in tel.meta
        assert not tel.enabled

    def test_null_jsonl_is_header_and_meta_only(self):
        lines = NullTelemetry().to_jsonl().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["kind"] == "header"
        assert json.loads(lines[1])["kind"] == "meta"

    def test_coalesce(self):
        tel = Telemetry()
        assert coalesce(tel) is tel
        assert coalesce(None) is NULL_TELEMETRY
        assert not NULL_TELEMETRY.enabled


class TestSpans:
    def test_span_validation(self):
        with pytest.raises(ConfigurationError):
            Span(name="s", track="t", unit="fortnight", start=0, end=1)
        with pytest.raises(ConfigurationError):
            Span(name="s", track="t", unit="ms", start=2, end=1)

    def test_units_cover_sim_and_wall_domains(self):
        assert {"us", "ms", "s", "slot", "cycle"} <= set(SPAN_UNITS)

    def test_span_duration(self):
        span = Span(name="s", track="t", unit="slot", start=3, end=7)
        assert span.duration == 4


class TestExporters:
    def _populated(self) -> Telemetry:
        tel = Telemetry(name="t")
        tel.counter("hits", outcome="ok").inc(3)
        tel.histogram("width", bounds=(1, 4)).observe(2)
        tel.gauge("wall_depth", wall=True).set(9)
        tel.span("epoch 0", 0, 64, track="epochs", unit="slot")
        tel.span("load", 0.0, 1.5, track="phases", unit="s", wall=True)
        return tel

    def test_jsonl_repeated_build_is_identical_modulo_meta(self):
        def build() -> str:
            return self._populated().to_jsonl()
        assert _strip_meta(build()) == _strip_meta(build())

    def test_jsonl_quarantines_wall_clock_into_meta(self):
        lines = self._populated().to_jsonl().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["kind"] == "header"
        assert records[-1]["kind"] == "meta"
        body = records[1:-1]
        # Nothing wall-clock-derived may appear before the meta line.
        assert all("wall" not in r.get("name", "") for r in body)
        names = {r["name"] for r in body}
        assert {"hits", "width"} <= names
        meta = records[-1]
        assert [m["name"] for m in meta["wall_metrics"]] == ["wall_depth"]
        assert [s["name"] for s in meta["wall_spans"]] == ["load"]

    def test_chrome_trace_schema(self):
        trace = chrome_trace(self._populated())
        events = trace["traceEvents"]
        assert events, "trace must not be empty"
        for event in events:
            assert {"ph", "pid", "name"} <= set(event)
            if event["ph"] == "X":
                assert event["dur"] > 0
        # Simulated tracks on pid 1, wall-clock tracks on pid 2.
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert pids == {1, 2}
        # The whole thing must serialise (Perfetto loads JSON text).
        json.dumps(trace)

    def test_chrome_trace_thread_names_are_metadata(self):
        trace = chrome_trace(self._populated())
        names = {e["args"]["name"] for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert "epochs [slot]" in names


class TestCounterTracks:
    def test_jsonl_emits_counter_track_line(self):
        tel = Telemetry("t")
        tel.counter_track("util", [(0, 0.25), (64, 0.5)],
                          track="fabric")
        records = [json.loads(line)
                   for line in tel.to_jsonl().splitlines()]
        tracks = [r for r in records if r["kind"] == "counter_track"]
        assert len(tracks) == 1
        assert tracks[0]["name"] == "util"
        assert tracks[0]["points"] == [[0, 0.25], [64, 0.5]]

    def test_wall_counter_track_quarantined_into_meta(self):
        tel = Telemetry("t")
        tel.counter_track("rss", [(0.0, 10.0)], unit="s", wall=True)
        records = [json.loads(line)
                   for line in tel.to_jsonl().splitlines()]
        assert all(r["kind"] != "counter_track" for r in records[:-1])
        meta = records[-1]
        assert meta["wall_counter_tracks"][0]["name"] == "rss"

    def test_chrome_trace_renders_counter_events(self):
        tel = Telemetry("t")
        tel.counter_track("util", [(0, 0.25), (64, 0.5)],
                          track="fabric")
        counters = [e for e in chrome_trace(tel)["traceEvents"]
                    if e.get("ph") == "C"]
        assert [e["args"]["util"] for e in counters] == [0.25, 0.5]
        assert all(e["cat"] == "fabric" for e in counters)

    def test_counter_track_validation(self):
        from repro.telemetry.spans import CounterTrack
        with pytest.raises(ConfigurationError):
            CounterTrack("empty", track="t", unit="slot", points=())
        with pytest.raises(ConfigurationError):
            CounterTrack("rev", track="t", unit="slot",
                         points=((2, 1.0), (1, 2.0)))
        with pytest.raises(ConfigurationError):
            CounterTrack("bad", track="t", unit="lightyear",
                         points=((0, 1.0),))

    def test_null_telemetry_discards_counter_tracks(self):
        tel = NullTelemetry()
        tel.counter_track("anything", [(0, 1.0)])
        assert "counter_track" not in tel.to_jsonl()


class TestReportByteIdentity:
    """Telemetry-on and telemetry-off reports must match byte for byte."""

    def test_serve_demo_identical_with_telemetry(self):
        from repro.campaign.kinds import run_kind
        from repro.campaign.presets import serve_demo
        run, = serve_demo(n_events=60).expand()
        tel = Telemetry()
        record_on = run_kind(run, telemetry=tel)
        assert record_on == run_kind(run), \
            "telemetry leaked into the canonical report"
        # ... and the instrumented run actually recorded something.
        assert tel.value("admission.decisions", outcome="accept") > 0
        assert tel.value("executor.dispatch") is None  # no sim here
        # The invariant checker says which path each check took; the
        # tallies ride outside the report's ``invariant`` section.
        invariant = record_on["result"]["invariant"]
        assert (tel.value("invariants.checks", path="digest")
                + tel.value("invariants.checks", path="rescan")
                == invariant["transitions_checked"])
        assert tel.value("invariants.checks", path="rescan") == 0
        assert tel.value("invariants.full_validations") \
            == invariant["full_validations"]
        assert tel.value("invariants.records_compared") \
            == record_on["result"]["totals"]["active_at_end"]

    def test_serve_demo_telemetry_stream_is_deterministic(self):
        from repro.campaign.kinds import run_kind
        from repro.campaign.presets import serve_demo
        run, = serve_demo(n_events=60).expand()

        def stream() -> list[str]:
            tel = Telemetry()
            run_kind(run, telemetry=tel)
            return _strip_meta(tel.to_jsonl())

        first = stream()
        assert first == stream()
        assert len(first) > 2

    def test_campaign_meta_excluded_from_canonical_report(self):
        from repro.campaign import CampaignRunner, micro_campaign
        spec = micro_campaign()
        tel = Telemetry()
        on = CampaignRunner(spec, telemetry=tel).run()
        off = CampaignRunner(spec).run()
        assert on.to_json() == off.to_json()
        assert on.meta["stages"]["total_s"] > 0
        assert on.meta["heartbeats"][-1]["done"] == on.n_runs
        assert sum(entry["runs"] for entry
                   in on.meta["worker_table"].values()) == on.n_runs
        assert tel.value("campaign.runs", status="ok") is not None

    def test_campaign_serial_parallel_meta_both_populated(self):
        from repro.campaign import CampaignRunner, micro_campaign
        spec = micro_campaign()
        serial = CampaignRunner(spec, workers=1).run()
        parallel = CampaignRunner(spec, workers=2).run()
        assert serial.to_json() == parallel.to_json()
        assert len(parallel.meta["worker_table"]) >= 1
        assert "meta" not in json.loads(serial.to_json())


def _cbr_traffic(config):
    from repro.simulation.traffic import ConstantBitRate
    return {name: ConstantBitRate.from_rate(
        ca.spec.throughput_bytes_per_s, config.frequency_hz, config.fmt)
        for name, ca in config.allocation.channels.items()}


class TestExecutorTelemetry:
    def test_flit_backend_counts_epochs_and_patterns(self, tiny_config):
        from repro.simulation.backend import SimRequest, create_backend
        tel = Telemetry()
        backend = create_backend("flit", tiny_config, telemetry=tel)
        result = backend.run(SimRequest(
            n_slots=400, traffic=_cbr_traffic(tiny_config)))
        assert result.meta["executor"] in ("compiled", "per-flit")
        assert tel.value("executor.dispatch",
                         path=result.meta["executor"]) == 1
        assert tel.value("executor.epochs") == result.meta["n_epochs"] == 1
        assert any(s.track == "epochs" for s in tel.spans)

    def test_compiled_counters_describe_the_batch(self, tiny_config):
        from repro.simulation.backend import SimRequest, create_backend
        traffic = _cbr_traffic(tiny_config)
        request = SimRequest(n_slots=400, traffic=traffic)
        tel = Telemetry()
        on = create_backend("flit", tiny_config, telemetry=tel).run(request)
        off = create_backend("flit", tiny_config).run(request)
        assert json.dumps(on.to_record(), sort_keys=True) == \
            json.dumps(off.to_record(), sort_keys=True)
        stats = on.meta["executor_stats"]
        assert stats == off.meta["executor_stats"]
        assert set(stats) == {"pattern_compiles", "table_events",
                              "table_bytes", "interval_runs"}
        # One arrival stream per incarnation, all compiled in one batch.
        assert tel.value("executor.pattern_table", outcome="compile") == \
            stats["pattern_compiles"] == len(traffic)
        assert tel.value("executor.pattern_table", outcome="slice") is None
        assert tel.value("executor.pattern_table_bytes") == \
            stats["table_bytes"] == 3 * 8 * stats["table_events"]
        runs = [run for runs in on.stats._runs.values() for run in runs]
        assert tel.value("executor.interval_runs") == \
            stats["interval_runs"] == len(runs) > 0
        batch, = [record for record in tel.snapshot()
                  if record["name"] == "executor.interval_batch_messages"]
        assert (batch["count"], batch["sum"]) == \
            (len(runs), sum(run.count for run in runs))

    def test_all_backends_name_their_executor(self, tiny_config):
        from repro.simulation.backend import SimRequest, create_backend
        for kind in ("flit", "cycle", "be"):
            backend = create_backend(kind, tiny_config)
            result = backend.run(SimRequest(
                n_slots=300, traffic=_cbr_traffic(tiny_config)))
            executor = result.meta.get("executor")
            assert executor, f"{kind} backend did not name its executor"
            assert f"[{executor}]" in result.summary()


class TestEmptyLatencySummary:
    def test_of_empty_equals_empty(self):
        from repro.simulation.monitors import LatencySummary
        summary = LatencySummary.of([])
        assert summary == LatencySummary.empty()
        assert summary.count == 0
        assert summary.p99 == 0.0

    def test_latency_digest_degrades_gracefully(self):
        from repro.simulation.monitors import (StatsCollector,
                                               latency_digest)
        digest = latency_digest("idle", StatsCollector(), 100, "slots",
                                500e6)
        assert "no deliveries" in digest


class TestProfiling:
    def test_run_profiled_returns_result_and_prints_stats(self, capsys):
        import io

        from repro.telemetry import run_profiled
        stream = io.StringIO()
        result = run_profiled(lambda: sum(range(100)), stream=stream)
        assert result == 4950
        out = stream.getvalue()
        assert "profile" in out and "cumulative" in out
