"""Cross-validation of the flit-level and word-level simulators.

The load-bearing claims:

* **Agreement** — on any synchronous configuration the fast flit-level
  simulator and the detailed word-level model produce identical message
  latencies (the flit-synchronous abstraction is exact, not approximate);
* **Predictability** — no simulated message is ever later than the
  analytical worst-case bound, and saturated channels deliver exactly
  their guaranteed throughput;
* **Composability** — per-channel traces are bit-identical across any
  combination of other applications running or not.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis import analyse
from repro.core.application import Application, UseCase
from repro.core.configuration import configure
from repro.core.connection import MB, ChannelSpec
from repro.core.exceptions import AllocationError, ConfigurationError
from repro.core.timeline import static_lifetimes
from repro.core.words import WordFormat
from repro.simulation.backend import (BestEffortBackend,
                                      CycleAccurateBackend,
                                      FlitLevelBackend, SimRequest,
                                      available_backends,
                                      check_lifetime_contention,
                                      create_backend)
from repro.simulation.composability import compare_subsets
from repro.simulation.cyclesim import DetailedNetwork
from repro.simulation.monitors import LatencySummary
from repro.simulation.traffic import (BernoulliMessages, ConstantBitRate,
                                      PeriodicBurst, Replay, Saturating,
                                      MessageEvent)
from repro.topology.builders import mesh, ring
from repro.topology.mapping import Mapping, round_robin


def _cbr_traffic(config, factor=1.0, offset=0):
    return {name: ConstantBitRate.from_rate(
        ca.spec.throughput_bytes_per_s * factor, config.frequency_hz,
        config.fmt, offset_cycles=offset)
        for name, ca in config.allocation.channels.items()}


class TestTrafficPatterns:
    def test_cbr_rate_is_exact(self, fmt):
        pattern = ConstantBitRate.from_rate(100 * MB, 500e6, fmt)
        horizon = 300_000
        offered = sum(e.words for e in pattern.events(horizon)) * \
            fmt.bytes_per_word
        seconds = horizon / 500e6
        assert offered / seconds == pytest.approx(100 * MB, rel=0.01)

    def test_burst_pattern(self):
        pattern = PeriodicBurst(burst_messages=3, message_words=2,
                                period_cycles=30)
        events = pattern.events(60)
        assert len(events) == 6
        assert [e.cycle for e in events[:3]] == [0, 0, 0]

    def test_bernoulli_deterministic_per_seed(self):
        a = BernoulliMessages(0.4, 2, 3, seed=7).events(600)
        b = BernoulliMessages(0.4, 2, 3, seed=7).events(600)
        assert a == b

    def test_replay_requires_sorted(self):
        with pytest.raises(ConfigurationError):
            Replay([MessageEvent(10, 1, 0), MessageEvent(5, 1, 1)])

    @pytest.mark.parametrize("build, message", [
        (lambda fmt: ConstantBitRate(1, float("nan")),
         "interval_cycles must be a finite positive number, got nan"),
        (lambda fmt: ConstantBitRate(1, float("inf")),
         "interval_cycles must be a finite positive number, got inf"),
        (lambda fmt: ConstantBitRate.from_rate(float("nan"), 500e6, fmt),
         "throughput_bytes_per_s must be a finite positive number"),
        (lambda fmt: ConstantBitRate.from_rate(100 * MB, float("nan"), fmt),
         "interval_cycles must be a finite positive number, got nan"),
        (lambda fmt: ConstantBitRate(1.5, 4.0),
         "message_words must be a whole number >= 1"),
        (lambda fmt: ConstantBitRate(float("nan"), 4.0),
         "message_words must be a whole number >= 1"),
        (lambda fmt: PeriodicBurst(2, 2, 30, offset_cycles=-25),
         "offset_cycles must be >= 0"),
        (lambda fmt: Replay([MessageEvent(-7, 1, 0), MessageEvent(3, 1, 1)]),
         "replay events must not arrive before cycle 0"),
        (lambda fmt: Replay([MessageEvent(0, 0, 0), MessageEvent(1, 0, 0)]),
         "replay message ids must be distinct"),
    ], ids=["cbr-nan", "cbr-inf", "rate-nan", "frequency-nan",
            "cbr-fractional-words", "cbr-nan-words", "burst-negative-offset",
            "replay-negative-cycle", "replay-duplicate-id"])
    def test_constructor_refuses_where_it_is_called(self, fmt, build,
                                                    message):
        # Each of these used to be accepted and fail (or silently charge
        # a pre-start wait to the NoC) inside events() / the executors.
        with pytest.raises(ConfigurationError, match=message):
            build(fmt)

    @pytest.mark.parametrize("build, name", [
        (lambda: ConstantBitRate(2, 7.0, offset_cycles=float("nan")),
         "offset_cycles"),
        (lambda: ConstantBitRate(2, 7.0, offset_cycles=2.5),
         "offset_cycles"),
        (lambda: PeriodicBurst(2, 2.5, 40), "message_words"),
        (lambda: PeriodicBurst(1.5, 2, 40), "burst_messages"),
        (lambda: PeriodicBurst(2, 2, 7.5), "period_cycles"),
        (lambda: PeriodicBurst(2, 2, float("inf")), "period_cycles"),
        (lambda: PeriodicBurst(2, 2, 40, offset_cycles=0.5),
         "offset_cycles"),
        (lambda: Saturating(2.5, 3), "message_words"),
        (lambda: Saturating(2, 1.5), "flit_size"),
        (lambda: BernoulliMessages(0.5, 2.5, 3), "message_words"),
        (lambda: BernoulliMessages(0.5, 2, float("nan")), "flit_size"),
    ], ids=["cbr-nan-offset", "cbr-fractional-offset",
            "burst-fractional-words", "burst-fractional-burst",
            "burst-fractional-period", "burst-inf-period",
            "burst-fractional-offset", "saturating-fractional-words",
            "saturating-fractional-flit-size",
            "bernoulli-fractional-words", "bernoulli-nan-flit-size"])
    def test_fractional_or_non_finite_parameter_is_refused(self, build,
                                                           name):
        # Each used to construct: a NaN offset made events() loop
        # forever, fractional words were truncated by the compiled
        # executor but kept by events(), a fractional burst or flit size
        # raised TypeError inside numpy and a fractional offset or period
        # gave float cycles.
        with pytest.raises(ConfigurationError,
                           match=rf"^{name} must be a whole number >= \d"):
            build()

    def test_whole_float_parameters_are_stored_as_ints(self):
        burst = PeriodicBurst(2.0, 3.0, 40.0, offset_cycles=5.0)
        assert [type(value) for value in (
            burst.burst_messages, burst.message_words, burst.period_cycles,
            burst.offset_cycles)] == [int] * 4
        assert burst.events(50)[-1] == MessageEvent(45, 3, 3)

    def test_saturating_every_slot(self, fmt):
        events = Saturating(2, fmt.flit_size).events(30)
        assert [e.cycle for e in events] == [0, 3, 6, 9, 12, 15, 18, 21,
                                             24, 27]


def _flit(config, traffic, n_slots):
    return FlitLevelBackend(config).run(
        SimRequest(n_slots=n_slots, traffic=traffic))


def _check_contention(config, n_slots):
    """The contention check on the static lifetime table of ``config``."""
    check_lifetime_contention(static_lifetimes(config.allocation, n_slots),
                              n_slots, config.table_size)


class TestFlitSimulator:
    def test_latency_never_exceeds_bound(self, mesh_config):
        bounds = analyse(mesh_config.allocation)
        _check_contention(mesh_config, 2000)
        result = _flit(mesh_config, _cbr_traffic(mesh_config, offset=1),
                       2000)
        for name, bound in bounds.items():
            summary = result.stats.channel(name).latency_summary()
            assert summary.maximum <= bound.latency_ns + 1e-9

    def test_saturated_throughput_equals_guarantee(self, mesh_config):
        bounds = analyse(mesh_config.allocation)
        result = _flit(mesh_config, {
            name: Saturating(mesh_config.fmt.payload_words_per_flit,
                             mesh_config.fmt.flit_size)
            for name in mesh_config.allocation.channels}, 4000)
        for name, bound in bounds.items():
            measured = result.channel_throughput_bytes_per_s(name)
            assert measured == pytest.approx(
                bound.throughput_bytes_per_s, rel=0.02)

    def test_oversubscription_slows_only_itself(self, mesh_config):
        """2x offered load on c0 backlogs c0 but leaves c1/c2 untouched."""
        over = _cbr_traffic(mesh_config)
        over["c0"] = ConstantBitRate.from_rate(
            mesh_config.allocation.channel(
                "c0").spec.throughput_bytes_per_s * 3,
            mesh_config.frequency_hz, mesh_config.fmt)
        r_ref = _flit(mesh_config, _cbr_traffic(mesh_config), 2000)
        r_over = _flit(mesh_config, over, 2000)
        for unaffected in ("c1", "c2"):
            assert r_ref.composability_trace().trace(unaffected) == \
                r_over.composability_trace().trace(unaffected)
        # The oversubscribed channel itself falls behind (queueing).
        ref_max = r_ref.stats.channel("c0").latency_summary().maximum
        over_max = r_over.stats.channel("c0").latency_summary().maximum
        assert over_max > ref_max

    def test_contention_check_clean_on_valid_allocation(self, mesh_config):
        _check_contention(mesh_config, 1000)  # must not raise


class TestSimulatorAgreement:
    def test_sync_detailed_matches_flitsim_exactly(self, mesh_config):
        traffic = _cbr_traffic(mesh_config, offset=2)
        fres = _flit(mesh_config, traffic, 400)
        detailed = DetailedNetwork(mesh_config, clocking="synchronous",
                                   traffic=traffic, horizon_slots=400)
        dres = detailed.run()
        for name in mesh_config.allocation.channels:
            f = [(d.message_id, d.latency_ns)
                 for d in fres.stats.channel(name).deliveries]
            d = [(x.message_id, x.latency_ns)
                 for x in dres.stats.channel(name).deliveries]
            n = min(len(f), len(d))
            assert n > 5
            assert f[:n] == d[:n]

    def test_mesochronous_within_one_cycle_of_flitsim(self, mesh_config):
        traffic = _cbr_traffic(mesh_config, offset=2)
        fres = _flit(mesh_config, traffic, 300)
        detailed = DetailedNetwork(mesh_config, clocking="mesochronous",
                                   traffic=traffic, horizon_slots=300,
                                   mesochronous_seed=11)
        dres = detailed.run()
        cycle_ns = 1e9 / mesh_config.frequency_hz
        for name in mesh_config.allocation.channels:
            f = {d.message_id: d.latency_ns
                 for d in fres.stats.channel(name).deliveries}
            d = {x.message_id: x.latency_ns
                 for x in dres.stats.channel(name).deliveries}
            common = sorted(set(f) & set(d))
            assert len(common) > 5
            for mid in common:
                assert abs(f[mid] - d[mid]) <= cycle_ns

    def test_mesochronous_fifo_bounded(self, mesh_config):
        detailed = DetailedNetwork(mesh_config, clocking="mesochronous",
                                   traffic=_cbr_traffic(mesh_config),
                                   horizon_slots=300, mesochronous_seed=3)
        result = detailed.run()
        assert result.fifo_max_occupancy
        assert max(result.fifo_max_occupancy.values()) <= 4


def _backend_config(kind: str):
    """A small allocated configuration on a mesh or ring topology."""
    if kind == "mesh":
        topo = mesh(2, 2, nis_per_router=1, pipeline_stages=1)
        nis = ["ni0_0_0", "ni1_0_0", "ni1_1_0"]
    else:
        topo = ring(4, nis_per_router=1, pipeline_stages=1)
        nis = ["ni0_0_0", "ni1_0_0", "ni2_0_0"]
    channels = (
        ChannelSpec("c0", "ipA", "ipB", 60 * MB, application="appX"),
        ChannelSpec("c1", "ipB", "ipC", 60 * MB, application="appX"),
        ChannelSpec("c2", "ipC", "ipA", 60 * MB, application="appY"),
    )
    use_case = UseCase(f"{kind}_equiv", (
        Application("appX", channels[:2]),
        Application("appY", channels[2:]),
    ))
    mapping = Mapping({"ipA": nis[0], "ipB": nis[1], "ipC": nis[2]})
    return configure(topo, use_case, table_size=8, frequency_hz=500e6,
                     mapping=mapping)


class TestSimulationBackendProtocol:
    """The unified API: every simulator behind one request/result schema."""

    def test_registry_lists_all_backends(self):
        assert available_backends() == ("be", "cycle", "flit")
        with pytest.raises(ConfigurationError):
            create_backend("nope", None)

    @pytest.mark.parametrize("kind", ["mesh", "ring"])
    def test_flit_and_cycle_schedules_identical(self, kind):
        """Flit-level and cycle-accurate backends agree through the
        protocol: identical logical flit schedules on mesh and ring."""
        config = _backend_config(kind)
        request = SimRequest(n_slots=400, traffic=_cbr_traffic(
            config, offset=2))
        flit = create_backend("flit", config).run(request)
        cycle = create_backend(
            "cycle", config, clocking="synchronous").run(request)
        for name in config.allocation.channels:
            f = flit.logical_schedule(name)
            c = cycle.logical_schedule(name)
            n = min(len(f), len(c))
            assert n > 5
            assert f[:n] == c[:n]

    def test_requests_are_reusable_and_runs_independent(self, mesh_config):
        backend = FlitLevelBackend(mesh_config)
        request = SimRequest(n_slots=300, traffic=_cbr_traffic(mesh_config))
        first = backend.run(request)
        second = backend.run(request)
        for name in mesh_config.allocation.channels:
            assert first.logical_schedule(name) == \
                second.logical_schedule(name)

    def test_be_backend_takes_frequency_override(self, mesh_config):
        backend = BestEffortBackend(mesh_config, buffer_flits=2)
        request = SimRequest(n_slots=300,
                             traffic=_cbr_traffic(mesh_config),
                             frequency_hz=1e9)
        result = backend.run(request)
        assert result.frequency_hz == 1e9
        assert result.backend == "be"

    @pytest.mark.parametrize("build", [
        lambda config: FlitLevelBackend(config, compiled=False),
        lambda config: FlitLevelBackend(config, check_contention=True),
        lambda config: BestEffortBackend(config, frequency_hz=5e8),
    ], ids=["flit-compiled", "flit-check-contention", "be-frequency"])
    def test_a_run_has_one_source_of_settings(self, mesh_config, build):
        """The flit backend runs one executor (its oracle and the
        contention check are called directly) and the best-effort one
        is retimed by the request alone."""
        with pytest.raises(TypeError):
            build(mesh_config)

    @pytest.mark.parametrize("build, option", [
        (lambda config: CycleAccurateBackend(config, clocking="bogus"),
         "clocking"),
        *((lambda config, ppm=ppm: CycleAccurateBackend(
            config, plesiochronous_ppm=ppm), "plesiochronous_ppm")
          for ppm in (float("nan"), -1.0, float("inf")))],
        ids=["clocking", "ppm-nan", "ppm-negative", "ppm-inf"])
    def test_cycle_backend_refuses_its_options_at_construction(
            self, mesh_config, build, option):
        """Refused where they are given, not at the first run."""
        with pytest.raises(ConfigurationError, match=option):
            build(mesh_config)

    def test_tdm_backends_reject_frequency_override(self, mesh_config):
        request = SimRequest(n_slots=100,
                             traffic=_cbr_traffic(mesh_config),
                             frequency_hz=1e9)
        with pytest.raises(ConfigurationError):
            FlitLevelBackend(mesh_config).run(request)
        with pytest.raises(ConfigurationError):
            CycleAccurateBackend(mesh_config).run(request)

    def test_unknown_traffic_channel_rejected(self, mesh_config):
        request = SimRequest(n_slots=100,
                             traffic={"ghost": Saturating(2, 3)})
        with pytest.raises(ConfigurationError):
            FlitLevelBackend(mesh_config).run(request)

    def test_invalid_request_rejected(self):
        with pytest.raises(ConfigurationError):
            SimRequest(n_slots=0)
        with pytest.raises(ConfigurationError):
            SimRequest(n_slots=10, frequency_hz=-1.0)

    def test_result_schema_uniform_across_backends(self, mesh_config):
        request = SimRequest(n_slots=300,
                             traffic=_cbr_traffic(mesh_config))
        for kind in available_backends():
            result = create_backend(kind, mesh_config).run(request)
            assert result.backend == kind
            assert result.simulated_slots == 300
            summary = result.latency_summary()
            assert summary is not None and summary.count > 0
            record = result.to_record()
            assert record["backend"] == kind
            assert record["latency_ns"]["p99"] >= record["latency_ns"]["p50"]
            text = result.summary()
            assert "p99" in text and kind in text
            assert "p99" in repr(result)

    @pytest.mark.parametrize("kind", ["flit", "cycle", "be"])
    def test_record_latency_is_the_summary_of_every_latency(
            self, mesh_config, kind):
        """The record's overall summary, built from the channels'
        sorted samples, is the summary of all latencies sorted afresh —
        the mean bit for bit."""
        result = create_backend(kind, mesh_config).run(SimRequest(
            n_slots=300, traffic=_cbr_traffic(mesh_config)))
        latencies = result.stats.all_latencies_ns()
        expected = LatencySummary.of(latencies)
        overall = result.to_record()["latency_ns"]
        assert overall == {
            "min": round(expected.minimum, 3),
            "mean": round(expected.mean, 3), "p50": round(expected.p50, 3),
            "p99": round(expected.p99, 3), "max": round(expected.maximum, 3)}

    def test_silent_channels_absent_from_stats(self, mesh_config):
        """Channels that recorded nothing stay out of stats/records."""
        traffic = _cbr_traffic(mesh_config)
        subset = {"c0": traffic["c0"]}
        result = FlitLevelBackend(mesh_config).run(
            SimRequest(n_slots=300, traffic=subset))
        assert result.stats.channels == ("c0",)
        # Reading a silent channel is pure: it must not register it.
        assert result.stats.channel("c1").deliveries == []
        assert result.stats.service_latencies_ns("c1") == []
        assert result.stats.channels == ("c0",)
        assert sorted(result.to_record()["channels"]) == ["c0"]

    def test_composability_trace_rebuilt_from_stats(self, mesh_config):
        """Every backend's trace is the same read of its record log."""
        request = SimRequest(n_slots=300,
                             traffic=_cbr_traffic(mesh_config, offset=2))
        flit = FlitLevelBackend(mesh_config).run(request)
        cycle = CycleAccurateBackend(
            mesh_config, clocking="synchronous").run(request)
        rebuilt = cycle.composability_trace()
        native = flit.composability_trace()
        for name in mesh_config.allocation.channels:
            n = min(len(native.trace(name)), len(rebuilt.trace(name)))
            assert n > 5
            # message ids and delivery order agree; the flit executor's
            # injection slots are absolute, the NI's count its own
            # cycles, so compare id sequences.
            assert [e[0] for e in native.trace(name)[:n]] == \
                [e[0] for e in rebuilt.trace(name)[:n]]


class TestOneOperatingPoint:
    """A configuration's operating point is its allocation's: a copy
    that disagrees with the allocation cannot be built."""

    @pytest.fixture
    def config(self):
        spec = ChannelSpec("c", "ipA", "ipB", 100 * MB, application="app")
        return configure(
            mesh(2, 2, nis_per_router=1),
            UseCase("one", (Application("app", (spec,)),)),
            table_size=8, frequency_hz=500e6,
            mapping=Mapping({"ipA": "ni0_0_0", "ipB": "ni1_0_0"}))

    def test_it_is_read_off_the_allocation(self, config):
        allocation = config.allocation
        assert [f.name for f in dataclasses.fields(config)] == \
            ["use_case", "mapping", "allocation"]
        assert (config.topology, config.table_size, config.frequency_hz,
                config.fmt) == (allocation.topology, allocation.table_size,
                                allocation.frequency_hz, allocation.fmt)

    @pytest.mark.parametrize("changed", [
        {"table_size": 16}, {"frequency_hz": 250e6},
        {"fmt": WordFormat(flit_size=4)},
        {"topology": mesh(2, 2, nis_per_router=1)}])
    def test_a_second_copy_cannot_be_set(self, config, changed):
        with pytest.raises(TypeError):
            dataclasses.replace(config, **changed)


class TestOneEntryOneVetting:
    """Every malformed request is refused by the backend, with a
    ``ConfigurationError``, before an engine is imported or run."""

    @pytest.fixture
    def engines(self, monkeypatch):
        """Spies on the four engines; the list names whichever ran."""
        import repro.baseline.be_network as be_network
        import repro.simulation.compiled as compiled
        import repro.simulation.cyclesim as cyclesim
        import repro.simulation.flitsim as flitsim
        ran = []
        for module, name in ((flitsim, "execute"), (compiled, "execute"),
                             (be_network.BeNetworkSimulator, "run"),
                             (cyclesim.DetailedNetwork, "__init__")):
            original = getattr(module, name)

            def spy(*args, _original=original, _name=name, **kwargs):
                ran.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        return ran

    @staticmethod
    def _timeline(config, **changed):
        """One start of ``config``'s channels; a changed ``table_size``
        carries them placed in that table (a timeline refuses a record
        of another size)."""
        from repro.core.timeline import (ReconfigurationTimeline,
                                         TimelineEvent)
        size = changed.get("table_size", config.table_size)
        return ReconfigurationTimeline(**{
            "topology": config.topology,
            "events": [TimelineEvent(
                0, "start", "app",
                tuple(dataclasses.replace(ca, table_size=size)
                      for ca in config.allocation.channels.values()))],
            "horizon_slots": 200, "table_size": config.table_size,
            "frequency_hz": config.frequency_hz, "fmt": config.fmt,
            **changed})

    def _malformed(self, config):
        """fault -> (request arguments, backends it must stop at)."""
        traffic = _cbr_traffic(config)
        tdm, replaying, every = ("flit", "cycle"), ("flit", "be"), \
            ("flit", "be", "cycle")
        other = mesh(2, 2, nis_per_router=1, pipeline_stages=1)
        return {
            "unknown traffic": (dict(n_slots=100, traffic={
                **traffic, "ghost": traffic["c0"]}), every),
            "unknown timeline traffic": (dict(
                n_slots=100, traffic={"ghost": traffic["c0"]},
                timeline=self._timeline(config)), every),
            "frequency override": (dict(
                n_slots=100, traffic=traffic, frequency_hz=1e9), tdm),
            "table size": (dict(n_slots=100, traffic=traffic,
                                timeline=self._timeline(
                                    config, table_size=16)), every),
            "frequency": (dict(n_slots=100, traffic=traffic,
                               timeline=self._timeline(
                                   config, frequency_hz=250e6)), tdm),
            "format": (dict(n_slots=100, traffic=traffic,
                            timeline=self._timeline(
                                config, fmt=WordFormat(flit_size=4))),
                       every),
            "topology object": (dict(
                n_slots=100, traffic=traffic, timeline=self._timeline(
                    config, topology=other, events=[])), every),
        }

    @pytest.mark.parametrize("kind", ["flit", "be", "cycle"])
    def test_refused_before_any_engine(self, mesh_config, engines, kind):
        backend = create_backend(kind, mesh_config)
        refused = 0
        for fault, (arguments, stops_at) in \
                self._malformed(mesh_config).items():
            if kind in stops_at:
                with pytest.raises(ConfigurationError):
                    backend.run(SimRequest(**arguments))
                refused += 1
        assert refused >= 5 and engines == []
        # A horizon past the timeline's never becomes a request at all.
        with pytest.raises(ConfigurationError, match="exceeds the timeline"):
            SimRequest(n_slots=201, timeline=self._timeline(mesh_config))
        # ... and a well-formed one reaches exactly this backend's engine.
        backend.run(SimRequest(n_slots=50,
                               traffic=_cbr_traffic(mesh_config)))
        assert engines == [{"flit": "execute", "be": "run",
                            "cycle": "__init__"}[kind]]

    def test_each_request_is_vetted_exactly_once(self, mesh_config,
                                                 monkeypatch):
        from repro.core.timeline import ReconfigurationTimeline
        calls = []
        for owner, name in ((ReconfigurationTimeline, "check_replay"),
                            (FlitLevelBackend, "_check_traffic"),
                            (BestEffortBackend, "_check_traffic")):
            original = getattr(owner, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        timeline = self._timeline(mesh_config)
        traffic = _cbr_traffic(mesh_config)
        for backend in (FlitLevelBackend(mesh_config),
                        BestEffortBackend(mesh_config)):
            del calls[:]
            backend.run(SimRequest(n_slots=60, traffic=traffic))
            assert calls == ["_check_traffic"]
            del calls[:]
            backend.run(SimRequest(n_slots=60, traffic=traffic,
                                   timeline=timeline))
            assert calls == ["check_replay"]


class TestComposability:
    def test_application_subsets_bit_identical(self, mesh_config):
        traffic = _cbr_traffic(mesh_config)
        scenarios = {
            "appX_alone": {"c0", "c1"},
            "appY_alone": {"c2"},
            "c0_alone": {"c0"},
        }
        reports = compare_subsets(mesh_config, traffic, scenarios,
                                  n_slots=1500)
        for report in reports:
            assert report.is_composable, report

    def test_perturbed_neighbours_do_not_matter(self, mesh_config):
        """Changing appY's traffic wildly never moves appX's flits."""
        from repro.simulation.composability import run_with_channels
        base = _cbr_traffic(mesh_config)
        crazy = dict(base)
        crazy["c2"] = Saturating(mesh_config.fmt.payload_words_per_flit,
                                 mesh_config.fmt.flit_size)
        t_base = run_with_channels(mesh_config, base,
                                   {"c0", "c1", "c2"}, 1500)
        t_crazy = run_with_channels(mesh_config, crazy,
                                    {"c0", "c1", "c2"}, 1500)
        for survivor in ("c0", "c1"):
            assert t_base.trace(survivor) == t_crazy.trace(survivor)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_composability_random_workloads(self, seed):
        """Property: random feasible workloads are always composable."""
        rng = random.Random(seed)
        topo = mesh(2, 2, nis_per_router=1)
        ips = [f"ip{i}" for i in range(8)]
        mapping = round_robin(ips, topo)
        channels = []
        for i in range(6):
            src, dst = rng.sample(ips, 2)
            while mapping.ni_of(src) == mapping.ni_of(dst):
                src, dst = rng.sample(ips, 2)
            channels.append(ChannelSpec(
                f"c{i}", src, dst, rng.uniform(5, 60) * MB,
                application=f"app{i % 2}"))
        apps = tuple(
            Application(f"app{k}", tuple(
                c for c in channels if c.application == f"app{k}"))
            for k in range(2))
        use_case = UseCase("rand", apps)
        try:
            config = configure(topo, use_case, table_size=16,
                               frequency_hz=500e6, mapping=mapping)
        except AllocationError:
            return
        traffic = {
            c.name: BernoulliMessages(0.5, 2, 3, seed=seed + i)
            for i, c in enumerate(channels)}
        reports = compare_subsets(
            config, traffic,
            {"app0": {c.name for c in channels
                      if c.application == "app0"}},
            n_slots=600)
        assert all(r.is_composable for r in reports)
