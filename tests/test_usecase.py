"""Tests for the Section VII use-case generator and runners."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import ConfigurationError
from repro.experiments.section7 import be_sweep_rows
from repro.usecase.generator import (Section7Parameters, _sample_pair,
                                     generate_section7)
from repro.usecase.runner import (be_frequency_sweep, burst_traffic,
                                  cbr_traffic, configure_section7, run_be,
                                  run_gs)


@pytest.fixture(scope="module")
def section7_small():
    """A reduced instance (fast) that keeps the paper's structure."""
    params = Section7Parameters(seed=7, connections_per_application=12,
                                n_ips=40)
    instance = generate_section7(params)
    return configure_section7(instance)


def _fingerprint(instance) -> str:
    """sha256 of every channel's name, endpoints, throughput and latency
    requirement, in order, plus the IP-to-NI mapping."""
    digest = hashlib.sha256()
    for spec in instance.use_case.channels:
        digest.update(repr((spec.name, spec.src_ip, spec.dst_ip,
                            spec.throughput_bytes_per_s,
                            spec.max_latency_ns)).encode())
    digest.update(repr(sorted(instance.mapping.ip_to_ni.items())).encode())
    return digest.hexdigest()


class TestGenerator:
    @pytest.mark.parametrize("params, expected", [
        (Section7Parameters(),
         "7cba9d121af48d0cf9b9b9f98c80e535"
         "37352e953e3c74573452b900042048bd"),
        # 25 IPs an application: random.sample's redraw branch (> 21).
        (Section7Parameters(n_ips=100),
         "65c66ba48c226220b9228b1762bad6c6"
         "42758b17cf2b3100b6e13d8589d30cdd")])
    def test_instance_is_pinned(self, params, expected):
        """The generated instance, draw for draw, as random.sample drew
        it: any change to the endpoint draws moves these digests."""
        assert _fingerprint(generate_section7(params)) == expected

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_pair_draw_is_random_sample(self, seed):
        """Pair for pair and state for state, the two-number draw is
        ``random.Random.sample(population, 2)`` on 2 to 64 items."""
        ours, reference = random.Random(seed), random.Random(seed)
        for n in range(2, 65):
            population = list(range(n))
            for _ in range(8):
                assert list(_sample_pair(ours, n)) == \
                    reference.sample(population, 2), n
        assert ours.getstate() == reference.getstate()

    def test_paper_scale_defaults(self):
        params = Section7Parameters()
        assert params.n_connections == 200
        assert params.n_ips == 70
        assert (params.cols, params.rows, params.nis_per_router) == \
            (4, 3, 4)

    def test_deterministic_per_seed(self):
        a = generate_section7(Section7Parameters(seed=3))
        b = generate_section7(Section7Parameters(seed=3))
        assert [c.name for c in a.use_case.channels] == \
            [c.name for c in b.use_case.channels]
        assert [c.throughput_bytes_per_s for c in a.use_case.channels] \
            == [c.throughput_bytes_per_s for c in b.use_case.channels]
        assert a.mapping.ip_to_ni == b.mapping.ip_to_ni

    def test_different_seeds_differ(self):
        a = generate_section7(Section7Parameters(seed=3))
        b = generate_section7(Section7Parameters(seed=4))
        assert [c.throughput_bytes_per_s for c in a.use_case.channels] \
            != [c.throughput_bytes_per_s for c in b.use_case.channels]

    def test_requirements_within_paper_ranges(self):
        instance = generate_section7()
        for spec in instance.use_case.channels:
            assert 10e6 <= spec.throughput_bytes_per_s <= 500e6
            assert 35.0 <= spec.max_latency_ns <= 500.0

    def test_four_applications_of_fifty(self):
        instance = generate_section7()
        assert len(instance.use_case.applications) == 4
        for app in instance.use_case.applications:
            assert len(app.channels) == 50

    def test_endpoints_on_distinct_nis(self):
        instance = generate_section7()
        for spec in instance.use_case.channels:
            assert instance.mapping.ni_of(spec.src_ip) != \
                instance.mapping.ni_of(spec.dst_ip)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError, match="bad latency range"):
            Section7Parameters(max_latency_ns=30.0)  # below the 35 ns floor
        with pytest.raises(ConfigurationError):
            Section7Parameters(n_applications=0)
        with pytest.raises(ConfigurationError, match="IPs cannot give"):
            Section7Parameters(n_ips=7)  # an application of one IP

    @pytest.mark.parametrize("field, value", [
        ("max_latency_ns", float("nan")),
        ("max_latency_ns", float("inf"))])
    def test_non_finite_range_bound_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match="bad .* range"):
            Section7Parameters(**{field: value})

    @pytest.mark.parametrize("seed", [1, 2, 42, 2009])
    def test_generated_instances_allocate_at_500mhz(self, seed):
        """The headline claim must be robust over seeds, not luck."""
        params = Section7Parameters(seed=seed)
        instance = generate_section7(params)
        _, config = configure_section7(instance)
        assert len(config.allocation.channels) == 200
        assert config.summary().all_requirements_met


class TestRunners:
    def test_gs_meets_requirements(self, section7_small):
        _, config = section7_small
        outcome = run_gs(config, n_slots=1200)
        assert outcome.all_requirements_met
        assert outcome.all_within_bounds

    def test_gs_cbr_traffic_also_conforms(self, section7_small):
        _, config = section7_small
        outcome = run_gs(config, n_slots=1200,
                         traffic=cbr_traffic(config))
        assert outcome.all_requirements_met

    def test_be_improves_with_frequency(self, section7_small):
        _, config = section7_small
        rows = be_frequency_sweep(config, [400e6, 1200e6], n_ticks=1200)
        assert rows[1].n_latency_ok >= rows[0].n_latency_ok
        assert rows[1].mean_latency_ns < rows[0].mean_latency_ns

    def test_service_latency_excludes_self_queueing(self, section7_small):
        """Service latencies are never longer than raw latencies."""
        _, config = section7_small
        outcome = run_gs(config, n_slots=1200)
        stats = outcome.result.stats
        for name in list(config.allocation.channels)[:10]:
            service = stats.service_latencies_ns(name)
            raw = [d.latency_ns for d in stats.channel(name).deliveries]
            assert len(service) == len(raw)
            for s, r in zip(service, raw):
                assert s <= r + 1e-9

    def test_burst_traffic_rate_matches_requirement(self, section7_small):
        _, config = section7_small
        patterns = burst_traffic(config)
        horizon = 120_000
        for name, ca in list(config.allocation.channels.items())[:8]:
            offered = sum(e.words for e in patterns[name].events(
                horizon)) * config.fmt.bytes_per_word
            seconds = horizon / config.frequency_hz
            assert offered / seconds == pytest.approx(
                ca.spec.throughput_bytes_per_s, rel=0.06)

    def test_zero_negotiations_raises_allocation_error(self):
        """max_negotiations=0 degrades to a plain AllocationError."""
        from repro.core.exceptions import AllocationError
        params = Section7Parameters(seed=7,
                                    connections_per_application=12,
                                    n_ips=40)
        instance = generate_section7(params)
        with pytest.raises(AllocationError):
            configure_section7(instance, max_negotiations=0)

    def test_exhausted_negotiation_names_last_failure(self):
        """An exhausted negotiation surfaces channel name and reason."""
        from repro.core.exceptions import AllocationError
        params = Section7Parameters(seed=7,
                                    connections_per_application=12,
                                    n_ips=40)
        instance = generate_section7(params)
        with pytest.raises(AllocationError) as excinfo:
            # 120 MHz is far below feasibility for this instance, so
            # negotiation relaxes a few channels and then gives up.
            configure_section7(instance, frequency_hz=120e6,
                               max_negotiations=2)
        error = excinfo.value
        assert "last failure on channel" in str(error)
        assert error.channel is not None
        assert error.reason

    def test_empty_traffic_is_run_as_given(self, section7_small):
        """No traffic offered is not the burst workload."""
        _, config = section7_small
        assert run_gs(config, n_slots=300, traffic={}).n_measured == 0
        outcome = run_be(config, frequency_hz=500e6, n_ticks=300,
                         traffic={})
        assert outcome.n_measured == 0

    @pytest.mark.parametrize("option, value", [
        ("frequency_hz", 0.0), ("frequency_hz", -5e8),
        ("frequency_hz", float("nan")), ("frequency_hz", float("inf")),
        ("rate_factor", 0.0), ("rate_factor", -1.0),
        ("rate_factor", float("inf")),
        ("burst_messages", 0), ("burst_messages", 2.5)])
    def test_bad_burst_option_refused(self, section7_small, option, value):
        """A zero frequency is refused, not swapped for the default; a
        zero rate factor is refused, not divided by."""
        _, config = section7_small
        with pytest.raises(ConfigurationError, match=option):
            burst_traffic(config, **{option: value})

    @pytest.mark.parametrize("n_ticks", [0, -5, 2.5, float("nan")])
    @pytest.mark.parametrize("entry", ["run_be", "be_frequency_sweep",
                                       "be_sweep_rows"])
    def test_bad_tick_count_refused_under_its_name(self, section7_small,
                                                   entry, n_ticks):
        """The best-effort entry points name ``n_ticks``, the argument
        the caller passed, not the request's ``n_slots``."""
        _, config = section7_small
        call = {"run_be": lambda: run_be(config, frequency_hz=5e8,
                                         n_ticks=n_ticks),
                "be_frequency_sweep": lambda: be_frequency_sweep(
                    config, [5e8], n_ticks=n_ticks),
                "be_sweep_rows": lambda: be_sweep_rows(
                    config, frequencies_mhz=[500], n_ticks=n_ticks)}[entry]
        with pytest.raises(ConfigurationError, match="^n_ticks must be"):
            call()

    def test_bad_cbr_rate_factor_refused(self, section7_small):
        _, config = section7_small
        with pytest.raises(ConfigurationError, match="rate_factor"):
            cbr_traffic(config, rate_factor=0.0)

    def test_zero_frequency_not_the_default(self, section7_small):
        instance, _ = section7_small
        with pytest.raises(ConfigurationError, match="frequency_hz"):
            configure_section7(instance, frequency_hz=0.0)

    def test_empty_sweep_rejected(self, section7_small):
        _, config = section7_small
        with pytest.raises(ConfigurationError, match="at least one point"):
            be_frequency_sweep(config, [])


class TestSweepRefusesBeforeAnyRun:
    """A sweep checks every point before its first run: a bool, a
    string, ``None`` or a NaN is a ``ConfigurationError`` naming the
    argument, never a run at 1 Hz or a bare ``TypeError`` after the
    good points have run."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """The frequencies the sweep ran ``run_be`` at."""
        import repro.usecase.runner as runner
        ran: list[float] = []
        monkeypatch.setattr(runner, "run_be", lambda config, *,
                            frequency_hz, n_ticks: ran.append(frequency_hz))
        return ran

    @pytest.mark.parametrize("points", [
        [True], [500e6, True], ["5"], [None], [500e6, float("nan")],
        [500e6, 0.0], [500e6, -1e8], [float("inf")]],
        ids=["bool", "good-then-bool", "string", "none", "good-then-nan",
             "good-then-zero", "good-then-negative", "inf"])
    def test_frequency_sweep(self, section7_small, runs, points):
        _, config = section7_small
        with pytest.raises(ConfigurationError, match="^frequency_hz must"):
            be_frequency_sweep(config, points, n_ticks=50)
        assert runs == []

    @pytest.mark.parametrize("points", [
        [True], [500, "900"], [None], [500, float("nan")], [500, 0]],
        ids=["bool", "good-then-string", "none", "good-then-nan",
             "good-then-zero"])
    def test_sweep_rows(self, section7_small, runs, points):
        _, config = section7_small
        with pytest.raises(ConfigurationError,
                           match="^frequencies_mhz must"):
            be_sweep_rows(config, frequencies_mhz=points, n_ticks=50)
        assert runs == []

    def test_an_empty_list_is_not_the_default(self, section7_small, runs):
        _, config = section7_small
        with pytest.raises(ConfigurationError, match="at least one point"):
            be_sweep_rows(config, frequencies_mhz=[], n_ticks=50)
        assert runs == []
