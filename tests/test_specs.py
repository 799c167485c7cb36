"""Tests for channel/application/use-case specifications."""

from __future__ import annotations

import pytest

from repro.core.application import Application, UseCase
from repro.core.connection import GB, MB, NS, US, ChannelSpec
from repro.core.exceptions import ConfigurationError


class TestChannelSpec:
    def test_valid_spec(self):
        spec = ChannelSpec("c", "a", "b", 100 * MB, max_latency_ns=50.0)
        assert spec.throughput_bytes_per_s == 100e6

    def test_unit_helpers(self):
        assert MB == 1e6 and GB == 1e9
        assert NS == 1e-9 and US == 1e-6

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError):
            ChannelSpec("c", "a", "a", 1 * MB)

    def test_negative_throughput_rejected(self):
        with pytest.raises(ConfigurationError):
            ChannelSpec("c", "a", "b", -1.0)

    def test_zero_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            ChannelSpec("c", "a", "b", 1 * MB, max_latency_ns=0.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            ChannelSpec("", "a", "b", 1 * MB)

    def test_scaled(self):
        spec = ChannelSpec("c", "a", "b", 100 * MB)
        assert spec.scaled(2.0).throughput_bytes_per_s == 200e6
        assert spec.throughput_bytes_per_s == 100e6


class TestApplicationAndUseCase:
    def test_duplicate_channel_rejected(self):
        spec = ChannelSpec("c", "a", "b", 1 * MB)
        with pytest.raises(ConfigurationError):
            Application("app", (spec, spec))

    def test_wrong_application_tag_rejected(self):
        spec = ChannelSpec("c", "a", "b", 1 * MB, application="other")
        with pytest.raises(ConfigurationError):
            Application("app", (spec,))

    def test_application_aggregates(self):
        app = Application("app", (
            ChannelSpec("c1", "a", "b", 10 * MB, application="app"),
            ChannelSpec("c2", "b", "c", 20 * MB, application="app")))
        assert app.total_throughput_bytes_per_s == pytest.approx(30e6)
        assert app.ips == ("a", "b", "c")
        assert app.channel("c1").name == "c1"
        with pytest.raises(ConfigurationError):
            app.channel("missing")

    def test_use_case_unique_channels_across_apps(self):
        spec_a = ChannelSpec("c", "a", "b", 1 * MB, application="x")
        spec_b = ChannelSpec("c", "c", "d", 1 * MB, application="y")
        with pytest.raises(ConfigurationError):
            UseCase("uc", (Application("x", (spec_a,)),
                           Application("y", (spec_b,))))

