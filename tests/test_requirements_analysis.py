"""Tests for requirement translation, analytical bounds and buffers."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.analysis import channel_bounds, summarise
from repro.core.buffers import (credit_headroom_ok, credit_loop,
                                required_rx_buffer_words,
                                required_tx_buffer_words)
from repro.core.connection import MB, ChannelSpec
from repro.core.exceptions import AllocationError, ConfigurationError
from repro.core.path import make_path
from repro.core.placement import ChannelAllocation
from repro.core.requirements import (latency_bound_ns,
                                     link_payload_bytes_per_s,
                                     link_raw_bytes_per_s,
                                     max_gap_for_latency, slot_duration_s,
                                     slots_for_throughput,
                                     table_rotation_s, throughput_of_slots)
from repro.core.words import WordFormat
from repro.topology.builders import mesh


@pytest.fixture
def short_path():
    topo = mesh(1, 1, nis_per_router=2)
    return make_path(topo, "ni0_0_0", ["r0_0"], "ni0_0_1")


class TestRequirementArithmetic:
    def test_slot_duration(self, fmt):
        assert slot_duration_s(500e6, fmt) == pytest.approx(6e-9)

    def test_rotation(self, fmt):
        assert table_rotation_s(16, 500e6, fmt) == pytest.approx(96e-9)

    def test_raw_and_payload_bandwidth(self, fmt):
        assert link_raw_bytes_per_s(500e6, fmt) == pytest.approx(2e9)
        assert link_payload_bytes_per_s(500e6, fmt) == \
            pytest.approx(2e9 * 2 / 3)

    def test_one_slot_throughput(self, fmt):
        # One slot of 16 at 500 MHz: 8 B per 96 ns = 83.33 MB/s.
        assert throughput_of_slots(1, 16, 500e6, fmt) == \
            pytest.approx(8 / 96e-9)

    def test_slots_for_throughput_roundtrip(self, fmt):
        for slots in range(1, 17):
            rate = throughput_of_slots(slots, 16, 500e6, fmt)
            assert slots_for_throughput(rate, 16, 500e6, fmt) == slots

    def test_zero_throughput_one_slot(self, fmt):
        assert slots_for_throughput(0.0, 16, 500e6, fmt) == 1

    def test_over_capacity_raises(self, fmt):
        with pytest.raises(AllocationError):
            slots_for_throughput(5e9, 16, 500e6, fmt)

    @given(st.integers(1, 64), st.floats(1e6, 1.3e9))
    def test_slots_always_sufficient(self, table_size, rate):
        """The computed slot count guarantees at least the request."""
        fmt = WordFormat()
        try:
            slots = slots_for_throughput(rate, table_size, 500e6, fmt)
        except AllocationError:
            return
        assert throughput_of_slots(slots, table_size, 500e6, fmt) >= \
            rate * (1 - 1e-9)

    def test_gap_for_latency(self, fmt, short_path):
        # 500 MHz, same-router path: traversal 2 slots = 6 cycles.
        # 60 ns = 30 cycles; wait budget 24 cycles -> gap 8.
        gap = max_gap_for_latency(60.0, short_path, 16, 500e6, fmt)
        assert gap == 8

    def test_gap_infeasible_raises(self, fmt, short_path):
        with pytest.raises(AllocationError):
            max_gap_for_latency(10.0, short_path, 16, 500e6, fmt)

    def test_latency_bound_formula(self, fmt, short_path):
        # wait 4 slots + traversal 2 slots = 6 slots = 18 cycles = 36 ns.
        assert latency_bound_ns(4, short_path, 500e6, fmt) == \
            pytest.approx(36.0)


class TestChannelBounds:
    def _alloc(self, fmt, slots, latency=None, throughput=50 * MB):
        topo = mesh(1, 1, nis_per_router=2)
        path = make_path(topo, "ni0_0_0", ["r0_0"], "ni0_0_1")
        spec = ChannelSpec("c", "a", "b", throughput,
                           max_latency_ns=latency)
        return ChannelAllocation(spec=spec, path=path, slots=slots,
                                 table_size=16)

    def test_bounds_fields(self, fmt):
        ca = self._alloc(fmt, (0, 8))
        bounds = channel_bounds(ca, 500e6, fmt)
        assert bounds.n_slots == 2
        assert bounds.worst_wait_slots == 8
        assert bounds.traversal_slots == 2
        assert bounds.latency_cycles == (8 + 2) * 3
        assert bounds.latency_ns == pytest.approx(60.0)

    def test_meets_flags(self, fmt):
        good = channel_bounds(self._alloc(fmt, (0, 4, 8, 12),
                                          latency=100.0), 500e6, fmt)
        assert good.meets_latency and good.meets_throughput
        bad = channel_bounds(self._alloc(fmt, (0,), latency=40.0,
                                         throughput=300 * MB),
                             500e6, fmt)
        assert not bad.meets_latency
        assert not bad.meets_throughput

    def test_latency_slack(self, fmt):
        bounds = channel_bounds(self._alloc(fmt, (0, 8), latency=100.0),
                                500e6, fmt)
        assert bounds.latency_slack_ns == pytest.approx(40.0)

    def test_no_latency_requirement_always_met(self, fmt):
        bounds = channel_bounds(self._alloc(fmt, (0,)), 500e6, fmt)
        assert bounds.meets_latency
        assert bounds.latency_slack_ns == float("inf")

    def test_summarise_empty(self):
        summary = summarise({})
        assert summary.n_channels == 0
        assert summary.all_requirements_met


class TestBuffers:
    def _pair(self, fmt):
        topo = mesh(2, 1, nis_per_router=1)
        forward_path = make_path(topo, "ni0_0_0", ["r0_0", "r1_0"],
                                 "ni1_0_0")
        reverse_path = make_path(topo, "ni1_0_0", ["r1_0", "r0_0"],
                                 "ni0_0_0")
        forward = ChannelAllocation(
            spec=ChannelSpec("f", "a", "b", 100 * MB),
            path=forward_path, slots=(0, 8), table_size=16)
        reverse = ChannelAllocation(
            spec=ChannelSpec("r", "b", "a", 10 * MB),
            path=reverse_path, slots=(4,), table_size=16)
        return forward, reverse

    def test_credit_loop_arithmetic(self, fmt):
        forward, reverse = self._pair(fmt)
        loop = credit_loop(forward, reverse)
        assert loop.forward_slots == forward.path.traversal_slots
        assert loop.credit_wait_slots == 16  # single reverse slot
        assert loop.reverse_slots == reverse.path.traversal_slots
        assert loop.total_slots == (loop.forward_slots +
                                    loop.credit_wait_slots +
                                    loop.reverse_slots + 1)

    def test_rx_buffer_covers_loop(self, fmt):
        forward, reverse = self._pair(fmt)
        words = required_rx_buffer_words(forward, reverse, fmt)
        loop = credit_loop(forward, reverse)
        rotations = math.ceil(loop.total_slots / 16)
        assert words == (rotations * forward.n_slots + 1) * \
            fmt.payload_words_per_flit

    def test_tx_buffer_includes_burst(self, fmt):
        forward, _ = self._pair(fmt)
        base = required_tx_buffer_words(forward, fmt, burst_bytes=0)
        with_burst = required_tx_buffer_words(forward, fmt,
                                              burst_bytes=64)
        assert with_burst == base + 16  # 64 B = 16 words at 32-bit

    def test_credit_headroom(self, fmt):
        forward, reverse = self._pair(fmt)
        # 2 fwd slots * 2 payload words = 4 credits consumed/rotation;
        # 1 rev slot * 31 max credits = 31 returned: plenty.
        assert credit_headroom_ok(forward, reverse, fmt)

    def test_mismatched_pair_rejected(self, fmt):
        forward, _ = self._pair(fmt)
        with pytest.raises(ConfigurationError):
            credit_loop(forward, forward)
