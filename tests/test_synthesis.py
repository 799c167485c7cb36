"""Tests for the calibrated synthesis models.

Anchors come from the paper; shape properties (monotonicity, linearity)
are checked with hypothesis so they hold over the whole parameter space,
not just the figure's sample points.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.exceptions import ConfigurationError
from repro.core.words import WordFormat
from repro.synthesis.area_model import (RouterAreaModel,
                                        aethereal_gsbe_router_area_um2,
                                        link_stage_area_um2,
                                        mesochronous_router_area_um2,
                                        ni_area_um2)
from repro.synthesis.comparison import (aelite_vs_aethereal,
                                        related_work_table,
                                        throughput_per_area)
from repro.synthesis.gates import (GateCounts, comparator_gates,
                                   counter_gates, fifo_area_um2,
                                   mux_tree_gates, one_hot_encoder_gates)
from repro.synthesis.technology import (TECH_65, TECH_90LP, TECH_130,
                                        scale_area_um2,
                                        scale_frequency_hz)
from repro.synthesis.timing_model import (MAX_EFFORT_FACTOR,
                                          critical_path_ps, effort_factor,
                                          frequency_sweep,
                                          max_frequency_hz,
                                          router_area_at_frequency_um2)


class TestGates:
    def test_mux_tree(self):
        assert mux_tree_gates(5, 34) == 4 * 34 * 1.75

    def test_mux_tree_single_input_free(self):
        assert mux_tree_gates(1, 32) == 0

    def test_gate_counts_accumulate(self):
        counts = GateCounts()
        counts.add_registers(10).add_logic(100)
        counts.add_registers(5).add_logic(50)
        area = counts.area_um2(TECH_90LP)
        assert area == pytest.approx(15 * 14.0 + 150 * 3.1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            GateCounts().add_registers(-1)
        with pytest.raises(ConfigurationError):
            counter_gates(-1)
        with pytest.raises(ConfigurationError):
            comparator_gates(-1)
        with pytest.raises(ConfigurationError):
            one_hot_encoder_gates(0)


class TestPaperAnchors:
    """Every number the paper states, reproduced within tolerance."""

    def test_arity5_router_area_at_moderate_frequency(self, fmt):
        # "the router occupies less than 0.015 mm^2 for frequencies up
        # to 650 MHz"
        area = router_area_at_frequency_um2(5, 650e6, fmt)
        assert area < 15_100
        assert 13_000 < area  # and is in the 14 k region, not tiny

    def test_arity5_fmax_saturation_region(self, fmt):
        # Figure 5 saturates around 875 MHz.
        fmax = max_frequency_hz(5, fmt)
        assert 850e6 <= fmax <= 900e6

    def test_custom_fifo_area(self):
        # "the area of a 4-word FIFO is in the order of 1500 um^2 ...
        # or roughly 3300 um^2 with the non-custom FIFOs"
        width = WordFormat().data_width + 2
        assert fifo_area_um2(4, width, TECH_90LP, custom=True) == \
            pytest.approx(1500, rel=0.1)
        assert fifo_area_um2(4, width, TECH_90LP, custom=False) == \
            pytest.approx(3300, rel=0.1)

    def test_mesochronous_router_area(self, fmt):
        # "the complete router with links is in the order of 0.032 mm^2"
        area = mesochronous_router_area_um2(5, 5, fmt)
        assert area / 1e6 == pytest.approx(0.032, rel=0.1)

    def test_aethereal_gsbe_anchor(self, fmt):
        # "[the GS+BE router] occupies 0.13 mm^2 ... in a 130 nm CMOS"
        area = aethereal_gsbe_router_area_um2(5, fmt, tech=TECH_130)
        assert area / 1e6 == pytest.approx(0.13, rel=0.08)

    def test_headline_ratios(self, fmt):
        # "roughly 5x smaller area and 1.5x the frequency"
        comparison = aelite_vs_aethereal(fmt)
        assert 3.5 <= comparison.area_ratio <= 6.0
        assert 1.3 <= comparison.frequency_ratio <= 1.7

    def test_arity6_64bit_throughput(self):
        # "an arity-6 aelite router offers 64 Gbyte/s at 0.03 mm^2 for
        # a 64-bit data width"
        gbytes, mm2 = throughput_per_area(6, WordFormat(data_width=64))
        assert gbytes >= 64
        assert mm2 <= 0.040


class TestShapeProperties:
    @given(st.integers(2, 12))
    def test_area_monotone_in_arity(self, arity):
        fmt = WordFormat()
        smaller = RouterAreaModel(arity, arity, fmt).base_area_um2()
        larger = RouterAreaModel(arity + 1, arity + 1, fmt).base_area_um2()
        assert larger > smaller

    @given(st.sampled_from([16, 32, 64, 96, 128, 192, 256]))
    def test_area_monotone_in_width(self, width):
        a = RouterAreaModel(5, 5, WordFormat(data_width=width))
        b = RouterAreaModel(5, 5, WordFormat(data_width=width * 2))
        assert b.base_area_um2() > a.base_area_um2()

    @given(st.integers(2, 12))
    def test_fmax_decreases_with_arity(self, arity):
        fmt = WordFormat()
        assert max_frequency_hz(arity + 1, fmt) < \
            max_frequency_hz(arity, fmt)

    @given(st.floats(0.05, 1.0), st.floats(0.05, 1.0))
    def test_effort_monotone_and_bounded(self, u1, u2):
        factor1 = effort_factor(u1 * 1e9, 1e9)
        factor2 = effort_factor(u2 * 1e9, 1e9)
        assert 1.0 <= factor1 <= MAX_EFFORT_FACTOR
        if u1 < u2:
            assert factor1 <= factor2

    def test_effort_clamps_beyond_fmax(self):
        assert effort_factor(2e9, 1e9) == MAX_EFFORT_FACTOR

    def test_sweep_achieved_never_exceeds_fmax(self, fmt):
        fmax = max_frequency_hz(5, fmt)
        points = frequency_sweep(5, [fmax * 0.5, fmax, fmax * 1.5], fmt)
        assert points[-1].achieved_mhz == pytest.approx(fmax / 1e6)

    def test_critical_path_positive(self, fmt):
        assert critical_path_ps(2, fmt) > 0


class TestTechnologyScaling:
    def test_area_scaling_quadratic(self):
        assert scale_area_um2(100.0, TECH_130, TECH_90LP) == \
            pytest.approx(100 * (90 / 130) ** 2)

    def test_frequency_scaling_sublinear(self):
        scaled = scale_frequency_hz(500e6, TECH_130, TECH_90LP)
        assert 500e6 < scaled < 500e6 * (130 / 90)

    def test_scaling_roundtrip(self):
        there = scale_area_um2(123.0, TECH_90LP, TECH_65)
        back = scale_area_um2(there, TECH_65, TECH_90LP)
        assert back == pytest.approx(123.0)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            scale_area_um2(-1.0, TECH_90LP, TECH_65)
        with pytest.raises(ConfigurationError):
            scale_frequency_hz(0.0, TECH_90LP, TECH_65)


class TestOtherModels:
    def test_ni_area_grows_with_channels(self):
        small = ni_area_um2(2, 2, 16)
        large = ni_area_um2(8, 8, 16)
        assert large > small

    def test_link_stage_composition(self, fmt):
        stage = link_stage_area_um2(fmt)
        fifo = fifo_area_um2(4, fmt.data_width + 2, TECH_90LP)
        assert stage > fifo  # FSM adds area on top of the FIFO

    def test_related_work_table_complete(self):
        table = related_work_table()
        designs = {row.design for row in table}
        assert len(table) == 5
        assert any("aelite" in d for d in designs)
        assert any("[4]" in d for d in designs)
        assert any("[7]" in d for d in designs)

    def test_gsbe_router_larger_than_aelite(self, fmt):
        aelite = RouterAreaModel(5, 5, fmt).base_area_um2(TECH_90LP)
        gsbe_90 = scale_area_um2(
            aethereal_gsbe_router_area_um2(5, fmt, tech=TECH_130),
            TECH_130, TECH_90LP)
        assert gsbe_90 > 3 * aelite
