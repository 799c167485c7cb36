"""Tests for the experiment modules: row structure and result shapes."""

from __future__ import annotations

import pytest

from repro.experiments.ablations import (backend_rows, fifo_depth_rows,
                                         ordering_rows, pipeline_stage_rows,
                                         table_size_rows)
from repro.experiments.area_comparison import (fifo_rows,
                                               headline_ratio_rows,
                                               mesochronous_rows,
                                               related_work_rows,
                                               throughput_rows)
from repro.experiments.figures import (FIG5_TARGETS_MHZ, figure5_rows,
                                       figure6a_rows, figure6b_rows)
from repro.experiments.report import format_table, format_value


class TestReportFormatting:
    def test_format_value_types(self):
        assert format_value(True) == "yes"
        assert format_value(False) == "no"
        assert format_value(12345) == "12,345"
        assert format_value(0.0) == "0"
        assert format_value(3.14159) == "3.14"
        assert format_value(1234.5) == "1,234"
        assert format_value("text") == "text"

    def test_format_table_basic(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        table = format_table(rows, title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_table_columns_follow_the_first_row(self):
        rows = [{"c": 3, "a": 1}, {"a": 2, "b": 5}]
        header = format_table(rows).splitlines()[0]
        assert header.split() == ["c", "|", "a"]


class TestFigureRows:
    def test_figure5_covers_targets(self):
        rows = figure5_rows()
        assert [row["target_mhz"] for row in rows] == \
            [float(m) for m in FIG5_TARGETS_MHZ]
        for row in rows:
            assert row["area_um2"] > 0
            assert row["achieved_mhz"] <= row["target_mhz"] + 1e-9

    def test_figure5_area_monotone(self):
        areas = [row["area_um2"] for row in figure5_rows()]
        assert areas == sorted(areas)

    def test_figure6a_shape(self):
        rows = figure6a_rows()
        assert [row["arity"] for row in rows] == [2, 3, 4, 5, 6, 7]
        areas = [row["area_um2"] for row in rows]
        freqs = [row["max_frequency_mhz"] for row in rows]
        assert areas == sorted(areas)
        assert freqs == sorted(freqs, reverse=True)

    def test_figure6b_shape(self):
        rows = figure6b_rows()
        areas = [row["area_um2"] for row in rows]
        assert areas == sorted(areas)
        # Linear growth: each 32-bit step adds a near-constant increment.
        deltas = [b - a for a, b in zip(areas, areas[1:])]
        assert max(deltas) - min(deltas) < 0.1 * max(deltas)


class TestAreaComparisonRows:
    def test_fifo_rows(self):
        rows = fifo_rows()
        assert len(rows) == 2
        custom = rows[0]["area_um2"]
        standard = rows[1]["area_um2"]
        assert custom < standard

    def test_mesochronous_rows(self):
        rows = mesochronous_rows()
        assert rows[-1]["area_mm2"] == pytest.approx(0.032, rel=0.15)

    def test_related_work_rows_have_sources(self):
        for row in related_work_rows():
            assert row["source"]

    def test_headline_rows(self):
        rows = headline_ratio_rows()
        assert {row["metric"] for row in rows} == \
            {"area (mm^2)", "frequency (MHz)"}

    def test_throughput_rows(self):
        rows = throughput_rows()
        assert any(row["router"] == "arity-6, 64-bit" for row in rows)
        for row in rows:
            assert row["aggregate_gb_s"] > 0


class TestAblationRows:
    def test_table_size_rows(self):
        rows = table_size_rows()
        assert [row["table_size"] for row in rows] == \
            [4, 8, 16, 32, 64, 128]

    def test_fifo_depth_rows(self):
        rows = fifo_depth_rows()
        verdicts = {row["fifo_words"]: row["verdict"] for row in rows}
        assert verdicts[4] == "minimum sufficient"

    def test_ordering_rows(self):
        rows = ordering_rows()
        assert {row["order"] for row in rows} == \
            {"tightness", "throughput", "input"}

    def test_pipeline_stage_rows_arithmetic(self):
        rows = pipeline_stage_rows()
        slots = [row["traversal_slots"] for row in rows]
        # 3-router path: base 4 slots, +2 per added stage level
        # (two router-router links).
        assert slots == [4, 6, 8, 10]

    def test_backend_rows_are_flit_synchronous(self):
        """The flit-synchronous claim on all four backends: both
        cycle-accurate clockings deliver what the flit model delivers,
        on its schedule; the best-effort baseline runs the same
        messages without it."""
        rows = {row["backend"]: row for row in backend_rows()}
        assert list(rows) == ["flit", "cycle/synchronous",
                              "cycle/mesochronous", "be"]
        delivered = rows["flit"]["messages"]
        assert delivered > 0
        for label in ("cycle/synchronous", "cycle/mesochronous"):
            assert rows[label]["messages"] == delivered, label
            assert rows[label]["max_deviation_cycles_vs_flit"] == 0, label
        assert rows["be"]["messages"] == delivered
