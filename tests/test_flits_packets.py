"""Tests for the flit datatype."""

from __future__ import annotations

import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.flits import Flit, FlitKind


class TestFlit:
    def test_data_flit_padding(self, fmt):
        flit = Flit.data([0xA, 0xB], fmt, eop=True, has_header=True)
        assert flit.words == (0xA, 0xB, 0x0)
        assert flit.kind is FlitKind.DATA

    def test_oversized_flit_rejected(self, fmt):
        with pytest.raises(ConfigurationError):
            Flit.data([1, 2, 3, 4], fmt, eop=True, has_header=True)

    def test_empty_token(self, fmt):
        token = Flit.empty(fmt)
        assert token.is_empty
        assert token.eop
        assert len(token.words) == fmt.flit_size

    def test_flit_is_immutable(self, fmt):
        flit = Flit.data([1], fmt, eop=True, has_header=True)
        with pytest.raises(AttributeError):
            flit.eop = False  # type: ignore[misc]
