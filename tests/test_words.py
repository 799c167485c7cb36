"""Unit tests for word formats and header encoding."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.exceptions import HeaderFormatError
from repro.core.words import (WordFormat, decode_header, decode_next_port,
                              encode_header, encode_path, header_credits,
                              header_queue, shift_path)


class TestWordFormat:
    def test_default_geometry_matches_paper(self):
        fmt = WordFormat()
        assert fmt.data_width == 32
        assert fmt.flit_size == 3
        assert fmt.payload_words_per_flit == 2
        assert fmt.payload_bytes_per_flit == 8
        assert fmt.bytes_per_word == 4

    def test_max_hops_from_field_widths(self):
        fmt = WordFormat(data_width=32)
        assert (fmt.port_bits, fmt.queue_bits, fmt.credit_bits) == (3, 4, 5)
        assert fmt.path_bits == 23
        assert fmt.max_hops == 7

    def test_header_field_widths_are_the_papers_in_every_format(self):
        wide = WordFormat(data_width=64, flit_size=4)
        assert (wide.port_bits, wide.queue_bits, wide.credit_bits) == \
            (3, 4, 5)
        with pytest.raises(TypeError):
            WordFormat(port_bits=4)

    def test_wider_words_encode_longer_paths(self):
        fmt = WordFormat(data_width=64)
        assert fmt.max_hops == (64 - 4 - 5) // 3

    def test_max_port_and_queue(self):
        fmt = WordFormat()
        assert fmt.max_port == 7
        assert fmt.max_queue == 15
        assert fmt.max_credits == 31

    def test_rejects_tiny_words(self):
        with pytest.raises(HeaderFormatError):
            WordFormat(data_width=4)

    def test_rejects_header_without_path_room(self):
        # 11 bits less the 4-bit queue id and 5 credit bits leave 2
        # path bits, short of one 3-bit port; 12 leave room for one hop.
        with pytest.raises(HeaderFormatError, match="no room for a path"):
            WordFormat(data_width=11)
        assert WordFormat(data_width=12).max_hops == 1

    def test_rejects_single_word_flits(self):
        with pytest.raises(HeaderFormatError):
            WordFormat(flit_size=1)

    def test_word_mask(self):
        assert WordFormat(data_width=16).word_mask == 0xFFFF


class TestPathEncoding:
    def test_first_hop_in_low_bits(self, fmt):
        path = encode_path([3, 5, 1], fmt)
        assert decode_next_port(path, fmt) == 3

    def test_shift_consumes_one_hop(self, fmt):
        header = encode_header([3, 5, 1], queue=0, credits=0, fmt=fmt)
        header = shift_path(header, fmt)
        assert decode_next_port(header, fmt) == 5
        header = shift_path(header, fmt)
        assert decode_next_port(header, fmt) == 1

    def test_shift_preserves_queue_and_credits(self, fmt):
        header = encode_header([3, 5], queue=9, credits=17, fmt=fmt)
        shifted = shift_path(header, fmt)
        assert header_queue(shifted, fmt) == 9
        assert header_credits(shifted, fmt) == 17

    def test_path_too_long_rejected(self, fmt):
        with pytest.raises(HeaderFormatError):
            encode_path([1] * (fmt.max_hops + 1), fmt)

    def test_port_too_large_rejected(self, fmt):
        with pytest.raises(HeaderFormatError):
            encode_path([fmt.max_port + 1], fmt)

    def test_empty_path_is_zero(self, fmt):
        assert encode_path([], fmt) == 0


class TestHeaderRoundTrip:
    def test_decode_header_fields(self, fmt):
        header = encode_header([2, 4], queue=7, credits=12, fmt=fmt)
        path, queue, credits = decode_header(header, fmt)
        assert decode_next_port(path, fmt) == 2
        assert queue == 7
        assert credits == 12

    def test_queue_out_of_range(self, fmt):
        with pytest.raises(HeaderFormatError):
            encode_header([], queue=fmt.max_queue + 1, credits=0, fmt=fmt)

    def test_credits_out_of_range(self, fmt):
        with pytest.raises(HeaderFormatError):
            encode_header([], queue=0, credits=fmt.max_credits + 1, fmt=fmt)

    def test_header_fits_in_word(self, fmt):
        header = encode_header([7] * fmt.max_hops, queue=fmt.max_queue,
                               credits=fmt.max_credits, fmt=fmt)
        assert header <= fmt.word_mask

    @given(st.data())
    def test_roundtrip_property(self, data):
        fmt = WordFormat()
        ports = data.draw(st.lists(
            st.integers(0, fmt.max_port), max_size=fmt.max_hops))
        queue = data.draw(st.integers(0, fmt.max_queue))
        credits = data.draw(st.integers(0, fmt.max_credits))
        header = encode_header(ports, queue, credits, fmt)
        assert header_queue(header, fmt) == queue
        assert header_credits(header, fmt) == credits
        # Walking the header recovers the full port sequence.
        recovered = []
        word = header
        for _ in ports:
            recovered.append(decode_next_port(word, fmt))
            word = shift_path(word, fmt)
        assert recovered == list(ports)

    @given(st.integers(2, 7), st.integers(0, 200))
    def test_hop_consumption_is_shift_invariant(self, hops, seed):
        import random
        fmt = WordFormat()
        rng = random.Random(seed)
        ports = [rng.randint(0, fmt.max_port) for _ in range(hops)]
        header = encode_header(ports, 1, 2, fmt)
        for expected in ports:
            assert decode_next_port(header, fmt) == expected
            header = shift_path(header, fmt)
        # Path field fully consumed.
        assert decode_next_port(header, fmt) == 0
