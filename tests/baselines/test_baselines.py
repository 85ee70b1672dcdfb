"""Lossless baseline compressors: round trips and the paper's claim."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.entropy import english_like_text
from repro.baselines import (
    huffman_code,
    huffman_decode,
    huffman_encode,
    huffman_ratio,
    lz_decode,
    lz_encode,
    lz_ratio,
    rle_decode,
    rle_encode,
    rle_ratio,
)


class TestRLE:
    def test_roundtrip_repetitive(self):
        data = b"a" * 300 + b"b" * 5 + b"c"
        assert rle_decode(rle_encode(data)) == data

    def test_compresses_runs(self):
        assert rle_ratio(b"x" * 1000) > 100

    def test_expands_random(self, rng):
        data = rng.integers(0, 256, 5000, dtype=np.uint8).tobytes()
        assert rle_ratio(data) < 0.6  # 2 bytes per ~1-byte run

    def test_empty(self):
        assert rle_encode(b"") == b""
        assert rle_decode(b"") == b""
        assert rle_ratio(b"") == 1.0

    def test_odd_stream_rejected(self):
        with pytest.raises(ValueError):
            rle_decode(b"\x01")

    @given(data=st.binary(max_size=2000))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, data):
        assert rle_decode(rle_encode(data)) == data


class TestHuffman:
    def test_roundtrip(self, rng):
        data = english_like_text(3000, seed=1)
        blob, code = huffman_encode(data)
        assert huffman_decode(blob, code, len(data)) == data

    def test_text_compresses_to_entropy(self):
        data = english_like_text(1 << 16)
        # entropy ~4.2 bits/byte -> ratio ~1.8
        assert 1.5 < huffman_ratio(data) < 2.2

    def test_random_bytes_incompressible(self, rng):
        data = rng.integers(0, 256, 1 << 16, dtype=np.uint8).tobytes()
        assert huffman_ratio(data) < 1.05

    def test_single_symbol(self):
        blob, code = huffman_encode(b"aaaa")
        assert huffman_decode(blob, code, 4) == b"aaaa"

    def test_kraft_inequality(self, rng):
        data = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
        code = huffman_code(data)
        kraft = sum(2.0 ** -l for l, _ in code.table.values())
        assert kraft <= 1.0 + 1e-9

    def test_codes_prefix_free(self):
        code = huffman_code(english_like_text(4096))
        items = [(l, v) for l, v in code.table.values()]
        for i, (l1, v1) in enumerate(items):
            for l2, v2 in items[i + 1 :]:
                if l1 <= l2:
                    assert (v2 >> (l2 - l1)) != v1
                else:
                    assert (v1 >> (l1 - l2)) != v2

    @given(data=st.binary(min_size=1, max_size=1500))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, data):
        blob, code = huffman_encode(data)
        assert huffman_decode(blob, code, len(data)) == data


class TestLZ:
    def test_roundtrip_text(self):
        data = english_like_text(5000, seed=2)
        assert lz_decode(lz_encode(data)) == data

    def test_roundtrip_overlapping_match(self):
        data = b"abcabcabcabcabcabc" * 10
        assert lz_decode(lz_encode(data)) == data
        assert lz_ratio(data) > 3

    def test_random_bytes_expand_slightly(self, rng):
        data = rng.integers(0, 256, 20_000, dtype=np.uint8).tobytes()
        assert lz_ratio(data) < 1.0  # flag-byte overhead, no matches

    def test_empty(self):
        assert lz_encode(b"") == b""
        assert lz_decode(b"") == b""

    def test_corrupt_distance(self):
        # one match token with distance pointing before the start
        with pytest.raises(ValueError):
            lz_decode(bytes([0x01, 0xFF, 0x0F]))

    def test_match_at_window_boundary(self):
        # a repeat exactly one window apart must round-trip: the 12-bit
        # distance field tops out at 4095, so the encoder may not emit a
        # distance-4096 match (it used to, corrupting the stream)
        block = np.random.default_rng(5).integers(
            0, 256, 4096, dtype=np.uint8
        ).tobytes()
        data = block + block
        assert lz_decode(lz_encode(data)) == data

    @given(data=st.binary(max_size=1500))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, data):
        assert lz_decode(lz_encode(data)) == data


class TestPaperClaim:
    """Sec. III-B: traditional compression is ineffective on weights."""

    @pytest.fixture(scope="class")
    def weight_bytes(self):
        from repro.nn import zoo

        w = zoo.lenet5.full().materialize("dense_1").ravel()
        return np.ascontiguousarray(w).view(np.uint8).tobytes()

    def test_all_baselines_fail_on_weights(self, weight_bytes):
        assert rle_ratio(weight_bytes) < 1.05
        assert huffman_ratio(weight_bytes) < 1.25
        assert lz_ratio(weight_bytes) < 1.05

    def test_proposed_lossy_compressor_succeeds(self, weight_bytes):
        from repro.core import get_codec
        from repro.nn import zoo

        w = zoo.lenet5.full().materialize("dense_1").ravel()
        assert get_codec("linefit", delta_pct=15.0).encode(w).compression_ratio > 2.0
