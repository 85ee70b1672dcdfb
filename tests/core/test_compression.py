"""Line-fit compression: ratios, reconstruction error, formats.

CR and MSE are read from the codec (``blob.compression_ratio``,
``Codec.reconstruction_mse``); the segmentation and storage internals
from the parsed :class:`CompressedStream`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.codecs import get_codec
from repro.core.compression import (
    CompressedStream,
    StorageFormat,
    compress,
    quantize_coefficient,
)
from repro.core.segmentation import delta_from_percent


class TestStorageFormat:
    def test_default_is_8_bytes_per_segment(self):
        assert StorageFormat().segment_bytes == 8

    def test_int8_format(self):
        fmt = StorageFormat.int8()
        assert fmt.weight_bytes == 1
        assert fmt.segment_bytes == 6

    def test_max_segment_length(self):
        assert StorageFormat().max_segment_length == 65535


class TestQuantizeCoefficient:
    def test_float32_roundtrip(self):
        v = np.array([0.1, -2.5])
        out = quantize_coefficient(v, 4)
        np.testing.assert_allclose(out, v.astype(np.float32))

    def test_24bit_relative_error(self, rng):
        v = rng.normal(size=1000)
        out = quantize_coefficient(v, 3)
        rel = np.abs(out - v) / np.abs(v)
        assert rel.max() < 2**-15

    def test_float16(self):
        out = quantize_coefficient(np.array([1.0 / 3.0]), 2)
        assert out[0] == np.float64(np.float16(1.0 / 3.0))

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            quantize_coefficient(np.array([1.0]), 1)


class TestCompress:
    def test_delta0_cr_matches_paper_calibration(self, rng):
        """delta=0 on a high-entropy stream gives CR ~ 1.21 (Tab. II)."""
        w = rng.normal(size=200_000).astype(np.float32)
        blob = get_codec("linefit", delta_pct=0.0).encode(w)
        assert blob.compression_ratio == pytest.approx(1.21, abs=0.02)

    def test_cr_increases_with_delta(self, rng):
        w = rng.normal(size=50_000).astype(np.float32)
        crs = [
            get_codec("linefit", delta_pct=d).encode(w).compression_ratio
            for d in (0, 5, 10, 15, 20)
        ]
        assert crs == sorted(crs)
        assert crs[-1] > 2 * crs[0]

    def test_pure_line_compresses_to_one_segment(self):
        w = np.linspace(0, 1, 10_000).astype(np.float32)
        codec = get_codec("linefit")
        blob = codec.encode(w)
        assert blob.num_segments == 1
        assert blob.compression_ratio > 1000
        np.testing.assert_allclose(codec.decode(blob), w, atol=1e-4)

    def test_weight_count_preserved(self, rng):
        w = rng.normal(size=777)
        cs = compress(w, 0.3)
        assert cs.num_weights == 777
        assert cs.decompress().shape == (777,)

    def test_long_segments_are_split(self):
        w = np.linspace(0, 1, 200_000).astype(np.float64)
        cs = compress(w, 0.0)
        assert int(cs.lengths.max()) <= StorageFormat().max_segment_length
        assert cs.num_weights == 200_000

    def test_mse_zero_for_representable_stream(self):
        # two-point segments are always fit exactly (before coefficient
        # rounding, which is tiny)
        w = np.array([0.0, 1.0, 0.5, 1.5], dtype=np.float32)
        codec = get_codec("linefit")
        assert codec.reconstruction_mse(codec.encode(w), w) < 1e-9

    def test_mse_rejects_wrong_length(self, rng):
        codec = get_codec("linefit")
        blob = codec.encode(rng.normal(size=10))
        with pytest.raises(ValueError):
            codec.reconstruction_mse(blob, np.zeros(11))

    def test_empty_stream(self):
        cs = compress(np.array([]), 0.0)
        assert cs.num_weights == 0
        assert cs.decompress().size == 0

    def test_tensor_input_flattened_c_order(self, rng):
        w2d = rng.normal(size=(30, 40))
        cs = compress(w2d, 0.1)
        np.testing.assert_allclose(
            cs.decompress(dtype=np.float64),
            compress(w2d.ravel(), 0.1).decompress(dtype=np.float64),
        )

    @given(
        w=hnp.arrays(
            np.float32,
            st.integers(1, 300),
            elements=st.floats(-100, 100, allow_nan=False, width=32),
        ),
        delta_pct=st.floats(0, 30),
    )
    @settings(max_examples=100, deadline=None)
    def test_decompressed_length_always_matches(self, w, delta_pct):
        cs = compress(w, delta_from_percent(w, delta_pct))
        assert cs.decompress().shape == w.shape
        assert int(cs.lengths.sum()) == w.size

    @given(
        seed=st.integers(0, 100),
        n=st.integers(100, 2000),
    )
    @settings(max_examples=30, deadline=None)
    def test_mse_grows_with_delta_statistically(self, seed, n):
        """On Gaussian streams, larger delta gives larger (or equal) MSE."""
        w = np.random.default_rng(seed).normal(size=n)
        mses = []
        for d in (0.0, 10.0, 30.0):
            codec = get_codec("linefit", delta_pct=d)
            mses.append(codec.reconstruction_mse(codec.encode(w), w))
        assert mses[0] <= mses[1] * 1.05 + 1e-12
        assert mses[1] <= mses[2] * 1.05 + 1e-12

    def test_approximation_error_bounded_by_segment_spread(self, rng):
        """Within a segment the line fit error can't exceed the segment's
        value spread (least squares is at least as good as a constant)."""
        w = rng.normal(size=2000)
        cs = compress(w, delta_from_percent(w, 15.0))
        approx = cs.decompress(dtype=np.float64)
        b = np.concatenate(([0], np.cumsum(cs.lengths)))
        for i in range(cs.num_segments):
            seg = w[b[i] : b[i + 1]]
            err = np.abs(approx[b[i] : b[i + 1]] - seg).max()
            spread = seg.max() - seg.min() + 1e-6
            assert err <= spread


class TestCompressedStreamValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            CompressedStream(
                m=np.zeros(2), q=np.zeros(3), lengths=np.ones(2, dtype=int), delta=0.0
            )

    def test_nonpositive_length(self):
        with pytest.raises(ValueError):
            CompressedStream(
                m=np.zeros(1), q=np.zeros(1), lengths=np.zeros(1, dtype=int), delta=0.0
            )
