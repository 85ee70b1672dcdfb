"""Weight initializers and the trained-like sampler's calibration knobs."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.nn.initializers import (
    _MASK_CHUNK,
    fans,
    glorot_uniform,
    he_normal,
    trained_like,
)


def one_shot_trained_like(shape, rng, scale=1.0, tail_ratio=None):
    """:func:`trained_like` with its outlier mask drawn in one call."""
    shape = tuple(shape)
    fan_in, fan_out = fans(shape)
    base_std = np.float32(scale * np.sqrt(2.0 / (fan_in + fan_out)) * 0.8)
    n = int(np.prod(shape))
    w = rng.standard_normal(n, dtype=np.float32)
    w *= base_std
    wide = rng.random(n) < 0.05
    n_wide = int(wide.sum())
    w[wide] = rng.standard_normal(n_wide, dtype=np.float32) * np.float32(1.8 * base_std)
    if tail_ratio is not None and n >= 16:
        half = np.float32(tail_ratio / 2.0 * float(w.std()))
        np.clip(w, -half, half, out=w)
        k = max(2, n // 500_000)
        idx = rng.choice(n, size=2 * k, replace=False)
        w[idx[:k]] = half
        w[idx[k:]] = -half
    return w.reshape(shape)


class TestFans:
    def test_dense(self):
        assert fans((100, 50)) == (100, 50)

    def test_conv_oihw(self):
        assert fans((64, 3, 7, 7)) == (3 * 49, 64 * 49)

    def test_vector(self):
        assert fans((10,)) == (10, 10)


class TestClassicalInitializers:
    def test_glorot_limits(self, rng):
        w = glorot_uniform((400, 120), rng)
        limit = np.sqrt(6.0 / 520)
        assert np.abs(w).max() <= limit
        assert w.std() == pytest.approx(limit / np.sqrt(3), rel=0.05)

    def test_he_scale(self, rng):
        w = he_normal((64, 32, 3, 3), rng)
        assert w.std() == pytest.approx(np.sqrt(2.0 / (32 * 9)), rel=0.05)

    def test_dtype(self, rng):
        for init in (glorot_uniform, he_normal):
            assert init((8, 8), rng).dtype == np.float32


class TestTrainedLike:
    def test_zero_mean_and_scale(self, rng):
        w = trained_like((4096, 1000), rng)
        assert abs(float(w.mean())) < 1e-3
        assert 0.005 < float(w.std()) < 0.05

    def test_tail_ratio_enforced(self, rng):
        for ratio in (8.0, 15.0, 30.0):
            w = trained_like((1000, 1000), rng, tail_ratio=ratio).ravel()
            measured = (w.max() - w.min()) / w.std()
            assert measured == pytest.approx(ratio, rel=0.05)

    def test_tail_ratio_can_shrink_natural_range(self, rng):
        natural = trained_like((1000, 1000), rng).ravel()
        natural_ratio = (natural.max() - natural.min()) / natural.std()
        clipped = trained_like((1000, 1000), rng, tail_ratio=6.0).ravel()
        clipped_ratio = (clipped.max() - clipped.min()) / clipped.std()
        assert clipped_ratio < natural_ratio

    def test_tail_outliers_are_rare(self, rng):
        w = trained_like((500, 500), rng, tail_ratio=30.0).ravel()
        extreme = np.abs(w) > 10 * w.std()
        assert extreme.mean() < 0.001  # range pinned by a handful of weights

    def test_invalid_tail_ratio(self, rng):
        with pytest.raises(ValueError):
            trained_like((100,), rng, tail_ratio=0.0)

    def test_leptokurtic(self, rng):
        w = trained_like((2000, 100), rng).ravel().astype(np.float64)
        kurt = ((w - w.mean()) ** 4).mean() / w.var() ** 2 - 3
        assert kurt > 0.3

    def test_float32_throughout(self, rng):
        assert trained_like((100, 100), rng, tail_ratio=12.0).dtype == np.float32

    def test_scale_multiplier(self, rng):
        small = trained_like((256, 256), rng, scale=0.5).std()
        base = trained_like((256, 256), rng, scale=1.0).std()
        assert small == pytest.approx(base * 0.5, rel=0.1)


class TestChunkedOutlierMask:
    """The mask is drawn in chunks from the stream one draw would take."""

    @pytest.mark.parametrize("tail_ratio", [None, 12.0])
    @pytest.mark.parametrize(
        "n",
        [0, 1, _MASK_CHUNK - 1, _MASK_CHUNK, _MASK_CHUNK + 1, 3 * _MASK_CHUNK + 5],
    )
    def test_equals_one_shot_draw(self, n, tail_ratio):
        chunked_rng, oracle_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = trained_like((n, 1), chunked_rng, tail_ratio=tail_ratio)
        expected = one_shot_trained_like((n, 1), oracle_rng, tail_ratio=tail_ratio)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        np.testing.assert_array_equal(got.view(np.uint32), expected.view(np.uint32))
        assert chunked_rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("tail_ratio", [None, 20.0])
    def test_traced_peak_per_weight(self, tail_ratio):
        """The weights, their mask and one chunk of uniforms.

        With ``tail_ratio`` the peak is ``w.std()``'s float32 deviation
        array beside the weights and the mask (9 B per weight); a
        one-shot mask drew a float64 uniform per weight (13 B).
        """
        rng = np.random.default_rng(3)
        tracemalloc.start()
        try:
            w = trained_like((2000, 1000), rng, tail_ratio=tail_ratio)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * w.size, f"{peak / w.size:.2f} B per weight"
