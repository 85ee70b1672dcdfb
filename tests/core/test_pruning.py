"""Magnitude pruning and its composition with the compressor."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codecs import get_codec
from repro.core.pruning import prune_magnitude, pruned_footprint_bytes


class TestPruneMagnitude:
    def test_sparsity_achieved(self, rng):
        w = rng.normal(size=10_000).astype(np.float32)
        pt = prune_magnitude(w, 0.7)
        assert pt.sparsity == pytest.approx(0.7, abs=0.001)
        assert (pt.values == 0).mean() == pytest.approx(0.7, abs=0.001)

    def test_keeps_largest(self, rng):
        w = rng.normal(size=1000).astype(np.float32)
        pt = prune_magnitude(w, 0.5)
        kept_min = np.abs(pt.values[pt.mask]).min()
        dropped_max = np.abs(w[~pt.mask]).max()
        assert kept_min >= dropped_max - 1e-7

    def test_zero_sparsity_identity(self, rng):
        w = rng.normal(size=100).astype(np.float32)
        pt = prune_magnitude(w, 0.0)
        np.testing.assert_array_equal(pt.values, w)

    def test_shape_preserved(self, rng):
        w = rng.normal(size=(20, 30)).astype(np.float32)
        assert prune_magnitude(w, 0.3).values.shape == (20, 30)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            prune_magnitude(rng.normal(size=10), 1.0)

    def test_ties_handled_exactly(self):
        w = np.ones(100, dtype=np.float32)
        pt = prune_magnitude(w, 0.4)
        assert pt.num_kept == 60

    @given(
        sparsity=st.floats(0.0, 0.95),
        n=st.integers(10, 2000),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=80, deadline=None)
    def test_sparsity_property(self, sparsity, n, seed):
        w = np.random.default_rng(seed).normal(size=n).astype(np.float32)
        pt = prune_magnitude(w, sparsity)
        assert abs(pt.sparsity - sparsity) <= 1.0 / n + 1e-9


class TestFootprint:
    def test_dense_case(self, rng):
        w = rng.normal(size=800).astype(np.float32)
        pt = prune_magnitude(w, 0.0)
        assert pruned_footprint_bytes(pt) == 100 + 800 * 4

    def test_sparse_saves(self, rng):
        w = rng.normal(size=8000).astype(np.float32)
        dense = pruned_footprint_bytes(prune_magnitude(w, 0.0))
        sparse = pruned_footprint_bytes(prune_magnitude(w, 0.8))
        assert sparse < 0.3 * dense


class TestStackingWithCompression:
    """The paper's claim: compression applies on top of pruning —
    the zero runs pruning creates are ideal monotonic segments."""

    def test_pruned_stream_compresses_better(self, rng):
        w = rng.normal(size=100_000).astype(np.float32)
        codec = get_codec("linefit", delta_pct=5.0)
        base_cr = codec.encode(w).compression_ratio
        pruned = prune_magnitude(w, 0.8).values
        pruned_cr = codec.encode(pruned).compression_ratio
        assert pruned_cr > 2 * base_cr

    def test_stacked_beats_bitmap_at_moderate_delta(self, rng):
        """At delta ~20% the compressed pruned stream undercuts even the
        dedicated sparse bitmap format; at tiny delta the bitmap wins
        (the compressor still pays per-segment cost inside the noise)."""
        w = rng.normal(size=100_000).astype(np.float32)
        pt = prune_magnitude(w, 0.8)
        bitmap_bytes = pruned_footprint_bytes(pt)
        def compressed_bytes(delta_pct):
            return get_codec("linefit", delta_pct=delta_pct).encode(pt.values).compressed_bytes

        assert compressed_bytes(20.0) < bitmap_bytes
        assert compressed_bytes(2.0) > bitmap_bytes

    def test_compression_preserves_pruned_zero_runs_approximately(self, rng):
        w = rng.normal(size=20_000).astype(np.float32)
        pt = prune_magnitude(w, 0.9)
        codec = get_codec("linefit", delta_pct=2.0)
        approx = codec.decode(codec.encode(pt.values))
        zero_err = np.abs(approx[~pt.mask.ravel()])
        # pruned positions stay near zero after lossy reconstruction
        assert zero_err.mean() < 0.05 * np.abs(w).max()
