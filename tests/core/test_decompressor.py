"""Decompression unit: bit-exact accumulator semantics and cycle model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compression import compress, compress_percent
from repro.core.decompressor import (
    DecompressionUnit,
    DecompressorTiming,
    decompress_accumulate,
)


def _sequential_reference(stream, dtype=np.float32):
    """Literal Eq. (2): w~_1 = q; w~_j = w~_{j-1} + m, scalar loop."""
    m, q = stream.storage_coefficients()
    out = []
    for mi, qi, li in zip(m, q, stream.lengths):
        acc = dtype(qi)
        out.append(acc)
        for _ in range(int(li) - 1):
            acc = dtype(acc + dtype(mi))
            out.append(acc)
    return np.array(out, dtype=dtype)


class TestAccumulatorSemantics:
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_exact_vs_scalar_loop(self, seed):
        w = np.random.default_rng(seed).normal(size=300).astype(np.float32)
        stream = compress_percent(w, 10.0)
        fast = decompress_accumulate(stream)
        ref = _sequential_reference(stream)
        assert fast.dtype == np.float32
        np.testing.assert_array_equal(fast, ref)

    def test_close_to_exact_line_evaluation(self, rng):
        w = rng.normal(size=1000).astype(np.float32)
        stream = compress_percent(w, 15.0)
        hw = decompress_accumulate(stream)
        exact = stream.decompress(dtype=np.float64)
        # float32 accumulation error is bounded by ~len * eps * |value|
        np.testing.assert_allclose(hw, exact, atol=1e-4, rtol=1e-4)

    def test_length_preserved(self, rng):
        w = rng.normal(size=123)
        stream = compress(w, 0.5)
        assert decompress_accumulate(stream).shape == (123,)


class TestCycleModel:
    def test_default_timing_one_weight_per_cycle(self, rng):
        w = rng.normal(size=500).astype(np.float32)
        stream = compress_percent(w, 5.0)
        unit = DecompressionUnit()
        assert unit.cycles(stream) == stream.num_segments + stream.num_weights

    def test_custom_timing(self, rng):
        w = rng.normal(size=100)
        stream = compress(w, 0.1)
        unit = DecompressionUnit(DecompressorTiming(init_cycles=3, run_cycles_per_weight=2))
        assert unit.cycles(stream) == 3 * stream.num_segments + 2 * stream.num_weights

    def test_cycles_for_aggregate_counts(self):
        unit = DecompressionUnit()
        assert unit.cycles_for(num_weights=1000, num_segments=300) == 1300
