"""Int8 quantization: round-trip bounds and footprint accounting."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.quantization import quantize_model, quantize_tensor
from repro.nn.layers import Conv2D, Dense, Flatten
from repro.nn.sequential import Sequential


class TestQuantizeTensor:
    def test_roundtrip_error_bounded_by_half_step(self, rng):
        w = rng.normal(size=10_000).astype(np.float32) * 0.1
        qt = quantize_tensor(w)
        err = np.abs(qt.dequantize() - w)
        assert err.max() <= qt.scale * 0.51  # half a quantization step

    def test_affine_map_definition(self, rng):
        w = rng.normal(size=100)
        qt = quantize_tensor(w)
        expected = (qt.values.astype(np.float32) - qt.zero_point) * np.float32(qt.scale)
        np.testing.assert_array_equal(qt.dequantize(), expected)

    def test_zero_maps_near_zero(self, rng):
        # TFLite requires exact-zero representability within one step
        w = np.concatenate([[0.0], rng.normal(size=100)])
        qt = quantize_tensor(w)
        dq = qt.dequantize()
        assert abs(dq[0]) <= qt.scale

    def test_constant_tensor(self):
        qt = quantize_tensor(np.full(10, 3.0))
        assert qt.dequantize().shape == (10,)
        assert np.abs(qt.dequantize() - 3.0).max() <= qt.scale

    def test_all_zero_tensor(self):
        qt = quantize_tensor(np.zeros(5))
        np.testing.assert_array_equal(qt.dequantize(), np.zeros(5, dtype=np.float32))

    def test_preserves_shape(self, rng):
        qt = quantize_tensor(rng.normal(size=(4, 5, 3)))
        assert qt.values.shape == (4, 5, 3)

    @given(
        w=hnp.arrays(
            np.float64,
            st.integers(1, 500),
            elements=st.floats(-1000, 1000, allow_nan=False),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_int8_range_respected(self, w):
        qt = quantize_tensor(w)
        assert qt.values.dtype == np.int8
        assert -128 <= int(qt.values.min()) and int(qt.values.max()) <= 127

    @given(
        w=hnp.arrays(
            np.float32,
            st.integers(2, 300),
            elements=st.floats(-100, 100, allow_nan=False, width=32),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_error_within_one_step(self, w):
        # weights are float32 in this system; the float32 dequant path is
        # only exact for float32-representable (non-subnormal) scales.
        # The guard must use the quantizer's *effective* range — it clamps
        # lo/hi to include 0, so a constant all-positive tensor like
        # [1e-45, 1e-45] still quantizes over [0, 1e-45] with a subnormal
        # scale even though max - min == 0.
        lo = min(float(w.min()), 0.0)
        hi = max(float(w.max()), 0.0)
        assume(hi - lo == 0.0 or hi - lo > 1e-30)
        qt = quantize_tensor(w)
        assert np.abs(qt.dequantize() - w).max() <= qt.scale * (1.0 + 1e-3)


class TestModelQuantization:
    def _model(self, rng):
        return Sequential(
            [
                ("conv_1", Conv2D(1, 2, 3, rng=rng)),
                ("flat", Flatten()),
                ("dense_1", Dense(2 * 4 * 4, 10, rng=rng)),
            ]
        )

    def test_quantize_model_covers_parametric_layers(self, rng):
        m = self._model(rng)
        q = quantize_model(m)
        assert set(q) == {"conv_1", "dense_1"}

    def test_footprint_reduction_near_4x(self, rng):
        m = self._model(rng)
        q = quantize_model(m)
        q_params = sum(qt.num_params for qt in q.values())
        full = 4 * m.num_params
        # weights go 4 -> 1 byte (plus per-tensor metadata); biases stay float
        quant = 4 * (m.num_params - q_params) + sum(qt.footprint_bytes for qt in q.values())
        assert full / quant > 3.0
