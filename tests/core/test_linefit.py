"""Per-segment least squares: optimality and vectorization checks.

Also home to :func:`evaluate_lines`, the mathematical decompression
``m * x + q`` in float64 — the oracle the decoder's accumulator (Eq. (2),
:mod:`repro.core.decompressor`) is measured against.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.linefit import fit_segments
from repro.core.segmentation import segment_boundaries


def evaluate_lines(
    m: np.ndarray,
    q: np.ndarray,
    lengths: np.ndarray,
    dtype=np.float64,
) -> np.ndarray:
    """Evaluate ``m_i * x + q_i`` for ``x = 0 .. L_i - 1``, concatenated."""
    m = np.asarray(m, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if m.shape != q.shape or m.shape != lengths.shape:
        raise ValueError("m, q and lengths must have identical shapes")
    n = int(lengths.sum())
    if n == 0:
        return np.zeros(0, dtype=dtype)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    seg_of = np.repeat(np.arange(lengths.size), lengths)
    x = np.arange(n, dtype=np.float64) - starts[seg_of]
    out = m[seg_of] * x + q[seg_of]
    return out.astype(dtype, copy=False)


def _polyfit_reference(w, boundaries):
    """Slow reference: np.polyfit per segment."""
    ms, qs = [], []
    for i in range(len(boundaries) - 1):
        seg = w[boundaries[i] : boundaries[i + 1]]
        if len(seg) == 1:
            ms.append(0.0)
            qs.append(float(seg[0]))
        else:
            m, q = np.polyfit(np.arange(len(seg)), seg, 1)
            ms.append(float(m))
            qs.append(float(q))
    return np.array(ms), np.array(qs)


class TestFitSegments:
    def test_matches_polyfit(self, rng):
        w = rng.normal(size=400)
        b = segment_boundaries(w, 0.1)
        m, q = fit_segments(w, b)
        m_ref, q_ref = _polyfit_reference(w, b)
        np.testing.assert_allclose(m, m_ref, atol=1e-9)
        np.testing.assert_allclose(q, q_ref, atol=1e-9)

    def test_exact_line_recovered(self):
        w = 0.5 * np.arange(20) - 3.0
        m, q = fit_segments(w, np.array([0, 20]))
        assert m[0] == pytest.approx(0.5)
        assert q[0] == pytest.approx(-3.0)

    def test_length_one_segments(self):
        w = np.array([5.0, -2.0, 7.0])
        m, q = fit_segments(w, np.array([0, 1, 2, 3]))
        np.testing.assert_allclose(m, 0.0)
        np.testing.assert_allclose(q, w)

    def test_empty(self):
        m, q = fit_segments(np.array([]), np.array([0]))
        assert m.size == 0 and q.size == 0

    @given(
        w=hnp.arrays(
            np.float64,
            st.integers(2, 80),
            elements=st.floats(-100, 100, allow_nan=False),
        ),
        delta=st.floats(0, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_least_squares_optimality(self, w, delta):
        """Perturbing (m, q) must not reduce the segment's SSE."""
        b = segment_boundaries(w, delta)
        m, q = fit_segments(w, b)
        for i in range(len(b) - 1):
            seg = w[b[i] : b[i + 1]]
            x = np.arange(len(seg))
            sse = ((m[i] * x + q[i] - seg) ** 2).sum()
            for dm, dq in ((1e-3, 0), (-1e-3, 0), (0, 1e-3), (0, -1e-3)):
                sse_p = (((m[i] + dm) * x + (q[i] + dq) - seg) ** 2).sum()
                assert sse <= sse_p + 1e-9


class TestEvaluateLines:
    def test_roundtrip_with_fit(self, rng):
        w = rng.normal(size=100)
        b = segment_boundaries(w, 50.0)  # one big segment? no: maybe; use any
        m, q = fit_segments(w, b)
        approx = evaluate_lines(m, q, np.diff(b))
        assert approx.shape == w.shape

    def test_explicit_lines(self):
        out = evaluate_lines(
            np.array([1.0, -2.0]), np.array([0.0, 10.0]), np.array([3, 2])
        )
        np.testing.assert_allclose(out, [0.0, 1.0, 2.0, 10.0, 8.0])

    def test_dtype(self):
        out = evaluate_lines(np.array([1.0]), np.array([0.0]), np.array([4]), dtype=np.float32)
        assert out.dtype == np.float32

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate_lines(np.array([1.0]), np.array([0.0, 1.0]), np.array([2]))

    def test_empty(self):
        assert evaluate_lines(np.array([]), np.array([]), np.array([], dtype=int)).size == 0
