"""im2col/col2im correctness against naive implementations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.tensor import col2im, conv_out_size, im2col, pad_nchw
from tests.nn.oracles import im2col_strided


class TestConvOutSize:
    @pytest.mark.parametrize(
        "size,k,s,p,expected",
        [(28, 5, 1, 2, 28), (28, 5, 1, 0, 24), (224, 3, 2, 1, 112), (7, 7, 1, 0, 1)],
    )
    def test_known_shapes(self, size, k, s, p, expected):
        assert conv_out_size(size, k, s, p) == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            conv_out_size(2, 5, 1, 0)


class TestPad:
    def test_noop(self, rng):
        x = rng.normal(size=(1, 1, 3, 3))
        assert pad_nchw(x, 0, 0) is x

    def test_shape(self, rng):
        x = rng.normal(size=(2, 3, 4, 5))
        assert pad_nchw(x, 1, 2).shape == (2, 3, 6, 9)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_np_pad(self, rng, dtype):
        x = rng.normal(size=(2, 3, 4, 5)).astype(dtype)
        x[0, 0, 0, 0] = -0.0
        x[1, 2, 3, 4] = np.nan
        got = pad_nchw(x[:, ::-1], 2, 1)  # non-contiguous input
        want = np.pad(x[:, ::-1], ((0, 0), (0, 0), (2, 2), (1, 1)))
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()


def _naive_conv(x, w, stride, pad):
    n, c, h, ww = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (ww + 2 * pad - kw) // stride + 1
    out = np.zeros((n, o, oh, ow))
    for b in range(n):
        for f in range(o):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[b, f, i, j] = (patch * w[f]).sum()
    return out


class TestIm2Col:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_gemm_equals_naive_conv(self, rng, stride, pad):
        x = rng.normal(size=(2, 3, 7, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        cols, oh, ow = im2col(x, 3, 3, stride, pad)
        out = (cols @ w.reshape(4, -1).T).reshape(2, oh, ow, 4).transpose(0, 3, 1, 2)
        np.testing.assert_allclose(out, _naive_conv(x, w, stride, pad), atol=1e-12)

    def test_identity_kernel(self, rng):
        x = rng.normal(size=(1, 1, 5, 5))
        cols, oh, ow = im2col(x, 1, 1, 1, 0)
        np.testing.assert_array_equal(cols.reshape(5, 5), x[0, 0])

    def test_empty_batch(self):
        cols, oh, ow = im2col(np.zeros((0, 2, 5, 5), np.float32), 3, 3, 1, 1)
        assert cols.shape == (0, 18) and (oh, ow) == (5, 5)


def _layout(x: np.ndarray, kind: str) -> np.ndarray:
    """The same values as ``x`` under a different memory layout."""
    if kind == "fortran":
        return np.asfortranarray(x)
    if kind == "strided":  # every other element of a twice-as-wide array
        wide = np.repeat(x, 2, axis=3)
        return wide[..., ::2]
    if kind == "reversed":  # a negative-stride view holding x's values
        return np.ascontiguousarray(x[:, :, ::-1])[:, :, ::-1]
    return x


@st.composite
def _unfold_cases(draw):
    n, c = draw(st.integers(1, 8)), draw(st.integers(1, 16))
    kh, kw = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    stride, pad = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    h = max(1, kh - 2 * pad) + draw(st.integers(0, 7))
    w = max(1, kw - 2 * pad) + draw(st.integers(0, 7))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, c, h, w)).astype(dtype)
    specials = np.array([-0.0, np.nan, np.inf, -np.inf], dtype=dtype)
    flat = x.reshape(-1)
    for i in draw(st.lists(st.integers(0, flat.size - 1), max_size=6)):
        flat[i] = specials[i % specials.size]
    layout = draw(st.sampled_from(["c", "fortran", "strided", "reversed"]))
    return _layout(x, layout), kh, kw, stride, pad


class TestIm2ColOracle:
    """The gather unfold equals the strided-view unfold bit for bit."""

    @given(case=_unfold_cases())
    @settings(max_examples=200, deadline=None)
    def test_property(self, case):
        x, kh, kw, stride, pad = case
        cols, oh, ow = im2col(x, kh, kw, stride, pad)
        want, woh, wow = im2col_strided(x, kh, kw, stride, pad)
        assert (oh, ow) == (woh, wow)
        assert cols.shape == want.shape and cols.dtype == x.dtype
        assert cols.flags.c_contiguous
        assert cols.tobytes() == want.tobytes()

    def test_input_not_written(self, rng):
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        before = x.copy()
        cols, _, _ = im2col(x, 3, 3, 1, 1)
        cols[...] = 7.0  # the columns are a copy, and the memo is not shared
        assert np.array_equal(x, before)
        again, _, _ = im2col(x, 3, 3, 1, 1)
        assert again.tobytes() == im2col_strided(x, 3, 3, 1, 1)[0].tobytes()


class TestCol2Im:
    def test_adjoint_property(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — col2im is the exact adjoint."""
        x = rng.normal(size=(2, 3, 6, 6))
        cols, oh, ow = im2col(x, 3, 3, 2, 1)
        y = rng.normal(size=cols.shape)
        lhs = (cols * y).sum()
        rhs = (x * col2im(y, x.shape, 3, 3, 2, 1)).sum()
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_counts_overlaps(self):
        x_shape = (1, 1, 4, 4)
        cols, oh, ow = im2col(np.ones(x_shape), 3, 3, 1, 0)
        back = col2im(np.ones_like(cols), x_shape, 3, 3, 1, 0)
        # center pixels belong to 4 windows, corners to 1
        assert back[0, 0, 0, 0] == 1
        assert back[0, 0, 1, 1] == 4
