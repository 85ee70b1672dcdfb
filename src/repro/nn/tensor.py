"""Array plumbing for the NumPy CNN framework.

Layout convention: activations are NCHW (batch, channels, height, width),
convolution kernels are OIHW (out-channels, in-channels, kh, kw).

The convolution layers are built on :func:`im2col` / :func:`col2im`,
turning convolutions into one large GEMM — the standard way to make a
pure-NumPy CNN fast enough to train (the GEMM runs in BLAS).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["conv_out_size", "pad_nchw", "im2col", "col2im"]


def conv_out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution/pooling window sweep."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size for input={size}, kernel={kernel}, "
            f"stride={stride}, pad={pad}"
        )
    return out


def pad_nchw(x: np.ndarray, pad_h: int, pad_w: int) -> np.ndarray:
    """Zero-pad the two spatial dims of an NCHW tensor."""
    if pad_h == 0 and pad_w == 0:
        return x
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * pad_h, w + 2 * pad_w), dtype=x.dtype)
    xp[:, :, pad_h : pad_h + h, pad_w : pad_w + w] = x
    return xp


@lru_cache(maxsize=64)
def _gather_index(
    c: int, hp: int, wp: int, kh: int, kw: int, stride: int, oh: int, ow: int
) -> np.ndarray:
    """Flat offsets into one padded ``(C, hp, wp)`` sample, laid out as
    the ``(oh * ow, C * kh * kw)`` im2col block of that sample.

    Memoized per geometry (a model revisits the same few shapes on every
    forward); read-only, since every caller shares it.
    """
    taps = (
        np.arange(c)[:, None, None] * (hp * wp)
        + np.arange(kh)[None, :, None] * wp
        + np.arange(kw)[None, None, :]
    ).ravel()
    pixels = (
        np.arange(oh)[:, None] * (stride * wp) + np.arange(ow)[None, :] * stride
    ).ravel()
    index = pixels[:, None] + taps[None, :]
    index.flags.writeable = False
    return index


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> tuple[np.ndarray, int, int]:
    """Unfold sliding windows of an NCHW tensor into GEMM columns.

    Returns ``(cols, oh, ow)`` where ``cols`` is a C-ordered array of
    shape ``(N * oh * ow, C * kh * kw)``: one row per output pixel, one
    column per kernel tap, in ``x``'s dtype.  The copy is one ``np.take``
    per call through a memoized index, so the columns come out in their
    final layout with no strided intermediate.
    """
    n, c, h, w = x.shape
    oh = conv_out_size(h, kh, stride, pad)
    ow = conv_out_size(w, kw, stride, pad)
    hp, wp = h + 2 * pad, w + 2 * pad
    index = _gather_index(c, hp, wp, kh, kw, stride, oh, ow)
    xp = pad_nchw(x, pad, pad).reshape(n, c * hp * wp)
    cols = np.take(xp, index, axis=1)  # (N, oh * ow, C * kh * kw)
    return cols.reshape(n * oh * ow, c * kh * kw), oh, ow


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold GEMM columns back into an NCHW tensor (adjoint of im2col).

    Overlapping window contributions are *summed*, which is exactly the
    gradient of the unfold — used by the convolution backward pass.
    """
    n, c, h, w = x_shape
    oh = conv_out_size(h, kh, stride, pad)
    ow = conv_out_size(w, kw, stride, pad)
    cols6 = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            xp[:, :, i:i_max:stride, j:j_max:stride] += cols6[:, :, i, j]
    if pad == 0:
        return xp
    return xp[:, :, pad : pad + h, pad : pad + w]
