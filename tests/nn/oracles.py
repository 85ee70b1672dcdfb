"""Reference im2col and max-pool the fast inference paths are checked against.

``im2col_strided`` is the strided-view unfold the gather ``im2col``
replaced: ``np.pad``, a 6-D ``as_strided`` window view, and one
transposed copy into C order.  ``maxpool_argmax`` is max-pooling by
unfold + ``argmax`` + gather, the rule the running-maximum inference
path must reproduce bit for bit.  ``oracle_layers`` swaps both into the
layers, so a whole model can run once as the reference.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np

from repro.nn.layers import conv, pool
from repro.nn.tensor import conv_out_size


def im2col_strided(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> tuple[np.ndarray, int, int]:
    n, c, h, w = x.shape
    oh = conv_out_size(h, kh, stride, pad)
    ow = conv_out_size(w, kw, stride, pad)
    xp = x if pad == 0 else np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    sn, sc, sh, sw = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, kh, kw, oh, ow),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    cols = view.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols), oh, ow


def maxpool_argmax(layer: pool.MaxPool2D, x: np.ndarray, training: bool = False) -> np.ndarray:
    """``MaxPool2D.forward`` by unfold + ``argmax``, on the strided unfold."""
    n, c, h, w = x.shape
    k, s = layer.pool_size, layer.stride
    cols, oh, ow = im2col_strided(x.reshape(n * c, 1, h, w), k, k, s, 0)
    idx = cols.argmax(axis=1)
    if training:
        layer._cache = (x.shape, idx)
    return cols[np.arange(cols.shape[0]), idx].reshape(n, c, oh, ow)


@contextlib.contextmanager
def oracle_layers():
    """Run every conv and max-pool layer on the reference kernels."""
    with (
        mock.patch.object(conv, "im2col", im2col_strided),
        mock.patch.object(pool, "im2col", im2col_strided),
        mock.patch.object(pool.MaxPool2D, "forward", maxpool_argmax),
    ):
        yield
