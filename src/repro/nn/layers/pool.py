"""Pooling layers: max and global average."""

from __future__ import annotations

import numpy as np

from ..tensor import conv_out_size, im2col
from .base import Layer

__all__ = ["MaxPool2D", "GlobalAvgPool2D"]


class _Pool2D(Layer):
    def __init__(self, pool_size: int, stride: int | None = None, name: str = "") -> None:
        self.pool_size = pool_size
        self.stride = stride if stride is not None else pool_size
        self.name = name
        self._cache: tuple | None = None

    def out_shape(self, in_shape: tuple[int, int, int]) -> tuple[int, int, int]:
        c, h, w = in_shape
        k, s = self.pool_size, self.stride
        return (c, conv_out_size(h, k, s, 0), conv_out_size(w, k, s, 0))

    def _windows(self, x: np.ndarray) -> tuple[np.ndarray, int, int, int, int]:
        n, c, h, w = x.shape
        k, s = self.pool_size, self.stride
        xf = x.reshape(n * c, 1, h, w)
        cols, oh, ow = im2col(xf, k, k, s, 0)  # (N*C*oh*ow, k*k)
        return cols, n, c, oh, ow


class MaxPool2D(_Pool2D):
    """Max pooling; backward routes gradients to the argmax tap."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        cols, n, c, oh, ow = self._windows(x)
        idx = cols.argmax(axis=1)
        out = cols[np.arange(cols.shape[0]), idx]
        if training:
            self._cache = (x.shape, idx)
        return out.reshape(n, c, oh, ow)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        x_shape, idx = self._cache
        n, c, h, w = x_shape
        k, s = self.pool_size, self.stride
        oh = conv_out_size(h, k, s, 0)
        ow = conv_out_size(w, k, s, 0)
        dcols = np.zeros((n * c * oh * ow, k * k), dtype=grad.dtype)
        dcols[np.arange(dcols.shape[0]), idx] = grad.ravel()
        from ..tensor import col2im

        dx = col2im(dcols, (n * c, 1, h, w), k, k, s, 0)
        return dx.reshape(n, c, h, w)


class GlobalAvgPool2D(Layer):
    """Collapse each channel's spatial map to its mean: (N,C,H,W)->(N,C)."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before a training forward pass")
        n, c, h, w = self._shape
        return np.broadcast_to(
            grad[:, :, None, None] / (h * w), (n, c, h, w)
        ).astype(grad.dtype, copy=True)

    def out_shape(self, in_shape: tuple[int, int, int]) -> tuple[int]:
        return (in_shape[0],)
