"""Activation layers."""

from __future__ import annotations

import numpy as np

from .base import Layer

__all__ = ["ReLU", "Softmax", "softmax"]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


class ReLU(Layer):
    def __init__(self, name: str = "") -> None:
        self.name = name
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._mask = x > 0
        return np.maximum(x, 0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training forward pass")
        return grad * self._mask


class Softmax(Layer):
    """Inference-time softmax.

    Training uses the fused softmax-cross-entropy loss
    (:class:`repro.nn.losses.SoftmaxCrossEntropy`) instead, so this
    layer's backward is intentionally unavailable — model containers
    skip it during training.
    """

    is_output_activation = True

    def __init__(self, name: str = "") -> None:
        self.name = name

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return softmax(x, axis=-1)
