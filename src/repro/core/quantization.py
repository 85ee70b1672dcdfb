"""TFLite-style post-training int8 quantization (Sec. IV-D).

The paper stacks its compression on top of TensorFlow Lite's hybrid
8-bit scheme, where weights are stored as int8 under the affine map

    real_value = (int8_value - zero_point) * scale

with per-tensor ``scale``/``zero_point`` and float activations
("hybrid" quantization).  This module reproduces that scheme; the
compression of a quantized layer then operates on the *int8 value
stream* (cast to float for segmentation, with delta expressed as a
percentage of the int8 range) — the orthogonality of the two techniques
is exactly what Tab. III demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuantizedTensor", "quantize_tensor", "quantize_model"]

_QMIN, _QMAX = -128, 127


@dataclass(frozen=True)
class QuantizedTensor:
    """Per-tensor affine int8 quantization of one weight tensor."""

    values: np.ndarray  # int8, original tensor shape
    scale: float
    zero_point: int

    def dequantize(self) -> np.ndarray:
        return (
            (self.values.astype(np.float32) - np.float32(self.zero_point))
            * np.float32(self.scale)
        )

    @property
    def num_params(self) -> int:
        return int(self.values.size)

    @property
    def footprint_bytes(self) -> int:
        # int8 payload + per-tensor scale (f32) and zero point (i32)
        return self.num_params + 8


def quantize_tensor(weights: np.ndarray) -> QuantizedTensor:
    """Asymmetric per-tensor int8 quantization (TFLite convention)."""
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        return QuantizedTensor(
            values=np.zeros(w.shape, dtype=np.int8), scale=1.0, zero_point=0
        )
    lo = float(min(w.min(), 0.0))
    hi = float(max(w.max(), 0.0))
    if hi == lo:
        return QuantizedTensor(
            values=np.zeros(w.shape, dtype=np.int8), scale=1.0, zero_point=0
        )
    scale = (hi - lo) / (_QMAX - _QMIN)
    if scale == 0.0:
        # range below float64 subnormal resolution: every value rounds
        # to the same code, same as the hi == lo degenerate case
        return QuantizedTensor(
            values=np.zeros(w.shape, dtype=np.int8), scale=1.0, zero_point=0
        )
    zero_point = int(round(_QMIN - lo / scale))
    zero_point = int(np.clip(zero_point, _QMIN, _QMAX))
    q = np.clip(np.round(w / scale) + zero_point, _QMIN, _QMAX).astype(np.int8)
    return QuantizedTensor(values=q, scale=scale, zero_point=zero_point)


def quantize_model(model) -> dict[str, QuantizedTensor]:
    """Quantize every parametric layer's weight tensor of a proxy model.

    Returns ``{layer_name: QuantizedTensor}``; callers apply them with
    ``model.set_weights(name, qt.dequantize())`` to simulate hybrid
    inference (int8 storage, float compute).
    """
    return {
        name: quantize_tensor(layer.params()[0].data)
        for name, layer in model.parametric_layers()
    }
