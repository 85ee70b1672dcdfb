"""Fully connected (dense) layer."""

from __future__ import annotations

import numpy as np

from ..initializers import glorot_uniform
from .base import Layer, Parameter

__all__ = ["Dense"]


class Dense(Layer):
    """``y = x @ W + b`` with ``W`` of shape ``(in_features, out_features)``.

    The weight serialization order used by the compression experiments is
    C-order of ``W`` — rows are input neurons, matching the HDF5 layout
    of the Keras models the paper compresses.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        name: str = "",
    ) -> None:
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            glorot_uniform((in_features, out_features), rng), name=f"{name}/W"
        )
        self.bias = (
            Parameter(np.zeros(out_features, dtype=np.float32), name=f"{name}/b")
            if bias
            else None
        )
        self.name = name
        self._x: np.ndarray | None = None

    def params(self) -> list[Parameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def forward(
        self,
        x: np.ndarray,
        training: bool = False,
        weight_provider=None,
    ) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected (N, {self.in_features}), got {x.shape}"
            )
        if weight_provider is not None:
            if training:
                raise ValueError(
                    f"{self.name}: the fused streamed-weight path is "
                    "inference-only (backward needs materialized weights)"
                )
            return self._forward_streamed(x, weight_provider)
        if training:
            self._x = x
        y = x @ self.weight.data
        if self.bias is not None:
            y += self.bias.data
        return y

    def _forward_streamed(self, x: np.ndarray, provider) -> np.ndarray:
        """Fused decode+MAC: consume ``W`` row-tiles straight off a cursor.

        The stream is the C-order serialization of ``W`` (rows = input
        neurons), so a tile of ``r * out_features`` elements is ``r``
        whole rows and contributes ``x[:, rows] @ tile`` to the output —
        no full-size weight buffer ever exists on this path.

        Each tile is read once per batch and applied to every sample in
        one stacked ``(N, 1, r) @ (r, out)`` matmul, which makes per
        sample the ``(1, r) @ (r, out)`` BLAS call a lone sample makes:
        row i equals sample i's forward alone, bit for bit.
        """
        from ...core.decompressor import DEFAULT_TILE_WEIGHTS

        expected = self.in_features * self.out_features
        if provider.num_weights != expected:
            raise ValueError(
                f"{self.name}: provider yields {provider.num_weights} "
                f"weights, layer needs {expected}"
            )
        cur = provider.cursor(dtype=self.weight.data.dtype)
        rows_per_tile = max(1, DEFAULT_TILE_WEIGHTS // self.out_features)
        xs = x[:, None, :]
        y = np.zeros(
            (x.shape[0], 1, self.out_features),
            dtype=np.result_type(x, self.weight.data),
        )
        row = 0
        while row < self.in_features:
            r = min(rows_per_tile, self.in_features - row)
            block = cur.read(r * self.out_features).reshape(r, self.out_features)
            y += xs[:, :, row : row + r] @ block
            # let the cursor free the tile's plan block before it decodes
            # the next one
            del block
            row += r
        y = y[:, 0]
        if self.bias is not None:
            y += self.bias.data
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before a training forward pass")
        self.weight.add_grad(self._x.T @ grad)
        if self.bias is not None:
            self.bias.add_grad(grad.sum(axis=0))
        return grad @ self.weight.data.T

    @property
    def macs_per_sample(self) -> int:
        return self.in_features * self.out_features
