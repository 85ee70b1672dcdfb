"""Convolution layers (standard and depthwise), im2col + GEMM based."""

from __future__ import annotations

import numpy as np

from ..initializers import he_normal
from ..tensor import col2im, conv_out_size, im2col
from .base import Layer, Parameter

__all__ = ["Conv2D", "DepthwiseConv2D"]


class Conv2D(Layer):
    """2-D convolution, NCHW activations, OIHW kernel.

    ``padding`` is either an int or ``"same"`` (stride-1 shape-preserving
    padding, odd kernels only).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int | str = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        name: str = "",
    ) -> None:
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = self._resolve_padding(padding, kernel_size)
        self.weight = Parameter(
            he_normal((out_channels, in_channels, kernel_size, kernel_size), rng),
            name=f"{name}/W",
        )
        self.bias = (
            Parameter(np.zeros(out_channels, dtype=np.float32), name=f"{name}/b")
            if bias
            else None
        )
        self.name = name
        self._cache: tuple | None = None

    @staticmethod
    def _resolve_padding(padding: int | str, kernel_size: int) -> int:
        if padding == "same":
            if kernel_size % 2 == 0:
                raise ValueError("'same' padding requires an odd kernel size")
            return kernel_size // 2
        return int(padding)

    def params(self) -> list[Parameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def forward(
        self,
        x: np.ndarray,
        training: bool = False,
        weight_provider=None,
    ) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"{self.name}: expected {self.in_channels} channels, got {c}")
        k, s, p = self.kernel_size, self.stride, self.padding
        cols, oh, ow = im2col(x, k, k, s, p)
        if weight_provider is not None:
            if training:
                raise ValueError(
                    f"{self.name}: the fused streamed-weight path is "
                    "inference-only (backward needs materialized weights)"
                )
            out = self._matmul_streamed(
                cols.reshape(n, oh * ow, cols.shape[1]), weight_provider
            )
        else:
            wmat = self.weight.data.reshape(self.out_channels, -1)
            out = cols @ wmat.T  # (N*oh*ow, O)
        if self.bias is not None:
            out += self.bias.data
        y = out.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)
        if training:
            self._cache = (x.shape, cols)
        return np.ascontiguousarray(y)

    def _matmul_streamed(self, cols: np.ndarray, provider) -> np.ndarray:
        """Fused decode+MAC over output-channel tiles.

        The OIHW kernel's C-order stream is filter-major: a tile of
        ``r * (I*kh*kw)`` elements is ``r`` whole filters, so each tile
        fills ``r`` output columns of the im2col GEMM as it is decoded.

        ``cols`` is the batch's ``im2col`` viewed as ``(N, oh*ow, K)``.
        Each tile is read once per batch and applied as one stacked
        ``cols @ tile.T``, which makes per sample the ``(oh*ow, K) @
        (K, r)`` BLAS call a lone sample makes: sample i's outputs
        equal its forward alone, bit for bit.  Returns ``(N, oh*ow, O)``.
        """
        from ...core.decompressor import DEFAULT_TILE_WEIGHTS

        kernel_elems = self.in_channels * self.kernel_size**2
        expected = self.out_channels * kernel_elems
        if provider.num_weights != expected:
            raise ValueError(
                f"{self.name}: provider yields {provider.num_weights} "
                f"weights, layer needs {expected}"
            )
        cur = provider.cursor(dtype=self.weight.data.dtype)
        filters_per_tile = max(1, DEFAULT_TILE_WEIGHTS // kernel_elems)
        out = np.empty(
            (*cols.shape[:2], self.out_channels),
            dtype=np.result_type(cols, self.weight.data),
        )
        o = 0
        while o < self.out_channels:
            r = min(filters_per_tile, self.out_channels - o)
            block = cur.read(r * kernel_elems).reshape(r, kernel_elems)
            out[:, :, o : o + r] = cols @ block.T
            # let the cursor free the tile's plan block before it decodes
            # the next one
            del block
            o += r
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        x_shape, cols = self._cache
        n, _, oh, ow = grad.shape
        g = grad.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)  # (N*oh*ow, O)
        self.weight.add_grad((g.T @ cols).reshape(self.weight.shape))
        if self.bias is not None:
            self.bias.add_grad(g.sum(axis=0))
        dcols = g @ self.weight.data.reshape(self.out_channels, -1)
        k, s, p = self.kernel_size, self.stride, self.padding
        return col2im(dcols, x_shape, k, k, s, p)

    def out_shape(self, in_shape: tuple[int, int, int]) -> tuple[int, int, int]:
        _, h, w = in_shape
        k, s, p = self.kernel_size, self.stride, self.padding
        return (self.out_channels, conv_out_size(h, k, s, p), conv_out_size(w, k, s, p))

    def macs_per_sample(self, in_shape: tuple[int, int, int]) -> int:
        _, oh, ow = self.out_shape(in_shape)
        return (
            oh * ow * self.out_channels * self.in_channels * self.kernel_size**2
        )


class DepthwiseConv2D(Layer):
    """Depthwise 2-D convolution (one filter per input channel).

    Implemented by running im2col per channel group via a reshape trick:
    the channel axis is folded into the batch so the kernel applies
    channel-wise with a single einsum.
    """

    def __init__(
        self,
        channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int | str = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        name: str = "",
    ) -> None:
        rng = rng or np.random.default_rng(0)
        self.channels = channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = Conv2D._resolve_padding(padding, kernel_size)
        self.weight = Parameter(
            he_normal((channels, 1, kernel_size, kernel_size), rng),
            name=f"{name}/W",
        )
        self.bias = (
            Parameter(np.zeros(channels, dtype=np.float32), name=f"{name}/b")
            if bias
            else None
        )
        self.name = name
        self._cache: tuple | None = None

    def params(self) -> list[Parameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def forward(
        self,
        x: np.ndarray,
        training: bool = False,
        weight_provider=None,
    ) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.channels:
            raise ValueError(f"{self.name}: expected {self.channels} channels, got {c}")
        k, s, p = self.kernel_size, self.stride, self.padding
        # Fold channels into the batch: (N*C, 1, H, W)
        xf = x.reshape(n * c, 1, h, w)
        cols, oh, ow = im2col(xf, k, k, s, p)  # (N*C*oh*ow, k*k)
        cols4 = cols.reshape(n, c, oh * ow, k * k)
        if weight_provider is not None:
            if training:
                raise ValueError(
                    f"{self.name}: the fused streamed-weight path is "
                    "inference-only (backward needs materialized weights)"
                )
            out = self._einsum_streamed(cols4, weight_provider)
        else:
            wmat = self.weight.data.reshape(c, k * k)
            out = np.einsum("ncpk,ck->ncp", cols4, wmat)
        if self.bias is not None:
            out += self.bias.data[None, :, None]
        y = out.reshape(n, c, oh, ow)
        if training:
            self._cache = ((n * c, 1, h, w), cols4)
        return y

    def _einsum_streamed(self, cols4: np.ndarray, provider) -> np.ndarray:
        """Fused decode+MAC over channel tiles of the (C, 1, k, k) kernel.

        The C-order stream is channel-major, so a tile of ``r * k*k``
        elements is ``r`` whole per-channel filters and fills ``r``
        channel slices of the output as it is decoded.
        """
        from ...core.decompressor import DEFAULT_TILE_WEIGHTS

        kk = self.kernel_size**2
        expected = self.channels * kk
        if provider.num_weights != expected:
            raise ValueError(
                f"{self.name}: provider yields {provider.num_weights} "
                f"weights, layer needs {expected}"
            )
        cur = provider.cursor(dtype=self.weight.data.dtype)
        channels_per_tile = max(1, DEFAULT_TILE_WEIGHTS // kk)
        n, c, npix, _ = cols4.shape
        out = np.empty(
            (n, c, npix), dtype=np.result_type(cols4, self.weight.data)
        )
        ch = 0
        while ch < self.channels:
            r = min(channels_per_tile, self.channels - ch)
            block = cur.read(r * kk).reshape(r, kk)
            out[:, ch : ch + r] = np.einsum(
                "ncpk,ck->ncp", cols4[:, ch : ch + r], block
            )
            # let the cursor free the tile's plan block before it decodes
            # the next one
            del block
            ch += r
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        xf_shape, cols4 = self._cache
        n, c, oh, ow = grad.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        g = grad.reshape(n, c, oh * ow)
        self.weight.add_grad(
            np.einsum("ncp,ncpk->ck", g, cols4).reshape(self.weight.shape)
        )
        if self.bias is not None:
            self.bias.add_grad(g.sum(axis=(0, 2)))
        dcols = np.einsum("ncp,ck->ncpk", g, self.weight.data.reshape(c, k * k))
        dx = col2im(dcols.reshape(n * c * oh * ow, k * k), xf_shape, k, k, s, p)
        return dx.reshape(n, c, *xf_shape[2:])

    def out_shape(self, in_shape: tuple[int, int, int]) -> tuple[int, int, int]:
        _, h, w = in_shape
        k, s, p = self.kernel_size, self.stride, self.padding
        return (self.channels, conv_out_size(h, k, s, p), conv_out_size(w, k, s, p))

    def macs_per_sample(self, in_shape: tuple[int, int, int]) -> int:
        _, oh, ow = self.out_shape(in_shape)
        return oh * ow * self.channels * self.kernel_size**2
