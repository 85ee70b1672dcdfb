"""Streamed layer forwards over a batch: row i is sample i's lone forward.

The fused decode+MAC paths read each weight tile once per batch and
apply it to every sample at once: a stacked matmul for ``Dense`` and
``Conv2D``, the einsum for ``DepthwiseConv2D``.  The stacked matmul
repeats, per sample, the BLAS call a lone sample makes, so each output
row must equal that sample's forward alone, bit for bit, whatever the
batch size, the layer shape and however unevenly the tiles divide the
weights.  Each tile is dropped before the next read decodes, which
bounds the fused forward's memory.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.codecs import LineFitCodec
from repro.core.decompressor import DEFAULT_TILE_WEIGHTS, DecodePlan
from repro.core.provider import ArrayProvider, BlobProvider
from repro.nn.layers import Conv2D, Dense, DepthwiseConv2D

PROVIDERS = ["array", "linefit"]


def _provider(layer, kind: str):
    weights = layer.weight.data.ravel()
    if kind == "array":
        return ArrayProvider(weights)
    return BlobProvider(LineFitCodec(delta_pct=10.0).encode(weights))


def _input(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


def _assert_rows_equal_lone(layer, x: np.ndarray, provider) -> None:
    out = layer.forward(x, weight_provider=provider)
    assert out.shape[0] == x.shape[0]
    for i in range(x.shape[0]):
        lone = layer.forward(x[i : i + 1], weight_provider=provider)[0]
        assert out[i].dtype == lone.dtype and out[i].shape == lone.shape
        assert out[i].tobytes() == lone.tobytes(), f"row {i} differs"


_BATCH = st.integers(1, 8)


class TestRowsEqualLoneSamples:
    @pytest.mark.parametrize("kind", PROVIDERS)
    @settings(max_examples=40, deadline=None)
    @given(
        batch=_BATCH,
        in_features=st.integers(1, 300),
        out_features=st.one_of(st.integers(1, 300), st.just(DEFAULT_TILE_WEIGHTS + 1)),
        seed=st.integers(0, 2**16),
    )
    # LeNet-5's dense_1: 34-row tiles, the last of 26 rows
    @example(batch=4, in_features=400, out_features=120, seed=0)
    def test_dense(self, kind, batch, in_features, out_features, seed):
        layer = Dense(in_features, out_features, rng=np.random.default_rng(seed))
        x = _input(seed, (batch, in_features))
        _assert_rows_equal_lone(layer, x, _provider(layer, kind))

    @pytest.mark.parametrize("kind", PROVIDERS)
    @settings(max_examples=40, deadline=None)
    @given(
        batch=_BATCH,
        in_channels=st.integers(1, 32),
        out_channels=st.integers(1, 48),
        kernel=st.sampled_from([1, 3, 5]),
        stride=st.integers(1, 2),
        padding=st.integers(0, 1),
        extra=st.tuples(st.integers(0, 6), st.integers(0, 6)),
        seed=st.integers(0, 2**16),
    )
    # 400-weight filters: tiles of 10 filters, the last of 6
    @example(batch=3, in_channels=16, out_channels=26, kernel=5, stride=1,
             padding=0, extra=(1, 2), seed=0)
    def test_conv2d(self, kind, batch, in_channels, out_channels, kernel,
                    stride, padding, extra, seed):
        layer = Conv2D(in_channels, out_channels, kernel, stride=stride,
                       padding=padding, rng=np.random.default_rng(seed))
        x = _input(seed, (batch, in_channels, kernel + extra[0], kernel + extra[1]))
        _assert_rows_equal_lone(layer, x, _provider(layer, kind))

    @pytest.mark.parametrize("kind", PROVIDERS)
    @settings(max_examples=40, deadline=None)
    @given(
        batch=_BATCH,
        channels=st.integers(1, 600),
        kernel=st.sampled_from([1, 3, 5]),
        stride=st.integers(1, 2),
        padding=st.integers(0, 1),
        extra=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        seed=st.integers(0, 2**16),
    )
    # 25-weight filters: tiles of 163 channels, the last of 74
    @example(batch=5, channels=400, kernel=5, stride=1, padding=1,
             extra=(0, 3), seed=0)
    def test_depthwise(self, kind, batch, channels, kernel, stride, padding,
                       extra, seed):
        layer = DepthwiseConv2D(channels, kernel, stride=stride, padding=padding,
                                rng=np.random.default_rng(seed))
        x = _input(seed, (batch, channels, kernel + extra[0], kernel + extra[1]))
        _assert_rows_equal_lone(layer, x, _provider(layer, kind))


@pytest.mark.parametrize("batch", [1, 4])
def test_fused_dense_holds_one_tile_at_a_time(batch):
    """The fused Dense forward holds one tile, not the previous one too.

    A tile is a view of the cursor's decoded plan block, so a tile still
    referenced while the next read decodes keeps a second block alive.
    """
    layer = Dense(1024, 1024, bias=False, rng=np.random.default_rng(0))
    blob = LineFitCodec(delta_pct=10.0).encode(layer.weight.data.ravel())
    provider = BlobProvider(blob)
    plan = DecodePlan(LineFitCodec().decode_stream(blob))
    blocks = np.diff([0, *plan.block_ends])
    assert blocks.size > 8
    tile = 4 * DEFAULT_TILE_WEIGHTS
    row = 4 * batch * layer.out_features  # the output, and one tile product
    # slack: the kernel's per-segment state for the largest block (an
    # intp position and a float32 accumulator per segment), the carried
    # weights (under a tile) copied out at a block boundary, and 64 KiB
    # for small objects
    slack = 12 * max(hi - lo for lo, hi, *_ in plan._blocks) + tile + (64 << 10)
    bound = tile + 4 * int(blocks.max()) + 2 * row + slack
    x = _input(1, (batch, layer.in_features))
    layer.forward(x, weight_provider=provider)  # plans and lazy imports
    tracemalloc.start()
    try:
        layer.forward(x, weight_provider=provider)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)
