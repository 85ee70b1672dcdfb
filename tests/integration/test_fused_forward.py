"""Fused streamed-weight forward == materialized forward, zoo-wide.

For every model in the zoo, the first parametric layer's full-scale
weights are driven through the fused decode+MAC path
(``forward(weight_provider=...)``) and compared against the classic
materialized forward.  Two provider flavors are exercised:

* :class:`ArrayProvider` over the exact same weights — results must be
  **bit-identical** (same dtype, same blocked GEMM accumulation order is
  not required, so equality is checked to float32 resolution);
* the streaming :class:`BlobProvider` over the line-fit compressed
  blob, with the materialized pass using the same *decoded* weights —
  both paths then consume identical values, so any difference is a
  streaming bug.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.codecs import LineFitCodec
from repro.core.provider import ArrayProvider, provider_for
from repro.nn import zoo
from repro.nn.arch import LayerKind
from repro.nn.layers import Conv2D, Dense, DepthwiseConv2D


def _first_parametric(spec):
    return spec.parametric_layers()[0]


def _build_layer(layer_spec, weights):
    """An nn layer matching the spec's weight tensor, loaded with it.

    Stride/padding do not affect weight consumption, so minimal values
    keep the activation volume small while the weights stay full-scale.
    """
    shape = layer_spec.weight_shape
    if layer_spec.kind is LayerKind.CONV:
        o, i, k, _ = shape
        layer = Conv2D(i, o, k, bias=False, name=layer_spec.name)
    elif layer_spec.kind is LayerKind.DWCONV:
        c, _, k, _ = shape
        layer = DepthwiseConv2D(c, k, bias=False, name=layer_spec.name)
    elif layer_spec.kind is LayerKind.FC:
        fin, fout = shape
        layer = Dense(fin, fout, bias=False, name=layer_spec.name)
    else:  # pragma: no cover - zoo first layers are all parametric kinds
        raise AssertionError(f"unexpected kind {layer_spec.kind}")
    layer.weight.data = weights.reshape(shape).astype(np.float32)
    return layer


def _small_input(layer, rng):
    if isinstance(layer, Dense):
        return rng.standard_normal((3, layer.in_features)).astype(np.float32)
    k = layer.kernel_size
    c = layer.in_channels if isinstance(layer, Conv2D) else layer.channels
    side = max(k, 6)
    return rng.standard_normal((2, c, side, side)).astype(np.float32)


@pytest.mark.parametrize("module", zoo.ALL_MODELS, ids=lambda m: m.NAME)
def test_first_layer_fused_equals_materialized(module):
    spec = module.full()
    layer_spec = _first_parametric(spec)
    weights = spec.materialize(layer_spec.name).ravel()
    layer = _build_layer(layer_spec, weights)
    x = _small_input(layer, np.random.default_rng(11))

    ref = layer.forward(x)
    out = layer.forward(x, weight_provider=ArrayProvider(weights))
    np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("module", zoo.ALL_MODELS, ids=lambda m: m.NAME)
def test_first_layer_streamed_compressed_equals_materialized(module):
    spec = module.full()
    layer_spec = _first_parametric(spec)
    weights = spec.materialize(layer_spec.name).ravel()
    codec = LineFitCodec(delta=0.05)
    blob = codec.encode(weights)
    decoded = codec.decode(blob)

    layer = _build_layer(layer_spec, decoded)
    x = _small_input(layer, np.random.default_rng(13))
    ref = layer.forward(x)
    out = layer.forward(x, weight_provider=provider_for(blob))
    np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-5)


def test_dense_and_depthwise_layers_covered():
    """The zoo's first layers are convs; cover Dense/DWConv explicitly."""
    lenet = zoo.lenet5.full()
    fc = next(l for l in lenet.parametric_layers() if l.kind is LayerKind.FC)
    w = lenet.materialize(fc.name).ravel()
    layer = _build_layer(fc, w)
    x = _small_input(layer, np.random.default_rng(17))
    np.testing.assert_allclose(
        layer.forward(x, weight_provider=ArrayProvider(w)),
        layer.forward(x),
        rtol=1e-5,
        atol=1e-5,
    )

    mobile = zoo.mobilenet.full()
    dw = next(
        l for l in mobile.parametric_layers() if l.kind is LayerKind.DWCONV
    )
    w = mobile.materialize(dw.name).ravel()
    layer = _build_layer(dw, w)
    x = _small_input(layer, np.random.default_rng(19))
    np.testing.assert_allclose(
        layer.forward(x, weight_provider=ArrayProvider(w)),
        layer.forward(x),
        rtol=1e-5,
        atol=1e-5,
    )


def test_training_with_provider_rejected():
    layer = Dense(8, 4, name="fc")
    x = np.zeros((1, 8), dtype=np.float32)
    provider = ArrayProvider(layer.weight.data.ravel())
    with pytest.raises(ValueError, match="inference-only"):
        layer.forward(x, training=True, weight_provider=provider)


def test_provider_size_mismatch_rejected():
    layer = Dense(8, 4, name="fc")
    x = np.zeros((1, 8), dtype=np.float32)
    with pytest.raises(ValueError, match="provider yields"):
        layer.forward(x, weight_provider=ArrayProvider(np.zeros(5)))
