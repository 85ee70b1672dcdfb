"""Zoo-wide witness: the gather im2col and the tap max-pool change no bit.

Every zoo proxy runs twice from the same seed: once as shipped and once
with the reference kernels of :mod:`tests.nn.oracles` (strided-view
unfold, unfold + ``argmax`` max-pool) patched into its layers.  The
batched, single-sample, streamed and training forwards, the parameter
gradients, and the replies of a served LeNet-5 archive on both serve
paths must agree bitwise.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.core.codecs import CompressedBlob
from repro.core.model_store import compress_model
from repro.core.provider import ArrayProvider, provider_for
from repro.experiments.common import PROXY_INPUT_SHAPES
from repro.nn import zoo
from repro.serve import ServedModel
from tests.nn.oracles import oracle_layers

PROXIES = {
    "LeNet-5": zoo.lenet5,
    "AlexNet": zoo.alexnet,
    "VGG-16": zoo.vgg16,
    "MobileNet": zoo.mobilenet,
    "Inception-v3": zoo.inception_v3,
    "ResNet50": zoo.resnet50,
}


def _streams_weights(layer) -> bool:
    return "weight_provider" in inspect.signature(layer.forward).parameters


def _zoo_run(module, x: np.ndarray) -> list[np.ndarray]:
    """Every forward kind of one fresh proxy, then its gradients."""
    model = module.proxy(np.random.default_rng(3))
    outs = [model.forward(x), model.forward(x[:1])]
    providers = {
        name: ArrayProvider(layer.weight.data)
        for name, layer in model.parametric_layers()
        if _streams_weights(layer)
    }
    outs.append(model.forward_streamed(x[:1], providers))
    logits = model.forward(x, training=True)
    dloss = np.random.default_rng(4).standard_normal(logits.shape).astype(np.float32)
    outs += [logits, model.backward(dloss)]
    outs += [p.grad for p in model.params()]
    return outs


def _assert_bitwise(got: list[np.ndarray], want: list[np.ndarray]) -> None:
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype and a.shape == b.shape, i
        assert a.tobytes() == b.tobytes(), f"output {i} differs"


@pytest.mark.parametrize("name", sorted(PROXIES))
def test_zoo_forwards_equal_the_reference_kernels(name):
    x = np.random.default_rng(5).standard_normal((3, *PROXY_INPUT_SHAPES[name]))
    x = x.astype(np.float32)
    got = _zoo_run(PROXIES[name], x)
    with oracle_layers():
        want = _zoo_run(PROXIES[name], x)
    _assert_bitwise(got, want)


def _served_replies(archive, inputs: list[np.ndarray]) -> list[np.ndarray]:
    """One δ = 10 % LeNet-5 archive behind both serve paths."""
    hot = ServedModel(zoo.lenet5.proxy(np.random.default_rng(6)), archive)
    replies = hot.forward_batch(inputs)
    skeleton = zoo.lenet5.proxy(np.random.default_rng(6))
    state = skeleton.state_dict()
    state.update(archive.state)
    skeleton.load_state_dict(state)
    providers = {
        name: provider_for(CompressedBlob.rebuild(archive.codecs[name], payload))
        for name, (payload, _) in archive.compressed.items()
    }
    replies += [skeleton.forward_streamed(x[None], providers)[0] for x in inputs]
    return replies


def test_served_lenet5_replies_equal_the_reference_kernels():
    model = zoo.lenet5.proxy(np.random.default_rng(7))
    archive = compress_model(model, {name: 10.0 for name, _ in model.parametric_layers()})
    rng = np.random.default_rng(8)
    inputs = [rng.standard_normal((1, 28, 28)).astype(np.float32) for _ in range(8)]
    got = _served_replies(archive, inputs)
    with oracle_layers():
        want = _served_replies(archive, inputs)
    _assert_bitwise(got, want)
