"""Activation-stream compression (extension)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.activation_compression import (
    activation_cr_profile,
    evaluate_with_compressed_activations,
)
from repro.core.codecs import get_codec
from repro.datasets import train_test
from repro.nn import TrainConfig, evaluate, train
from repro.nn.zoo import lenet5


@pytest.fixture(scope="module")
def trained():
    split = train_test("digits", 2000, 400, seed=13)
    model = lenet5.proxy(np.random.default_rng(13))
    train(model, split.x_train, split.y_train, TrainConfig(epochs=5, lr=0.05))
    return model, split


class TestTracedForward:
    def test_traced_matches_plain_forward(self, trained):
        model, split = trained
        x = split.x_test[:8]
        y_plain = model.forward(x)
        y_traced, acts = model.forward_traced(x)
        np.testing.assert_allclose(y_traced, y_plain, rtol=1e-6)
        assert set(acts) == set(model.node_names)

    def test_transform_identity(self, trained):
        model, split = trained
        x = split.x_test[:8]
        y = model.forward_transformed(x, lambda name, out: out)
        np.testing.assert_allclose(y, model.forward(x), rtol=1e-6)


class TestActivationProfile:
    def test_relu_outputs_have_zeros_and_compress_well(self, trained):
        model, split = trained
        profiles = activation_cr_profile(model, split.x_test[:64], delta_pct=5.0)
        by_name = {p.layer: p for p in profiles}
        relu = by_name["relu_1"]
        assert relu.zero_fraction > 0.2
        # activations compress better than a weight-like Gaussian stream
        gauss = get_codec("linefit", delta_pct=5.0).encode(
            np.random.default_rng(0).normal(size=relu.num_values).astype(np.float32)
        ).compression_ratio
        assert relu.cr > gauss

    def test_profile_covers_major_nodes(self, trained):
        model, split = trained
        profiles = activation_cr_profile(model, split.x_test[:32], delta_pct=5.0)
        names = {p.layer for p in profiles}
        assert "conv2d_1" in names and "dense_1" in names


class TestAccuracyUnderActivationCompression:
    """The extension's headline *negative* result: unlike deep weights,
    activations do not tolerate the line-fit codec — which supports the
    paper's decision to target parameters."""

    def test_activations_more_sensitive_than_weights(self, trained):
        from repro.core.pipeline import CompressionPipeline

        model, split = trained
        base = evaluate(model, split.x_test, split.y_test).top1
        act_acc = evaluate_with_compressed_activations(
            model, split.x_test, split.y_test, delta_pct=2.0
        )
        pipe = CompressionPipeline(model, split.x_test, split.y_test, "dense_1")
        weight_acc = pipe.run_delta(2.0).top1
        # at the same small delta, weight compression is ~free while
        # activation compression costs real accuracy
        assert base - weight_acc < 0.03
        assert base - act_acc > 0.05

    def test_deep_only_compression_hurts_less(self, trained):
        model, split = trained
        deep = {"relu_2", "max_pooling2d_2", "flatten", "relu_3", "relu_4"}
        all_acc = evaluate_with_compressed_activations(
            model, split.x_test, split.y_test, delta_pct=1.0
        )
        deep_acc = evaluate_with_compressed_activations(
            model, split.x_test, split.y_test, delta_pct=1.0, layers=deep
        )
        assert deep_acc >= all_acc

    def test_monotone_in_delta_statistically(self, trained):
        model, split = trained
        accs = [
            evaluate_with_compressed_activations(
                model, split.x_test[:200], split.y_test[:200], delta_pct=d
            )
            for d in (0.5, 5.0, 50.0)
        ]
        assert accs[0] >= accs[-1]
