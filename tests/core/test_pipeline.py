"""Fig. 8 pipeline and sensitivity analysis on a small trained model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model_store import compress_model
from repro.core.pipeline import CompressionPipeline
from repro.core.sensitivity import layer_sensitivity, normalized_sensitivity
from repro.datasets import train_test
from repro.nn import TrainConfig, train
from repro.nn.train import topk_accuracy
from repro.nn.zoo import lenet5
from repro.serve import ServedModel


@pytest.fixture(scope="module")
def trained_lenet():
    split = train_test("digits", 2500, 500, seed=7)
    model = lenet5.proxy(np.random.default_rng(7))
    train(model, split.x_train, split.y_train, TrainConfig(epochs=6, lr=0.05))
    return model, split


class TestCompressionPipeline:
    def test_baseline_accuracy_reasonable(self, trained_lenet):
        model, split = trained_lenet
        p = CompressionPipeline(model, split.x_test, split.y_test, "dense_1")
        assert p.baseline.top1 > 0.85

    def test_delta0_accuracy_near_baseline(self, trained_lenet):
        model, split = trained_lenet
        p = CompressionPipeline(model, split.x_test, split.y_test, "dense_1")
        rec = p.run_delta(0.0)
        assert abs(rec.top1 - p.baseline.top1) < 0.05

    def test_model_restored_after_each_delta(self, trained_lenet):
        model, split = trained_lenet
        before = model.get_weights("dense_1").copy()
        p = CompressionPipeline(model, split.x_test, split.y_test, "dense_1")
        p.run_delta(20.0)
        np.testing.assert_array_equal(model.get_weights("dense_1"), before)

    def test_sweep_cr_monotonic(self, trained_lenet):
        model, split = trained_lenet
        p = CompressionPipeline(model, split.x_test, split.y_test, "dense_1")
        recs = p.sweep([0.0, 10.0, 20.0])
        crs = [r.cr for r in recs]
        assert crs == sorted(crs)

    def test_accuracy_eventually_degrades(self, trained_lenet):
        """Very large delta wipes out the layer's information."""
        model, split = trained_lenet
        p = CompressionPipeline(model, split.x_test, split.y_test, "dense_1")
        rec = p.run_delta(100.0)
        assert rec.top1 < p.baseline.top1

    def test_quantized_pipeline_runs(self, trained_lenet):
        model, split = trained_lenet
        p = CompressionPipeline(
            model, split.x_test, split.y_test, "dense_1", quantize_first=True
        )
        rec = p.run_delta(5.0)
        assert rec.cr > 0
        assert 0.0 <= rec.top1 <= 1.0

    @pytest.mark.parametrize("delta", [0.0, 10.0, 20.0])
    def test_reported_accuracy_is_served_accuracy(self, trained_lenet, delta):
        """The top-1 ``run_delta`` reports is the top-1 of the replies a
        ``ServedModel`` over the same archive gives in batches of 4, and
        every reply's prediction is the materialized forward's.  Logits
        are not compared bitwise: the materialized GEMM and the
        tile-streamed forward round differently by design."""
        model, split = trained_lenet
        record = CompressionPipeline(
            model, split.x_test, split.y_test, "dense_1"
        ).run_delta(delta)
        archive = compress_model(model, {"dense_1": delta})
        served = ServedModel(lenet5.proxy(np.random.default_rng(0)), archive)
        xs = list(split.x_test)
        replies = np.stack(
            [row for i in range(0, len(xs), 4) for row in served.forward_batch(xs[i : i + 4])]
        )
        assert topk_accuracy(replies, split.y_test, 1) == record.top1
        applied = lenet5.proxy(np.random.default_rng(1))
        archive.apply(applied)
        np.testing.assert_array_equal(
            replies.argmax(axis=1), applied.predict(split.x_test).argmax(axis=1)
        )


class TestSensitivity:
    def test_depth_ordering_shape(self, trained_lenet):
        """Fig. 9: the input conv is more sensitive than the selected
        deep FC layer (dense_1), justifying the selection policy."""
        model, split = trained_lenet
        res = layer_sensitivity(
            model,
            split.x_test[:400],
            split.y_test[:400],
            noise_fraction=1.0,
            trials=4,
            top_k=1,
        )
        by_name = {r.layer: r.accuracy_drop for r in res}
        assert res[0].layer.startswith("conv2d")
        assert by_name["conv2d_1"] > by_name["dense_1"]
        assert by_name["conv2d_2"] > by_name["dense_2"]

    def test_invalid_mode(self, trained_lenet):
        model, split = trained_lenet
        with pytest.raises(ValueError, match="mode"):
            layer_sensitivity(
                model, split.x_test[:10], split.y_test[:10], mode="nope"
            )

    def test_normalization(self, trained_lenet):
        model, split = trained_lenet
        res = layer_sensitivity(
            model, split.x_test[:100], split.y_test[:100], trials=1
        )
        norm = normalized_sensitivity(res)
        values = [v for _, v in norm]
        assert max(values) == pytest.approx(1.0) or all(v == 0.0 for v in values)
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_weights_restored(self, trained_lenet):
        model, split = trained_lenet
        before = {
            n: layer.params()[0].data.copy()
            for n, layer in model.parametric_layers()
        }
        layer_sensitivity(model, split.x_test[:50], split.y_test[:50], trials=1)
        for n, layer in model.parametric_layers():
            np.testing.assert_array_equal(layer.params()[0].data, before[n])

    def test_trials_validation(self, trained_lenet):
        model, split = trained_lenet
        with pytest.raises(ValueError):
            layer_sensitivity(model, split.x_test, split.y_test, trials=0)
