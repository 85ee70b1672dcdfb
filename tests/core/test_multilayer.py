"""Multi-layer compression optimizer (the paper's future work)."""

from __future__ import annotations

from collections import Counter
from unittest import mock

import numpy as np
import pytest

from repro.core.codecs import LineFitCodec
from repro.core.multilayer import optimize_multilayer
from repro.datasets import train_test
from repro.nn import TrainConfig, train
from repro.nn.zoo import lenet5
from repro.runtime import ResultCache


@pytest.fixture(scope="module")
def trained():
    split = train_test("digits", 2500, 500, seed=5)
    model = lenet5.proxy(np.random.default_rng(5))
    train(model, split.x_train, split.y_train, TrainConfig(epochs=6, lr=0.05))
    return model, split, lenet5.full()


class TestOptimizer:
    def test_respects_accuracy_budget(self, trained):
        model, split, spec = trained
        plan = optimize_multilayer(
            model, spec, split.x_test, split.y_test, max_accuracy_drop=0.05
        )
        assert plan.accuracy_drop <= 0.05 + 1e-9
        assert plan.baseline_accuracy > 0.85

    def test_at_least_matches_best_feasible_single_layer(self, trained):
        """The extension must never do worse than the best single
        (layer, delta) assignment that fits the same accuracy budget."""
        from repro.core import get_codec
        from repro.core.pipeline import CompressionPipeline

        model, split, spec = trained
        budget = 0.10
        plan = optimize_multilayer(
            model, spec, split.x_test, split.y_test, max_accuracy_drop=budget
        )
        best_single = 0
        for layer in ("dense_1", "dense_2", "dense_3"):
            pipe = CompressionPipeline(
                model, split.x_test, split.y_test, layer_name=layer
            )
            for delta in (5.0, 10.0, 15.0, 20.0):
                record = pipe.run_delta(delta)
                if pipe.baseline.top1 - record.top1 <= budget:
                    blob = get_codec("linefit", delta_pct=delta).encode(
                        spec.materialize(layer)
                    )
                    saving = blob.original_bytes - blob.compressed_bytes
                    best_single = max(best_single, saving)
        assert plan.saving_bytes >= 0.95 * best_single
        assert len(plan.assignments) >= 1

    def test_model_restored(self, trained):
        model, split, spec = trained
        before = {
            n: layer.params()[0].data.copy()
            for n, layer in model.parametric_layers()
        }
        optimize_multilayer(
            model, spec, split.x_test, split.y_test, max_accuracy_drop=0.05
        )
        for n, layer in model.parametric_layers():
            np.testing.assert_array_equal(layer.params()[0].data, before[n])

    def test_zero_budget_allows_only_harmless_deltas(self, trained):
        model, split, spec = trained
        plan = optimize_multilayer(
            model, spec, split.x_test, split.y_test, max_accuracy_drop=0.0
        )
        assert plan.accuracy >= plan.baseline_accuracy

    def test_larger_budget_never_saves_less(self, trained):
        model, split, spec = trained
        small = optimize_multilayer(
            model, spec, split.x_test, split.y_test, max_accuracy_drop=0.02
        )
        large = optimize_multilayer(
            model, spec, split.x_test, split.y_test, max_accuracy_drop=0.15
        )
        assert large.saving_bytes >= small.saving_bytes

    def test_negative_budget_rejected(self, trained):
        model, split, spec = trained
        with pytest.raises(ValueError):
            optimize_multilayer(
                model, spec, split.x_test, split.y_test, max_accuracy_drop=-0.1
            )

    def test_footprint_reduction_fraction(self, trained):
        model, split, spec = trained
        plan = optimize_multilayer(
            model, spec, split.x_test, split.y_test, max_accuracy_drop=0.10
        )
        assert 0.0 <= plan.footprint_reduction < 1.0

    def test_greedy_encodes_each_candidate_once(self, trained, tmp_path):
        """A greedy trial reuses the encodes of the layers it keeps.

        A first run fills the result cache, so the second run's solo
        grid and savings are cache hits and every encode it makes is
        the greedy loop's.  A budget every trial meets accepts each
        candidate, and later trials keep the accepted layers.
        """
        model, split, spec = trained
        cache = ResultCache(tmp_path, enabled=True)

        def run():
            return optimize_multilayer(
                model, spec, split.x_test, split.y_test,
                max_accuracy_drop=1.0, cache=cache,
            )

        first = run()
        encodes: Counter = Counter()
        real = LineFitCodec.encode

        def spy(codec, weights):
            encodes[(np.asarray(weights).tobytes(), codec.delta_pct)] += 1
            return real(codec, weights)

        with mock.patch.object(LineFitCodec, "encode", spy):
            plan = run()
        assert plan == first
        assert len(plan.assignments) >= 2
        assert encodes and max(encodes.values()) == 1, sorted(encodes.values())
