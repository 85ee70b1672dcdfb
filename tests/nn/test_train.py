"""Loss, optimizer and training-loop tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import SGD, SoftmaxCrossEntropy, TrainConfig, evaluate, topk_accuracy, train
from repro.nn.layers import Dense, Parameter
from repro.nn.sequential import Sequential


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_loss(self):
        loss = SoftmaxCrossEntropy().forward(np.zeros((4, 10)), np.zeros(4, dtype=int))
        assert loss == pytest.approx(np.log(10), rel=1e-6)

    def test_gradient_matches_numeric(self, rng):
        logits = rng.normal(size=(3, 5))
        labels = np.array([0, 3, 2])
        fn = SoftmaxCrossEntropy()
        fn.forward(logits, labels)
        g = fn.backward()
        eps = 1e-6
        for i in range(3):
            for j in range(5):
                lp, lm = logits.copy(), logits.copy()
                lp[i, j] += eps
                lm[i, j] -= eps
                num = (
                    SoftmaxCrossEntropy().forward(lp, labels)
                    - SoftmaxCrossEntropy().forward(lm, labels)
                ) / (2 * eps)
                assert g[i, j] == pytest.approx(num, abs=1e-5)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropy().forward(np.zeros((4, 3, 2)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            SoftmaxCrossEntropy().forward(np.zeros((4, 3)), np.zeros(5, dtype=int))

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            SoftmaxCrossEntropy().backward()


class TestTopK:
    def test_top1(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert topk_accuracy(logits, np.array([1, 0]), 1) == 1.0
        assert topk_accuracy(logits, np.array([0, 1]), 1) == 0.0

    def test_top5_with_few_classes(self):
        logits = np.array([[0.1, 0.9]])
        assert topk_accuracy(logits, np.array([0]), 5) == 1.0

    def test_topk_partial(self):
        logits = np.array([[5.0, 4.0, 3.0, 2.0, 1.0, 0.0]])
        assert topk_accuracy(logits, np.array([4]), 5) == 1.0
        assert topk_accuracy(logits, np.array([5]), 5) == 0.0

    def test_empty(self):
        assert topk_accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int), 1) == 0.0


class TestSGD:
    def test_plain_step(self):
        p = Parameter(np.array([1.0]))
        p.add_grad(np.array([0.5], dtype=np.float32))
        SGD([p], lr=0.1, momentum=0.0).step()
        assert p.data[0] == pytest.approx(0.95)

    def test_momentum_accumulates(self):
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=1.0, momentum=0.5)
        for _ in range(2):
            p.grad = np.array([1.0], dtype=np.float32)
            opt.step()
        # step1: v=1 -> p=-1; step2: v=1.5 -> p=-2.5
        assert p.data[0] == pytest.approx(-2.5)

    def test_weight_decay(self):
        p = Parameter(np.array([2.0]))
        p.grad = np.array([0.0], dtype=np.float32)
        SGD([p], lr=0.1, momentum=0.0, weight_decay=0.5).step()
        assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_skips_gradless_params(self):
        p = Parameter(np.array([1.0]))
        SGD([p], lr=0.1).step()
        assert p.data[0] == 1.0

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.0)


class TestTrainLoop:
    def test_learns_linearly_separable_task(self, rng):
        m = Sequential([("d", Dense(4, 2, rng=rng))])
        x = rng.normal(size=(400, 4)).astype(np.float32)
        y = (x @ np.array([1.0, -1.0, 0.5, 0.0]) > 0).astype(int)
        losses = train(m, x, y, TrainConfig(epochs=10, batch_size=32, lr=0.2))
        assert losses[-1] < losses[0] * 0.5
        assert evaluate(m, x, y).top1 > 0.9

    def test_losses_length(self, rng):
        m = Sequential([("d", Dense(3, 2, rng=rng))])
        x = rng.normal(size=(16, 3)).astype(np.float32)
        y = rng.integers(0, 2, size=16)
        assert len(train(m, x, y, TrainConfig(epochs=3, batch_size=8))) == 3
