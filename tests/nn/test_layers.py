"""Layer-level gradient checks and behavioural tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import (
    Add,
    BatchNorm2D,
    Concat,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    MaxPool2D,
    ReLU,
    Softmax,
)
from tests.conftest import numerical_gradient, rel_err
from tests.nn.oracles import maxpool_argmax


def _check_input_grad(layer, x, tol=1e-6):
    y0 = layer.forward(x, training=True)
    rng = np.random.default_rng(0)
    tgt = rng.normal(size=y0.shape)

    def loss():
        return float(((layer.forward(x, training=True) - tgt) ** 2).sum())

    y = layer.forward(x, training=True)
    dx = layer.backward(2 * (y - tgt))
    if isinstance(dx, list):
        raise AssertionError("merge layers need the merge helper")
    assert rel_err(dx, numerical_gradient(loss, x)) < tol


def _check_param_grads(layer, x, tol=1e-5):
    y0 = layer.forward(x, training=True)
    rng = np.random.default_rng(1)
    tgt = rng.normal(size=y0.shape)

    def loss():
        return float(((layer.forward(x, training=True) - tgt) ** 2).sum())

    for p in layer.params():
        # parameters are float32: use float64 staging for the numeric diff
        p64 = p.data.astype(np.float64)
        p.data = p64.astype(np.float32)
        p.zero_grad()
        y = layer.forward(x, training=True)
        layer.backward(2 * (y - tgt))
        num = numerical_gradient(loss, p.data, eps=1e-2)
        assert rel_err(p.grad, num) < tol, p.name


class TestConv2D:
    def test_grads(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        _check_input_grad(Conv2D(3, 4, 3, stride=2, padding=1, rng=rng), x)

    def test_param_grads(self, rng):
        x = rng.normal(size=(2, 2, 5, 5))
        _check_param_grads(Conv2D(2, 3, 3, padding=1, rng=rng), x, tol=2e-3)

    def test_same_padding(self, rng):
        conv = Conv2D(1, 1, 3, padding="same", rng=rng)
        y = conv.forward(rng.normal(size=(1, 1, 9, 9)))
        assert y.shape == (1, 1, 9, 9)

    def test_same_padding_even_kernel_rejected(self, rng):
        with pytest.raises(ValueError):
            Conv2D(1, 1, 4, padding="same", rng=rng)

    def test_channel_mismatch(self, rng):
        conv = Conv2D(3, 4, 3, rng=rng, name="c")
        with pytest.raises(ValueError, match="channels"):
            conv.forward(rng.normal(size=(1, 2, 5, 5)))

    def test_macs(self, rng):
        conv = Conv2D(3, 8, 3, padding=1, rng=rng)
        assert conv.macs_per_sample((3, 10, 10)) == 10 * 10 * 8 * 3 * 9

    def test_no_bias(self, rng):
        conv = Conv2D(1, 2, 3, bias=False, rng=rng)
        assert len(conv.params()) == 1


class TestDepthwiseConv2D:
    def test_grads(self, rng):
        x = rng.normal(size=(2, 3, 5, 5))
        _check_input_grad(DepthwiseConv2D(3, 3, padding=1, rng=rng), x)

    def test_param_grads(self, rng):
        x = rng.normal(size=(2, 3, 5, 5))
        _check_param_grads(DepthwiseConv2D(3, 3, padding=1, rng=rng), x, tol=2e-3)

    def test_equivalent_to_grouped_full_conv(self, rng):
        """Each channel convolved independently with its own kernel."""
        dw = DepthwiseConv2D(2, 3, padding=1, bias=False, rng=rng)
        x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        y = dw.forward(x)
        for c in range(2):
            ref = Conv2D(1, 1, 3, padding=1, bias=False, rng=rng)
            ref.weight.data = dw.weight.data[c : c + 1]
            np.testing.assert_allclose(
                y[:, c : c + 1], ref.forward(x[:, c : c + 1]), atol=1e-5
            )

    def test_stride_shape(self, rng):
        dw = DepthwiseConv2D(4, 3, stride=2, padding=1, rng=rng)
        assert dw.forward(rng.normal(size=(1, 4, 8, 8))).shape == (1, 4, 4, 4)


class TestDense:
    def test_grads(self, rng):
        x = rng.normal(size=(4, 7))
        _check_input_grad(Dense(7, 5, rng=rng), x)

    def test_param_grads(self, rng):
        x = rng.normal(size=(3, 6))
        _check_param_grads(Dense(6, 4, rng=rng), x, tol=2e-3)

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            Dense(7, 5, rng=rng, name="d").forward(rng.normal(size=(4, 8)))

    def test_known_result(self):
        d = Dense(2, 2, name="d")
        d.weight.data = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        d.bias.data = np.array([10.0, 20.0], dtype=np.float32)
        y = d.forward(np.array([[1.0, 1.0]], dtype=np.float32))
        np.testing.assert_allclose(y, [[14.0, 26.0]])


class TestPooling:
    def test_maxpool_grads(self, rng):
        # distinct values so the argmax is stable under eps-perturbation
        x = rng.permutation(np.arange(2 * 2 * 6 * 6)).reshape(2, 2, 6, 6).astype(float)
        _check_input_grad(MaxPool2D(2), x, tol=1e-5)

    def test_globalavg_grads(self, rng):
        _check_input_grad(GlobalAvgPool2D(), rng.normal(size=(3, 4, 5, 5)))

    def test_maxpool_value(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        y = MaxPool2D(2).forward(x)
        np.testing.assert_array_equal(y[0, 0], [[5, 7], [13, 15]])

    def test_globalavg_value(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        np.testing.assert_allclose(
            GlobalAvgPool2D().forward(x), x.mean(axis=(2, 3))
        )


def _nan(bits: int, dtype) -> np.ndarray:
    """A NaN with a chosen payload, so the winning NaN is identifiable."""
    itype = np.uint32 if dtype == np.float32 else np.uint64
    return np.array([bits], dtype=itype).view(dtype)[0]


@st.composite
def _pool_cases(draw):
    k, s = draw(st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]))
    n, c = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    h = k + draw(st.integers(0, 8))  # odd and even sizes, ragged edges
    w = k + draw(st.integers(0, 8))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    # few distinct values: most windows hold ties, and +0 next to -0
    alphabet = [-1.0, -0.0, 0.0, 0.5, 1.0]
    if draw(st.booleans()):
        alphabet += [_nan(0x7FC00001, np.float32), _nan(0xFFC00002, np.float32)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # constant windows
        x = np.full((n, c, h, w), alphabet[rng.integers(len(alphabet))], dtype=dtype)
    else:
        x = np.asarray(alphabet, dtype=dtype)[rng.integers(len(alphabet), size=(n, c, h, w))]
    return x, k, s


class TestMaxPoolOracle:
    """Inference max-pool equals unfold + ``argmax`` bit for bit."""

    @given(case=_pool_cases())
    @settings(max_examples=300, deadline=None)
    def test_inference_property(self, case):
        x, k, s = case
        layer = MaxPool2D(k, s)
        got = layer.forward(x)
        want = maxpool_argmax(MaxPool2D(k, s), x)
        assert got.shape == want.shape and got.dtype == x.dtype
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @given(case=_pool_cases())
    @settings(max_examples=50, deadline=None)
    def test_training_property(self, case):
        x, k, s = case
        layer, oracle = MaxPool2D(k, s), MaxPool2D(k, s)
        got = layer.forward(x, training=True)
        want = maxpool_argmax(oracle, x, training=True)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(layer._cache[1], oracle._cache[1])

    def test_first_nan_wins(self):
        first, later = _nan(0x7FC00001, np.float32), _nan(0xFFC00002, np.float32)
        x = np.array([[[[1.0, first], [later, 2.0]]]], dtype=np.float32)
        got = MaxPool2D(2).forward(x)
        assert got.view(np.uint32)[0, 0, 0, 0] == 0x7FC00001

    def test_signed_zero_keeps_earlier_tap(self):
        x = np.array([[[[-0.0, 0.0], [0.0, -0.0]]]], dtype=np.float32)
        assert np.signbit(MaxPool2D(2).forward(x)).all()
        assert not np.signbit(MaxPool2D(2).forward(-x)).any()

    def test_output_is_not_a_view(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        y = MaxPool2D(1).forward(x)
        y[...] = 0.0
        assert (x != 0.0).all()


class TestBatchNorm:
    def test_grads(self, rng):
        _check_input_grad(BatchNorm2D(3), rng.normal(size=(4, 3, 5, 5)), tol=1e-5)

    def test_training_normalizes(self, rng):
        bn = BatchNorm2D(2)
        x = rng.normal(loc=5.0, scale=3.0, size=(16, 2, 8, 8))
        y = bn.forward(x, training=True)
        assert abs(y.mean()) < 1e-6
        assert y.std() == pytest.approx(1.0, abs=1e-2)

    def test_inference_uses_running_stats(self, rng):
        bn = BatchNorm2D(2, momentum=0.0)  # running stats = last batch
        x = rng.normal(loc=5.0, scale=3.0, size=(64, 2, 8, 8))
        bn.forward(x, training=True)
        y = bn.forward(x, training=False)
        assert abs(y.mean()) < 0.05

    def test_channel_mismatch(self, rng):
        with pytest.raises(ValueError):
            BatchNorm2D(3, name="bn").forward(rng.normal(size=(1, 2, 4, 4)))


class TestActivations:
    def test_relu_grads(self, rng):
        _check_input_grad(ReLU(), rng.normal(size=(3, 7)) + 0.05)

    def test_relu_value(self):
        y = ReLU().forward(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(y, [0.0, 0.0, 2.0])

    def test_softmax_rows_sum_to_one(self, rng):
        y = Softmax().forward(rng.normal(size=(5, 10)) * 50)
        np.testing.assert_allclose(y.sum(axis=1), 1.0, rtol=1e-6)
        assert (y >= 0).all()

    def test_softmax_stability(self):
        y = Softmax().forward(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(y, [[0.5, 0.5]])


class TestShapeLayers:
    def test_flatten_roundtrip(self, rng):
        f = Flatten()
        x = rng.normal(size=(2, 3, 4, 5))
        y = f.forward(x, training=True)
        assert y.shape == (2, 60)
        np.testing.assert_array_equal(f.backward(y), x)

    def test_add(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        layer = Add()
        np.testing.assert_allclose(layer.forward([a, b], training=True), a + b)
        g = rng.normal(size=(2, 3))
        gs = layer.backward(g)
        assert len(gs) == 2
        np.testing.assert_array_equal(gs[0], g)

    def test_add_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            Add().forward([rng.normal(size=(2, 3)), rng.normal(size=(2, 4))])

    def test_concat_and_backward_split(self, rng):
        a = rng.normal(size=(2, 3, 4, 4))
        b = rng.normal(size=(2, 5, 4, 4))
        layer = Concat()
        y = layer.forward([a, b], training=True)
        assert y.shape == (2, 8, 4, 4)
        ga, gb = layer.backward(y)
        np.testing.assert_array_equal(ga, a)
        np.testing.assert_array_equal(gb, b)

    def test_concat_spatial_mismatch(self, rng):
        with pytest.raises(ValueError):
            Concat().forward(
                [rng.normal(size=(1, 2, 4, 4)), rng.normal(size=(1, 2, 5, 5))]
            )


class TestDropout:
    def test_identity_at_inference(self, rng):
        x = rng.normal(size=(10, 10))
        assert Dropout(0.5, rng=rng).forward(x, training=False) is x

    def test_scaling_preserves_expectation(self, rng):
        x = np.ones((200, 200))
        y = Dropout(0.3, rng=rng).forward(x, training=True)
        assert y.mean() == pytest.approx(1.0, abs=0.02)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
