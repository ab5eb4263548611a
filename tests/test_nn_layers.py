import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowbench.nn import (
    Adam, AvgPool1D, CLAMP_EPS, Conv1D, Dropout, LSTM, LayerSpec, Reshape, bce_loss,
    bce_with_grad, build_network, sigmoid,
)
from flowbench.preprocess import ClassWeights

import nn_reference


class TestForward:
    def test_zero_weights_give_half(self):
        net = build_network(
            [LayerSpec("dense", units=1, activation="sigmoid")], input_dim=3
        )
        for p in net.params():
            p[...] = 0.0
        x = np.random.default_rng(0).normal(size=(6, 3))
        np.testing.assert_allclose(net.predict_proba(x), 0.5)

    def test_infer_mode_deterministic(self):
        specs = [
            LayerSpec("dense", units=8, activation="relu"),
            LayerSpec("dropout", rate=0.5),
            LayerSpec("dense", units=1, activation="sigmoid"),
        ]
        net = build_network(specs, 4, rng=np.random.default_rng(1))
        x = np.random.default_rng(2).random((10, 4))
        np.testing.assert_array_equal(net.predict_proba(x), net.predict_proba(x))

    def test_hand_computed_single_layer(self):
        net = build_network(
            [LayerSpec("dense", units=1, activation="sigmoid")], input_dim=2, dtype=np.float64
        )
        w, b = net.params()
        w[...] = np.array([[0.3], [-0.7]])
        b[...] = 0.1
        x = np.array([[1.0, 2.0], [0.5, -0.5]])
        expected = 1.0 / (1.0 + np.exp(-(x @ np.array([0.3, -0.7]) + 0.1)))
        np.testing.assert_allclose(net.predict_proba(x), expected, rtol=1e-12)

    def test_output_strictly_inside_unit_interval(self):
        specs = [
            LayerSpec("dense", units=5, activation="relu"),
            LayerSpec("dense", units=1, activation="sigmoid"),
        ]
        net = build_network(specs, 3, rng=np.random.default_rng(3))
        p = net.predict_proba(np.random.default_rng(4).normal(size=(50, 3)) * 10)
        assert ((p > 0) & (p < 1)).all()

    def test_shape_mismatch_rejected(self):
        net = build_network([LayerSpec("dense", units=1, activation="sigmoid")], 4)
        with pytest.raises(ValueError):
            net.forward(np.zeros((2, 3)))


class TestBceLoss:
    def test_near_zero_when_correct(self):
        loss = bce_loss([1.0, 0.0], [1, 0])
        assert 0 <= loss < 1e-6

    def test_half_everywhere_is_ln2(self):
        loss = bce_loss([0.5] * 8, [1, 0] * 4)
        np.testing.assert_allclose(loss, np.log(2.0), rtol=1e-12)

    def test_class_weight_scaling(self):
        loss = bce_loss([0.5], [1], ClassWeights(w0=1.0, w1=2.0).per_sample([1]))
        np.testing.assert_allclose(loss, 2.0 * np.log(2.0), rtol=1e-12)

    def test_non_negative_and_clamped(self):
        loss = bce_loss([0.0, 1.0], [1, 0])  # would be inf without clamping
        assert np.isfinite(loss)
        assert loss == pytest.approx(-np.log(CLAMP_EPS), rel=1e-3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bce_with_grad(np.zeros(3), np.zeros(2))


class TestDropout:
    def test_train_zeroes_expected_fraction(self):
        rate = 0.3
        layer = Dropout(rate)
        x = np.ones((200, 500))
        out = layer.forward(x, train=True, rng=np.random.default_rng(0))
        zeroed = (out == 0).mean()
        sigma = np.sqrt(rate * (1 - rate) / x.size)
        assert abs(zeroed - rate) < 3 * sigma

    def test_inverted_scaling_preserves_expectation(self):
        layer = Dropout(0.4)
        x = np.full((300, 300), 2.0)
        out = layer.forward(x, train=True, rng=np.random.default_rng(1))
        assert abs(out.mean() - 2.0) < 0.02

    def test_infer_is_identity(self):
        layer = Dropout(0.9)
        x = np.random.default_rng(2).random((5, 5))
        assert layer.forward(x, train=False) is x


class TestReshape:
    @pytest.mark.parametrize("row_in, row_out", [((6,), (6, 1)), ((6,), (1, 6)), ((3, 2), (6,))])
    def test_rows_reshaped_and_gradient_restored(self, row_in, row_out):
        x = np.random.default_rng(3).random((4, *row_in))
        layer = Reshape(row_out)
        out = layer.forward(x)
        assert out.shape == (4, *row_out)
        assert out.tobytes() == x.tobytes()
        grad = layer.backward(out)
        assert grad.shape == x.shape and grad.tobytes() == x.tobytes()


class TestAvgPool:
    def test_constant_sequence_unchanged(self):
        layer = AvgPool1D(2)
        x = np.full((3, 8, 2), 1.7)
        np.testing.assert_allclose(layer.forward(x), 1.7)

    def test_remainder_dropped(self):
        layer = AvgPool1D(2)
        x = np.arange(10, dtype=float).reshape(1, 5, 2)
        out = layer.forward(x)
        assert out.shape == (1, 2, 2)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            AvgPool1D(4).forward(np.zeros((1, 3, 1)))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), p=st.integers(1, 4), windows=st.integers(1, 3),
           n=st.integers(1, 3), c=st.integers(1, 3))
    def test_bit_identical_to_mean_and_repeat(self, data, p, windows, n, c):
        """Strided-view pooling against ``mean``/``np.repeat``, remainder and -0.0 included."""
        t = p * windows + data.draw(st.integers(0, p - 1), label="remainder")
        values = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, -0.0])
        x = data.draw(arrays(np.float64, (n, t, c), elements=values), label="x")
        grad = data.draw(arrays(np.float64, (n, windows, c), elements=values), label="grad")
        layer, reference = AvgPool1D(p), nn_reference.AvgPool1D(p)
        assert layer.forward(x).tobytes() == reference.forward(x).tobytes()
        assert layer.backward(grad).tobytes() == reference.backward(grad).tobytes()


class TestAdam:
    def test_zero_gradient_is_identity(self):
        w = np.array([1.0, -2.0, 3.0])
        opt = Adam([w])
        before = w.copy()
        for _ in range(5):
            opt.step([np.zeros_like(w)])
        np.testing.assert_array_equal(w, before)

    def test_quadratic_descent(self):
        w = np.array([1.0])
        opt = Adam([w], learning_rate=0.05)
        best = float("inf")
        trail = []
        for _ in range(200):
            loss = float(w[0] ** 2)
            best = min(best, loss)
            trail.append(best)
            opt.step([2.0 * w])
        assert trail[-1] < 1e-3
        assert all(a >= b for a, b in zip(trail, trail[1:]))

    def test_first_step_magnitude_near_lr(self):
        for g in (1e-6, 1.0, 1e6):
            w = np.array([0.0])
            opt = Adam([w], learning_rate=0.001)
            opt.step([np.array([g])])
            assert abs(abs(w[0]) - 0.001) < 1e-4

    def test_timestep_increments(self):
        w = np.zeros(2)
        opt = Adam([w])
        opt.step([np.ones(2)])
        opt.step([np.ones(2)])
        assert opt.t == 2


class TestLayerSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            LayerSpec("maxpool")

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            LayerSpec("dropout", rate=1.0)

    def test_conv_needs_kernel(self):
        with pytest.raises(ValueError):
            LayerSpec("conv1d", units=4)


def sigmoid_reference(z):
    """The masked-index form: each branch only exponentiates a non-positive value."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def conv_reference(layer, x, grad):
    """Relu Conv1D forward and backward as an einsum over sliding windows."""
    k = layer.kernel_size
    windows = np.lib.stride_tricks.sliding_window_view(x, k, axis=1)
    out = np.maximum(np.einsum("ntck,kcf->ntf", windows, layer.w) + layer.b, 0.0)
    dz = grad * (out > 0)
    dw = np.einsum("ntck,ntf->kcf", windows, dz)
    db = dz.sum(axis=(0, 1))
    dx = np.zeros(x.shape)
    for dk in range(k):
        dx[:, dk:dk + dz.shape[1], :] += dz @ layer.w[dk].T
    return out, dw, db, dx


def lstm_reference(layer, x, grad):
    """LSTM forward and backward with the recurrent product at every step."""
    u = layer.units
    n, t, _ = x.shape
    h = np.zeros((n, u))
    c = np.zeros((n, u))
    steps = []
    for step in range(t):
        xt = x[:, step, :]
        z = xt @ layer.wx + h @ layer.wh + layer.b
        i, f = sigmoid_reference(z[:, :u]), sigmoid_reference(z[:, u:2 * u])
        g, o = np.tanh(z[:, 2 * u:3 * u]), sigmoid_reference(z[:, 3 * u:])
        c_prev = c
        c = f * c_prev + i * g
        tc = np.tanh(c)
        steps.append((xt, h, i, f, g, o, c_prev, tc))
        h = o * tc
    dx = np.zeros(x.shape)
    dwx, dwh, db = (np.zeros_like(p) for p in (layer.wx, layer.wh, layer.b))
    dh = grad
    dc = np.zeros_like(grad)
    for step in range(t - 1, -1, -1):
        xt, h_prev, i, f, g, o, c_prev, tc = steps[step]
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        dz = np.concatenate(
            [
                dc * g * i * (1.0 - i),
                dc * c_prev * f * (1.0 - f),
                dc * i * (1.0 - g * g),
                do * o * (1.0 - o),
            ],
            axis=1,
        )
        dwx += xt.T @ dz
        dwh += h_prev.T @ dz
        db += dz.sum(axis=0)
        dx[:, step, :] = dz @ layer.wx.T
        dh = dz @ layer.wh.T
        dc = dc * f
    return h, dwx, dwh, db, dx


class TestKernelReferences:
    @pytest.mark.parametrize("k,c,t", [(3, 1, 14), (2, 20, 6), (1, 20, 2), (4, 3, 4)])
    def test_conv1d_matches_sliding_window_einsum(self, k, c, t):
        rng = np.random.default_rng(k * 100 + c * 10 + t)
        layer = Conv1D(c, 5, k, activation="relu", rng=rng)
        layer.b[...] = rng.normal(size=5) * 0.1
        x = rng.normal(size=(7, t, c))
        grad = rng.normal(size=(7, t - k + 1, 5))
        out, dw, db, dx = conv_reference(layer, x, grad)
        close = dict(rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(layer.forward(x), out, **close)
        np.testing.assert_allclose(layer.backward(grad), dx, **close)
        np.testing.assert_allclose(layer.dw, dw, **close)
        np.testing.assert_allclose(layer.db, db, **close)

    def test_sigmoid_bit_identical_to_masked_form(self):
        edges = [0.0, 1e-300, 36.0, 709.0, 745.0, 800.0]
        z = np.array(edges + [-v for v in edges])
        batch = np.random.default_rng(0).normal(size=(64, 9)) * 10
        with np.errstate(over="raise", invalid="raise"):
            for arr in (z, batch):
                assert sigmoid(arr).tobytes() == sigmoid_reference(arr).tobytes()
        assert np.signbit(z[len(edges)])  # -0.0 is really in the set

    @pytest.mark.parametrize("t", [1, 3])
    def test_lstm_bit_identical_to_general_formulas(self, t):
        rng = np.random.default_rng(t)
        layer = LSTM(4, 3, rng=rng)
        layer.b[...] = rng.normal(size=12) * 0.1
        x = rng.normal(size=(6, t, 4))
        grad = rng.normal(size=(6, 3))
        h, dwx, dwh, db, dx = lstm_reference(layer, x, grad)
        assert layer.forward(x).tobytes() == h.tobytes()
        assert layer.backward(grad).tobytes() == dx.tobytes()
        for got, want in ((layer.dwx, dwx), (layer.dwh, dwh), (layer.db, db)):
            assert got.tobytes() == want.tobytes()
        if t == 1:
            assert layer.dwh.tobytes() == np.zeros_like(layer.dwh).tobytes()
