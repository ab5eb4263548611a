"""Analytic gradients vs central finite differences for every layer kind."""

import numpy as np
import pytest

from flowbench.nn import LayerSpec, bce_with_grad, build_network

FD_STEP = 1e-6
TOLERANCE = 1e-4


def network_gradients(net, x, targets, weights, dropout_seed=None):
    """Analytic parameter gradients of the BCE loss for one batch."""
    rng = None if dropout_seed is None else np.random.default_rng(dropout_seed)
    out = net.forward(x, train=dropout_seed is not None, rng=rng)
    _, dout = bce_with_grad(out, targets, weights)
    net.backward(dout)
    return [g.copy() for g in net.grads()]


def finite_difference(net, x, targets, weights, dropout_seed=None):
    """Central differences over every parameter entry.

    Re-seeding the dropout RNG per forward keeps the masks identical, so
    the loss stays differentiable in the parameters.
    """

    def loss_now():
        rng = None if dropout_seed is None else np.random.default_rng(dropout_seed)
        out = net.forward(x, train=dropout_seed is not None, rng=rng)
        loss, _ = bce_with_grad(out, targets, weights)
        return loss

    grads = []
    for p in net.params():
        g = np.empty_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + FD_STEP
            up = loss_now()
            p[idx] = orig - FD_STEP
            down = loss_now()
            p[idx] = orig
            g[idx] = (up - down) / (2.0 * FD_STEP)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric):
    # the floor keeps FD roundoff (~1e-10 absolute at h=1e-6) from
    # dominating the ratio when the true gradient is itself near zero
    worst = 0.0
    for ga, gf in zip(analytic, numeric):
        denom = np.maximum(1e-5, np.maximum(np.abs(ga), np.abs(gf)))
        worst = max(worst, float((np.abs(ga - gf) / denom).max()))
    return worst


def check(specs, input_dim, seed, dropout_seed=None, n=5):
    rng = np.random.default_rng(seed)
    net = build_network(specs, input_dim, rng=np.random.default_rng(seed + 1000),
                        dtype=np.float64)
    x = rng.random((n, input_dim))
    if net.output_dim == 1:
        targets = rng.integers(0, 2, n).astype(float)[:, None]
    else:
        targets = rng.random((n, net.output_dim))
    weights = rng.uniform(0.5, 2.0, n)
    analytic = network_gradients(net, x, targets, weights, dropout_seed)
    numeric = finite_difference(net, x, targets, weights, dropout_seed)
    return max_relative_error(analytic, numeric)


DENSE = [
    LayerSpec("dense", units=6, activation="relu"),
    LayerSpec("dense", units=4, activation="sigmoid"),
    LayerSpec("dense", units=1, activation="sigmoid"),
]
CONV = [
    LayerSpec("conv1d", units=3, kernel_size=3, activation="relu"),
    LayerSpec("avgpool1d", pool_size=2),
    LayerSpec("conv1d", units=2, kernel_size=2, activation="sigmoid"),
    LayerSpec("flatten"),
    LayerSpec("dense", units=1, activation="sigmoid"),
]
LSTM_NET = [
    LayerSpec("lstm", units=4),
    LayerSpec("dense", units=1, activation="sigmoid"),
]
WITH_DROPOUT = [
    LayerSpec("dense", units=8, activation="relu"),
    LayerSpec("dropout", rate=0.25),
    LayerSpec("dense", units=1, activation="sigmoid"),
]


@pytest.mark.parametrize("seed", range(5))
def test_dense_stack(seed):
    assert check(DENSE, 5, seed) < TOLERANCE


@pytest.mark.parametrize("seed", range(5))
def test_conv_pool_stack(seed):
    assert check(CONV, 11, seed) < TOLERANCE


@pytest.mark.parametrize("seed", range(5))
def test_lstm_single_step(seed):
    assert check(LSTM_NET, 6, seed) < TOLERANCE


@pytest.mark.parametrize("seed", range(3))
def test_dropout_active(seed):
    assert check(WITH_DROPOUT, 5, seed, dropout_seed=seed + 99) < TOLERANCE


@pytest.mark.parametrize("seed", range(3))
def test_lstm_three_timesteps(seed):
    """BPTT over a real sequence, checked at the layer level."""
    from flowbench.nn.layers import LSTM

    rng = np.random.default_rng(seed)
    layer = LSTM(3, 4, rng=np.random.default_rng(seed + 7))
    x = rng.normal(size=(4, 3, 3))
    upstream = rng.normal(size=(4, 4))

    layer.forward(x)
    layer.backward(upstream)
    analytic = [g.copy() for g in layer.grads()]

    def loss_now():
        return float((layer.forward(x) * upstream).sum())

    numeric = []
    for p in layer.params():
        g = np.empty_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + FD_STEP
            up = loss_now()
            p[idx] = orig - FD_STEP
            down = loss_now()
            p[idx] = orig
            g[idx] = (up - down) / (2.0 * FD_STEP)
        numeric.append(g)
    assert max_relative_error(analytic, numeric) < TOLERANCE


def test_zero_input_kills_first_layer_weight_gradient():
    net = build_network(DENSE, 5, rng=np.random.default_rng(0))
    x = np.zeros((4, 5))
    targets = np.array([1.0, 0.0, 1.0, 0.0])[:, None]
    out = net.forward(x)
    _, dout = bce_with_grad(out, targets)
    net.backward(dout)
    first_dw = net.grads()[0]
    np.testing.assert_array_equal(first_dw, 0.0)


def test_doubling_positive_weight_doubles_gradients():
    net = build_network(DENSE, 5, rng=np.random.default_rng(1))
    x = np.random.default_rng(2).random((6, 5))
    targets = np.ones((6, 1))

    def grads_for(weight):
        out = net.forward(x)
        _, dout = bce_with_grad(out, targets, np.full(6, weight))
        net.backward(dout)
        return [g.copy() for g in net.grads()]

    single = grads_for(1.0)
    double = grads_for(2.0)
    for a, b in zip(single, double):
        np.testing.assert_allclose(2.0 * a, b, rtol=1e-12)
