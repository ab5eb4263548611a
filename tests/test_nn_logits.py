"""Training on logits: ``bce_with_logits``, the head's pre-activation path and the folded conv bias."""

import numpy as np
import pytest

from flowbench.classifiers.nets import cnn_layers, dff_layers, rnn_layers
from flowbench.extract import autoencoder_specs
from flowbench.nn import (
    LayerSpec, TrainConfig, bce_loss, bce_with_logits, build_network, fit_network, sigmoid,
)
from flowbench.nn.layers import Conv1D
from flowbench.nn.network import seed_streams
from flowbench.persist import load_model, save_model

from helpers import blobs
from test_nn_gradcheck import CONV, DENSE, FD_STEP, LSTM_NET, TOLERANCE, max_relative_error


def loss_inputs(shape, weighted, seed=0, binary=True):
    """(logits within +-15, targets, weights or None) of one batch shape."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(-15.0, 15.0, shape)
    y = rng.integers(0, 2, shape).astype(np.float64) if binary else rng.random(shape)
    w = rng.uniform(0.5, 2.0, shape[0]) if weighted else None
    return z, y, w


SHAPES = [(40,), (40, 1), (30, 4)]


class TestBceWithLogits:
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "continuous"])
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_matches_the_probability_loss(self, shape, binary, weighted):
        # within |z| <= 15 no probability reaches bce_loss's clamp
        z, y, w = loss_inputs(shape, weighted, binary=binary)
        loss, _ = bce_with_logits(z, y, w)
        assert abs(loss - bce_loss(sigmoid(z), y, w)) <= 1e-10

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_gradient_matches_central_differences(self, shape, weighted):
        z, y, w = loss_inputs(shape, weighted, seed=1, binary=False)
        z /= 5.0  # keep the sigmoid's curvature in range of the step
        _, grad = bce_with_logits(z, y, w)
        assert grad.shape == z.shape
        numeric = np.empty_like(z)
        for idx in np.ndindex(z.shape):
            up, down = z.copy(), z.copy()
            up[idx] += FD_STEP
            down[idx] -= FD_STEP
            numeric[idx] = (bce_with_logits(up, y, w)[0]
                            - bce_with_logits(down, y, w)[0]) / (2.0 * FD_STEP)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-10)

    def test_saturated_logits_keep_their_gradient(self):
        z = np.array([-800.0, -40.0, 40.0, 800.0])[:, None]
        y = np.array([1.0, 1.0, 0.0, 0.0])[:, None]
        loss, grad = bce_with_logits(z, y)
        assert loss == pytest.approx((800.0 + 40.0 + 40.0 + 800.0) / 4.0)
        np.testing.assert_allclose(grad[:, 0], [-0.25, -0.25, 0.25, 0.25], rtol=1e-15)

    def test_shapes_and_weights_checked(self):
        with pytest.raises(ValueError, match=r"shape mismatch: logits \(3,\) vs targets \(4,\)"):
            bce_with_logits(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError, match="sample_weight must have one entry per row"):
            bce_with_logits(np.zeros((3, 2)), np.zeros((3, 2)), np.ones(6))


def logit_loss(net, x, targets, weights, dropout_seed):
    """The training step's loss and flat gradient on logits, masks drawn from dropout_seed."""
    z = net.forward(x, train=True, rng=np.random.default_rng(dropout_seed), logits=True)
    loss, dz = bce_with_logits(z, targets, weights)
    net.backward(dz)
    return loss


TRAINING_STACKS = {
    "dense": (DENSE, 5), "conv-pool": (CONV, 11), "cnn-full": (cnn_layers(11), 11),
    "cnn-small": (cnn_layers(5), 5), "lstm": (LSTM_NET, 6),
    "ae": (autoencoder_specs(6, 2)[0], 6),
}


@pytest.mark.parametrize("name", sorted(TRAINING_STACKS))
def test_training_step_gradient_matches_central_differences(name):
    """Logits, then backward from the head's pre-activation, in float64."""
    specs, width = TRAINING_STACKS[name]
    rng = np.random.default_rng(width)
    net = build_network(specs, width, rng=np.random.default_rng(width + 1), dtype=np.float64)
    x = rng.random((5, width))
    targets = x if name == "ae" else rng.integers(0, 2, (5, 1)).astype(np.float64)
    weights = rng.uniform(0.5, 2.0, 5)
    logit_loss(net, x, targets, weights, dropout_seed=7)
    analytic = net.flat_grad.copy()
    numeric = np.empty_like(analytic)
    for i in range(net.flat.size):
        orig = net.flat[i]
        net.flat[i] = orig + FD_STEP
        up = logit_loss(net, x, targets, weights, dropout_seed=7)
        net.flat[i] = orig - FD_STEP
        down = logit_loss(net, x, targets, weights, dropout_seed=7)
        net.flat[i] = orig
        numeric[i] = (up - down) / (2.0 * FD_STEP)
    assert max_relative_error([analytic], [numeric]) < TOLERANCE


class TestHead:
    def test_saturated_head_still_trains(self):
        """A float32 sigmoid of z >= ~17.3 is exactly 1.0; its logit still has a gradient."""
        data = blobs(n0=40, n1=40, d=6, seed=3, scale01=True)
        class0 = data.values[data.labels == 0]
        net = build_network(dff_layers(6), 6, rng=np.random.default_rng(0))
        head = net.layers[-1]
        head.b[...] = 25.0
        assert (net.predict_proba(class0) == 1.0).all()
        before = net.flat.copy()
        history = fit_network(net, class0, np.zeros(len(class0)),
                              TrainConfig(epochs=1, batch_size=16, learning_rate=0.01))
        assert history.epoch_losses[0] > 20.0  # the exact loss, not the clamp's 16.12
        assert head.b[0] < 25.0
        first = net.layers[0].w  # the gradient reaches the bottom layer
        assert (first != before[:first.size].reshape(first.shape)).any()

    @pytest.mark.parametrize("specs", [
        [LayerSpec("dense", units=1, activation="linear")],
        [LayerSpec("dense", units=1, activation="relu")],
        [LayerSpec("dense", units=1, activation="sigmoid"), LayerSpec("dropout", rate=0.1)],
        [LayerSpec("lstm", units=1)],
    ], ids=["linear", "relu", "dropout-last", "lstm"])
    def test_fit_needs_a_sigmoid_dense_head(self, specs):
        net = build_network(specs, 3, rng=np.random.default_rng(0))
        before = net.flat.copy()
        x = np.random.default_rng(1).random((8, 3))
        with pytest.raises(ValueError, match="ends in a sigmoid dense layer"):
            fit_network(net, x, np.tile([0.0, 1.0], 4), TrainConfig(epochs=1))
        assert net.flat.tobytes() == before.tobytes()

    def test_logits_are_the_pre_activation_of_the_probabilities(self):
        net = build_network(dff_layers(4), 4, rng=np.random.default_rng(2), dtype=np.float64)
        x = np.random.default_rng(3).random((9, 4))
        z = net.forward(x, logits=True)
        assert net.forward(x).tobytes() == sigmoid(z).tobytes()
        h = x
        for layer in net.layers[:-1]:
            h = layer.forward(h)
        # the head called as a layer applies its sigmoid, in train mode too
        assert net.layers[-1].forward(h, train=True).tobytes() == sigmoid(z).tobytes()


class TestConvBiasFold:
    @pytest.mark.parametrize("train", [False, True], ids=["inference", "train"])
    def test_standalone_layer_matches_the_layer_in_a_network(self, train):
        t, f = 8, 4
        specs = [LayerSpec("conv1d", units=2, kernel_size=2, activation="relu"),
                 LayerSpec("conv1d", units=f, kernel_size=3, activation="relu"),
                 LayerSpec("flatten"), LayerSpec("dense", units=1, activation="sigmoid")]
        net = build_network(specs, t, rng=np.random.default_rng(5), dtype=np.float64)
        inside = net.layers[2]
        rng = np.random.default_rng(5)  # the same draws: the first conv's, then this one's
        Conv1D(1, 2, 2, rng=rng)
        alone = Conv1D(2, f, 3, activation="relu", rng=rng)
        assert alone.w.tobytes() == inside.w.tobytes()
        bias = np.random.default_rng(6).normal(size=f)
        for layer in (alone, inside):
            layer.b[...] = bias
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, t - 1, 2))
        grad = rng.normal(size=(6, t - 3, f))
        results = []
        for layer in (alone, inside):
            out = layer.forward(x, train=train).copy()
            dx = layer.backward(grad).copy()
            results.append([out, dx, layer.dw.copy(), layer.db.copy()])
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()
        assert np.shares_memory(inside.w, net.flat) and np.shares_memory(inside.db, net.flat_grad)


CHECKPOINT_STACKS = {
    "dff": (dff_layers(7), 7), "cnn-full": (cnn_layers(11), 11),
    "cnn-small": (cnn_layers(5), 5), "rnn": (rnn_layers(6), 6),
    "ae": (autoencoder_specs(9, 3)[0], 9),
}


@pytest.mark.parametrize("name", sorted(CHECKPOINT_STACKS))
def test_trained_checkpoint_round_trips_bit_exactly(name, tmp_path):
    specs, width = CHECKPOINT_STACKS[name]
    data = blobs(n0=30, n1=20, d=width, seed=4, scale01=True)
    targets = data.values if name == "ae" else data.labels
    cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=0.01, seed=2)
    net = build_network(specs, width, rng=seed_streams(cfg.seed)[0])
    fit_network(net, data.values, targets, cfg)
    save_model(net, tmp_path / "net.npz")
    loaded = load_model(tmp_path / "net.npz")
    assert loaded.dtype == net.dtype == np.float32
    assert loaded.flat.tobytes() == net.flat.tobytes()
    assert loaded.predict_proba(data.values).tobytes() == net.predict_proba(data.values).tobytes()
    logits = [n.forward(data.values, logits=True) for n in (net, loaded)]
    assert logits[0].tobytes() == logits[1].tobytes()
