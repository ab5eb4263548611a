import math

import numpy as np
import pytest

from flowbench.classifiers.nets import cnn_layers, dff_layers, rnn_layers
from flowbench.errors import TrainingDiverged
from flowbench.extract import ae_fit, autoencoder_specs
from flowbench.nn import (
    Adam, LayerSpec, Network, TrainConfig, bce_with_grad, build_network, fit_network,
    parameter_count, train,
)
from flowbench.persist import load_model, save_model

from helpers import blobs

SMALL_DFF = [
    LayerSpec("dense", units=8, activation="relu"),
    LayerSpec("dense", units=1, activation="sigmoid"),
]


class TestTrain:
    def test_separable_blobs_reach_high_accuracy(self):
        data = blobs(n0=120, n1=120, d=2, separation=4.0, seed=0, scale01=True)
        cfg = TrainConfig(epochs=50, batch_size=32, learning_rate=0.01, seed=1)
        net, history = train(SMALL_DFF, data, cfg)
        preds = (net.predict_proba(data.values) >= 0.5).astype(int)
        assert (preds == data.labels).mean() >= 0.99
        assert history.epoch_losses[-1] < history.epoch_losses[0]

    def test_epoch_step_accounting(self):
        data = blobs(n0=17, n1=14, d=3, seed=2, scale01=True)
        cfg = TrainConfig(epochs=1, batch_size=8, seed=0)
        _, history = train(SMALL_DFF, data, cfg)
        assert history.steps == math.ceil(31 / 8)

    def test_zero_epochs_forbidden(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_seeded_determinism(self):
        data = blobs(n0=40, n1=40, d=3, seed=3, scale01=True)
        cfg = TrainConfig(epochs=5, batch_size=16, seed=11)
        net_a, _ = train(SMALL_DFF, data, cfg)
        net_b, _ = train(SMALL_DFF, data, cfg)
        for pa, pb in zip(net_a.params(), net_b.params()):
            assert pa.tobytes() == pb.tobytes()

    def test_different_seed_differs(self):
        data = blobs(n0=40, n1=40, d=3, seed=3, scale01=True)
        net_a, _ = train(SMALL_DFF, data, TrainConfig(epochs=2, seed=1))
        net_b, _ = train(SMALL_DFF, data, TrainConfig(epochs=2, seed=2))
        assert any(
            pa.tobytes() != pb.tobytes()
            for pa, pb in zip(net_a.params(), net_b.params())
        )

    def test_single_class_rejected(self):
        data = blobs(n0=30, n1=30, d=2, seed=0)
        single = data.take(np.flatnonzero(data.labels == 0))
        with pytest.raises(ValueError):
            train(SMALL_DFF, single, TrainConfig(epochs=1))

    def test_nan_input_aborts_with_location(self):
        net = build_network(SMALL_DFF, 2, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).random((20, 2))
        x[3, 0] = np.nan
        y = np.tile([0.0, 1.0], 10)[:, None]
        with pytest.raises(TrainingDiverged) as err:
            fit_network(net, x, y, TrainConfig(epochs=2, batch_size=20))
        assert err.value.epoch == 0
        assert err.value.batch == 0


def hand_run(specs, x, targets, cfg, sample_weight=None):
    """The training loop written out on the SeedSequence(seed).spawn(3) streams."""
    r_init, r_shuffle, r_dropout = (
        np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(3)
    )
    net = build_network(specs, x.shape[1], rng=r_init)
    adam = Adam([net.flat], learning_rate=cfg.learning_rate)
    order = np.arange(x.shape[0])
    for _ in range(cfg.epochs):
        r_shuffle.shuffle(order)
        for start in range(0, x.shape[0], cfg.batch_size):
            sel = order[start:start + cfg.batch_size]
            out = net.forward(x[sel], train=True, rng=r_dropout)
            sw = None if sample_weight is None else sample_weight[sel]
            _, dout = bce_with_grad(out, targets[sel], sw)
            net.backward(dout)
            adam.step([net.flat_grad])
    return net


class TestSeedStreams:
    """Init, shuffle and dropout draw from the three children of SeedSequence(seed)."""

    def test_train_matches_hand_run(self):
        data = blobs(n0=30, n1=20, d=3, seed=6, scale01=True)
        specs = [SMALL_DFF[0], LayerSpec("dropout", rate=0.3), SMALL_DFF[1]]
        cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=0.01, seed=21)
        weights = np.where(data.labels == 1, 1.25, 0.75)
        net, _ = train(specs, data, cfg, weights)
        want = hand_run(specs, data.values, data.labels.astype(np.float64)[:, None], cfg, weights)
        assert net.flat.tobytes() == want.flat.tobytes()

    def test_ae_fit_matches_hand_run(self):
        x = blobs(n0=20, n1=20, d=5, seed=7, scale01=True).values
        cfg = TrainConfig(epochs=2, batch_size=16, seed=22)
        model = ae_fit(x, 2, cfg)
        want = hand_run(autoencoder_specs(5, 2)[0], x, x, cfg)
        assert model.network.flat.tobytes() == want.flat.tobytes()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        data = blobs(n0=30, n1=30, d=4, seed=5, scale01=True)
        net, _ = train(SMALL_DFF, data, TrainConfig(epochs=2, seed=3))
        path = tmp_path / "net.npz"
        save_model(net, path)
        loaded = load_model(path)
        assert isinstance(loaded, Network)
        for pa, pb in zip(net.params(), loaded.params()):
            assert pa.tobytes() == pb.tobytes()
        x = data.values[:7]
        np.testing.assert_array_equal(net.predict_proba(x), loaded.predict_proba(x))

    def test_spec_round_trip(self, tmp_path):
        specs = [
            LayerSpec("conv1d", units=3, kernel_size=2, activation="relu"),
            LayerSpec("avgpool1d", pool_size=2),
            LayerSpec("dropout", rate=0.2),
            LayerSpec("flatten"),
            LayerSpec("dense", units=1, activation="sigmoid"),
        ]
        net = build_network(specs, 10, rng=np.random.default_rng(4))
        path = tmp_path / "cnn.npz"
        save_model(net, path)
        loaded = load_model(path)
        assert loaded.specs == specs
        assert parameter_count(loaded) == parameter_count(net)


FLAT_STACKS = {
    "dff": (dff_layers(12), 12),
    "cnn": (cnn_layers(12), 12),
    "rnn": (rnn_layers(6), 6),
    "ae": (autoencoder_specs(12, 3)[0], 12),
}


def assert_flat_views(net):
    assert parameter_count(net) == net.flat.size
    assert np.concatenate([p.ravel() for p in net.params()]).tobytes() == net.flat.tobytes()
    assert all(np.shares_memory(p, net.flat) for p in net.params())
    assert all(np.shares_memory(g, net.flat_grad) for g in net.grads())


class TestFlatBuffer:
    @pytest.mark.parametrize("name", sorted(FLAT_STACKS))
    def test_tensors_are_views_of_the_flat_buffers(self, name, tmp_path):
        specs, width = FLAT_STACKS[name]
        net = build_network(specs, width, rng=np.random.default_rng(0))
        assert_flat_views(net)
        path = tmp_path / "net.npz"
        save_model(net, path)
        loaded = load_model(path)
        assert_flat_views(loaded)
        assert loaded.flat.tobytes() == net.flat.tobytes()

    @pytest.mark.parametrize("name", sorted(FLAT_STACKS))
    def test_flat_adam_matches_per_tensor_adam(self, name):
        """A layer that rebinds a gradient instead of writing it in place fails here."""
        specs, width = FLAT_STACKS[name]
        data = np.random.default_rng(1).random((40, width))
        nets = [build_network(specs, width, rng=np.random.default_rng(2)) for _ in range(2)]
        targets = data if nets[0].output_dim == width else (data[:, :1] > 0.5) * 1.0
        flat, per_tensor = nets
        runs = [
            (flat, Adam([flat.flat], learning_rate=0.01), lambda: [flat.flat_grad]),
            (per_tensor, Adam(per_tensor.params(), learning_rate=0.01), per_tensor.grads),
        ]
        for net, adam, grads in runs:
            rng = np.random.default_rng(3)
            for step in range(20):
                sel = slice(step % 4 * 10, step % 4 * 10 + 10)
                out = net.forward(data[sel], train=True, rng=rng)
                _, dout = bce_with_grad(out, targets[sel])
                net.backward(dout)
                adam.step(grads())
        assert flat.flat.tobytes() == per_tensor.flat.tobytes()
        assert flat.flat.tobytes() != build_network(
            specs, width, rng=np.random.default_rng(2)
        ).flat.tobytes()
