import math
import re

import numpy as np
import pytest

from flowbench.classifiers.nets import cnn_layers, dff_layers, rnn_layers
from flowbench.errors import TrainingDiverged
from flowbench.extract import AeModel, ae_encode, ae_fit, autoencoder_specs
from flowbench.nn import (
    Adam, LayerSpec, Network, TrainConfig, bce_with_grad, bce_with_logits, build_network,
    fit_network, parameter_count, train,
)
from flowbench.nn.layers import AvgPool1D, Conv1D, Layer
from flowbench.nn.network import seed_streams
from flowbench.persist import load_model, save_model

from helpers import blobs
from nn_reference import reference_fit
from test_nn_gradcheck import CONV, DENSE, LSTM_NET

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

    @pytest.mark.parametrize("field, value", [
        ("epochs", 2.5), ("epochs", True), ("epochs", "3"), ("batch_size", 4.5),
        ("batch_size", None), ("seed", 1.0), ("seed", False),
    ])
    def test_non_integral_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [True, False, "0.01", None, [0.01], 1j])
    def test_non_real_learning_rate_rejected(self, value):
        message = f"learning_rate must be a real number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainConfig(learning_rate=value)

    def test_real_learning_rates_become_floats(self):
        for value in (np.float32(0.25), 1, np.int64(2)):
            cfg = TrainConfig(learning_rate=value)
            assert type(cfg.learning_rate) is float and cfg.learning_rate == value

    def test_numpy_integers_become_ints(self):
        cfg = TrainConfig(epochs=np.int64(2), batch_size=np.int32(8), seed=np.uint8(3))
        assert (cfg.epochs, cfg.batch_size, cfg.seed) == (2, 8, 3)
        assert {type(v) for v in (cfg.epochs, cfg.batch_size, cfg.seed)} == {int}

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

    @pytest.mark.parametrize("weights, message", [
        ([-1.0, np.nan], r"sample_weight\[0\] = -1.0 is not finite and non-negative"),
        ([1.0, np.nan], r"sample_weight\[1\] = nan is not finite and non-negative"),
        ([1.0, 1.0, 1.0], r"sample_weight has shape \(3,\), expected \(2,\)"),
    ], ids=["negative", "nan", "too-long"])
    def test_bad_sample_weight_rejected_before_the_first_step(self, weights, message):
        net = build_network(SMALL_DFF, 2, rng=np.random.default_rng(0))
        before = net.flat.copy()
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=message):
            fit_network(net, x, np.array([0.0, 1.0]), TrainConfig(epochs=1, batch_size=2),
                        sample_weight=np.array(weights))
        assert net.flat.tobytes() == before.tobytes()

    @pytest.mark.parametrize("n_targets", [8, 12])
    def test_target_row_count_checked_before_the_first_step(self, n_targets):
        net = build_network(SMALL_DFF, 2, rng=np.random.default_rng(0))
        before = net.flat.copy()
        x = np.random.default_rng(1).random((10, 2))
        targets = np.tile([0.0, 1.0], n_targets // 2)
        with pytest.raises(ValueError, match=f"^targets has {n_targets} rows, x has 10$"):
            fit_network(net, x, targets, TrainConfig(epochs=1, batch_size=4))
        assert net.flat.tobytes() == before.tobytes()


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
            z = net.forward(x[sel], train=True, rng=r_dropout, logits=True)
            sw = None if sample_weight is None else sample_weight[sel]
            _, dz = bce_with_logits(z, targets[sel], sw)
            net.backward(dz)
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


REFERENCE_STACKS = {
    "dff": (dff_layers(7), 7),
    "cnn-full": (cnn_layers(11), 11),  # conv 3, pool 2, conv 2, pool 2, conv 1; pools drop a step
    "cnn-full-even": (cnn_layers(12), 12),  # every pool window full
    "cnn-small": (cnn_layers(5), 5),  # conv 1 on the raw input, pool 2
    "rnn": (rnn_layers(6), 6),
    "ae": (autoencoder_specs(9, 3)[0], 9),
}


class TestMatchesReference:
    """Training against the pre-change kernels and full backward pass of tests/nn_reference.py."""

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("name", sorted(REFERENCE_STACKS))
    def test_parameters_and_losses_byte_identical(self, name, weighted):
        specs, width = REFERENCE_STACKS[name]
        data = blobs(n0=30, n1=20, d=width, separation=1.0, seed=9, scale01=True)
        x = data.values
        targets = x if name == "ae" else data.labels.astype(np.float64)
        weights = np.where(data.labels == 1, 1.5, 0.625) if weighted else None
        cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=0.01, seed=4)
        net = build_network(specs, width, rng=seed_streams(cfg.seed)[0], dtype=np.float64)
        history = fit_network(net, x, targets, cfg, weights)
        want, losses = reference_fit(specs, x, targets, cfg, weights)
        assert net.flat.tobytes() == want.flat.tobytes()
        assert history.epoch_losses == losses


GRADIENT_STACKS = {
    "dense": (DENSE, 5), "conv-pool": (CONV, 11), "cnn-full": (cnn_layers(11), 11),
    "cnn-small": (cnn_layers(5), 5), "lstm": (LSTM_NET, 6),
}


class TestTrainingBackward:
    """``Network.backward`` skips only the first parameter layer's input gradient."""

    @pytest.mark.parametrize("name", sorted(GRADIENT_STACKS))
    def test_parameter_gradients_bit_identical_to_full_backward(self, name):
        specs, width = GRADIENT_STACKS[name]
        rng = np.random.default_rng(width)
        net = build_network(specs, width, rng=np.random.default_rng(width + 1),
                            dtype=np.float64)
        x = rng.random((6, width))
        targets = rng.integers(0, 2, (6, 1)).astype(np.float64)
        _, dout = bce_with_grad(net.forward(x), targets, rng.uniform(0.5, 2.0, 6))
        net.backward(dout)
        skipped = net.flat_grad.copy()
        net.flat_grad[...] = np.nan
        grad = dout
        for layer in reversed(net.layers):  # every layer's input gradient
            grad = layer.backward(grad)
        assert grad.shape == x.shape
        assert net.flat_grad.tobytes() == skipped.tobytes()


@pytest.fixture
def work_arrays(monkeypatch):
    """Every work array the layers hand out while the test runs, kept alive."""
    handed = []
    work_array = Layer._work_array

    def recording(self, *args):
        handed.append(work_array(self, *args))
        return handed[-1]

    monkeypatch.setattr(Layer, "_work_array", recording)
    return handed


def held_arrays(net):
    """Every array a layer references, through its lists, tuples and dicts."""
    todo = [vars(layer) for layer in net.layers]
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            yield item
        elif isinstance(item, dict):
            todo.extend(item.values())
        elif isinstance(item, (list, tuple)):
            todo.extend(item)


def train_step(net, x, targets, seed):
    """One train-mode step through every layer: (outputs, input gradients), bottom first."""
    rng = np.random.default_rng(seed)
    outs = []
    for layer in net.layers:
        x = layer.forward(x, train=True, rng=rng)
        outs.append(x)
    _, grad = bce_with_grad(x, targets)
    grads = []
    for layer in reversed(net.layers):
        grad = layer.backward(grad)
        grads.append(grad)
    return outs, grads[::-1]


class TestWorkArrays:
    """Conv1D and AvgPool1D keep their train-mode arrays from step to step of a fit."""

    def test_reused_across_batches_and_bit_identical_to_a_fresh_network(self):
        width = 14
        rng = np.random.default_rng(5)
        net = build_network(cnn_layers(width), width, rng=np.random.default_rng(6))
        kept = [i for i, layer in enumerate(net.layers) if isinstance(layer, (Conv1D, AvgPool1D))]
        assert len(kept) == 5
        first = None
        for step, rows in enumerate((128, 16, 128)):
            x = rng.random((rows, width))
            targets = rng.integers(0, 2, (rows, 1)).astype(np.float64)
            fresh = build_network(cnn_layers(width), width, rng=np.random.default_rng(6))
            outs, grads = train_step(net, x, targets, seed=step)
            want_outs, want_grads = train_step(fresh, x, targets, seed=step)
            for got, want in zip(outs + grads, want_outs + want_grads):
                assert got.tobytes() == want.tobytes()
            assert net.flat_grad.tobytes() == fresh.flat_grad.tobytes()
            if first is None:
                first = outs, grads
            for i in kept:
                assert np.shares_memory(outs[i], first[0][i])
                assert np.shares_memory(grads[i], first[1][i])

    @pytest.mark.parametrize("diverge", [False, True], ids=["returns", "raises"])
    def test_released_when_the_fit_ends(self, work_arrays, diverge):
        net = build_network(cnn_layers(14), 14, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).random((40, 14))
        targets = np.tile([0.0, 1.0], 20)
        cfg = TrainConfig(epochs=2, batch_size=16)
        if diverge:
            x[33, 4] = np.nan
            with pytest.raises(TrainingDiverged):
                fit_network(net, x, targets, cfg)
        else:
            fit_network(net, x, targets, cfg)
        assert work_arrays
        assert not any(
            np.shares_memory(held, work) for held in held_arrays(net) for work in work_arrays
        )

    def test_inference_results_alias_nothing(self, work_arrays):
        data = blobs(n0=20, n1=20, d=14, seed=8, scale01=True)
        net, _ = train(cnn_layers(14), data, TrainConfig(epochs=2, batch_size=16, seed=3))
        last_conv = max(i for i, layer in enumerate(net.layers) if isinstance(layer, Conv1D))
        encoder = AeModel(network=net, n_encoder_layers=last_conv + 1, bottleneck=20,
                          final_loss=0.0)
        rng = np.random.default_rng(2)
        inputs = rng.random((2, 40, 14))
        for infer in (net.predict_proba, lambda v: ae_encode(v, encoder)):
            one = infer(inputs[0])
            kept = one.copy()
            two = infer(inputs[1])
            train_step(net, inputs[0], np.ones((40, 1)), seed=0)  # refills the work arrays
            assert not np.shares_memory(one, two)
            assert one.tobytes() == kept.tobytes()
            assert work_arrays
            assert not any(np.shares_memory(r, w) for r in (one, two) for w in work_arrays)


FLOAT32_STACKS = ("dff", "cnn-full", "cnn-small", "rnn", "ae")
# float32 carries about 7 significant digits; one batch's gradient through
# these stacks differed from float64 by at most 5.4e-7 of its largest entry
GRADIENT_RTOL = 1e-5


def blob_fit_inputs(name, seed=9):
    """(specs, x, targets, weights) of one REFERENCE_STACKS stack on scaled blobs."""
    specs, width = REFERENCE_STACKS[name]
    data = blobs(n0=30, n1=20, d=width, separation=1.0, seed=seed, scale01=True)
    targets = data.values if name == "ae" else data.labels.astype(np.float64)
    return specs, data.values, targets, np.where(data.labels == 1, 1.5, 0.625)


class TestFloat32:
    """Networks train in float32 by default; only the loss is computed in float64."""

    @pytest.mark.parametrize("name", FLOAT32_STACKS)
    def test_no_float64_array_during_a_fit(self, name, monkeypatch):
        specs, x, targets, weights = blob_fit_inputs(name)
        net = build_network(specs, x.shape[1], rng=np.random.default_rng(0))
        assert net.flat.dtype == net.flat_grad.dtype == np.float32
        results = []  # every layer's forward output and input gradient
        for layer in net.layers:
            for method in ("forward", "backward"):
                def recorded(*args, _call=getattr(layer, method), **kwargs):
                    out = _call(*args, **kwargs)
                    if out is not None:
                        results.append(out.dtype)
                    return out
                setattr(layer, method, recorded)
        # at each step: the gradient, Adam's moments and every array a layer
        # keeps, its work arrays included
        held = []
        step = Adam.step

        def checked(adam, grads):
            step(adam, grads)
            held.extend(a.dtype for a in (*grads, *adam.params, *adam.m, *adam.v,
                                          *held_arrays(net)))

        monkeypatch.setattr(Adam, "step", checked)
        history = fit_network(net, x, targets, TrainConfig(epochs=2, batch_size=16, seed=4),
                              weights)
        assert history.steps == 8
        assert set(results) == set(held) == {np.dtype(np.float32)}
        assert net.predict_proba(x).dtype == np.float64

    @pytest.mark.parametrize("name", FLOAT32_STACKS)
    def test_batch_gradient_matches_float64(self, name):
        specs, x, targets, weights = blob_fit_inputs(name)
        grads = []
        for dtype in (np.float32, np.float64):  # the same draw, rounded or not
            net = build_network(specs, x.shape[1], rng=np.random.default_rng(1), dtype=dtype)
            out = net.forward(x, train=True, rng=np.random.default_rng(2))  # the same masks
            _, dout = bce_with_grad(out, targets if name == "ae" else targets[:, None], weights)
            net.backward(dout)
            grads.append(net.flat_grad.astype(np.float64))
        got, want = grads
        assert np.abs(got - want).max() <= GRADIENT_RTOL * np.abs(want).max()

    @pytest.mark.parametrize("name", FLOAT32_STACKS)
    def test_two_fits_byte_identical(self, name):
        specs, x, targets, weights = blob_fit_inputs(name)
        cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=0.01, seed=5)
        runs = []
        for _ in range(2):
            net = build_network(specs, x.shape[1], rng=seed_streams(cfg.seed)[0])
            history = fit_network(net, x, targets, cfg, weights)
            runs.append((net.flat.tobytes(), history.epoch_losses))
        assert runs[0] == runs[1]
        assert np.frombuffer(runs[0][0], np.float32).size == net.flat.size
