"""Network assembly and the seeded mini-batch training loop."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import TrainingDiverged
from .layers import (
    AvgPool1D, Conv1D, Dense, Dropout, Flatten, LSTM, Layer, SeqFromVec,
)
from .loss import bce_with_grad
from .optim import Adam


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 256
    learning_rate: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be finite and > 0, got {self.learning_rate!r}"
            )


@dataclass
class TrainHistory:
    epoch_losses: list = field(default_factory=list)
    steps: int = 0


class Network:
    """An ordered layer stack mapping a 2-D batch to a 2-D output.

    Every parameter lives in the one float64 array ``flat`` and every
    gradient in ``flat_grad``; the layers' tensors are views into them, in
    ``params()`` order, so one optimizer update covers the whole network.
    """

    def __init__(self, layers, specs, input_dim, output_dim):
        self.layers = list(layers)
        self.specs = list(specs)
        self.input_dim = input_dim
        self.output_dim = output_dim
        slots = [(layer, p, g) for layer in self.layers for p, g in layer.PARAMS]
        total = sum(getattr(layer, p).size for layer, p, _ in slots)
        self.flat = np.empty(total)
        self.flat_grad = np.zeros(total)
        offset = 0
        for layer, p, g in slots:
            tensor = getattr(layer, p)
            end = offset + tensor.size
            self.flat[offset:end] = tensor.ravel()
            setattr(layer, p, self.flat[offset:end].reshape(tensor.shape))
            setattr(layer, g, self.flat_grad[offset:end].reshape(tensor.shape))
            offset = end

    def forward(self, x, train=False, rng=None):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(
                f"expected batch of shape (n, {self.input_dim}), got {x.shape}"
            )
        for layer in self.layers:
            x = layer.forward(x, train=train, rng=rng)
        return x

    def backward(self, grad):
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def grads(self):
        out = []
        for layer in self.layers:
            out.extend(layer.grads())
        return out

    def predict_proba(self, x):
        out = self.forward(x, train=False)
        return out[:, 0] if out.shape[1] == 1 else out


def build_network(specs, input_dim, rng=None) -> Network:
    """Instantiate layers from specs, inserting 2-D/3-D adapters as needed.

    A conv1d reached from a 2-D batch sees the features as a length-d
    1-channel sequence; an lstm sees them as a single timestep of d
    features.
    """
    rng = rng or np.random.default_rng(0)
    layers: list[Layer] = []
    shape = ("vec", input_dim)
    for spec in specs:
        if spec.kind == "dense":
            if shape[0] != "vec":
                raise ValueError("dense layer needs a flat input; add a flatten first")
            layers.append(Dense(shape[1], spec.units, spec.activation, rng=rng))
            shape = ("vec", spec.units)
        elif spec.kind == "conv1d":
            if shape[0] == "vec":
                layers.append(SeqFromVec(as_time=True))
                shape = ("seq", shape[1], 1)
            _, t, c = shape
            if t < spec.kernel_size:
                raise ValueError(f"kernel {spec.kernel_size} exceeds sequence length {t}")
            layers.append(Conv1D(c, spec.units, spec.kernel_size, spec.activation, rng=rng))
            shape = ("seq", t - spec.kernel_size + 1, spec.units)
        elif spec.kind == "avgpool1d":
            if shape[0] != "seq":
                raise ValueError("avgpool1d needs a sequence input")
            _, t, c = shape
            if t < spec.pool_size:
                raise ValueError(f"pool {spec.pool_size} exceeds sequence length {t}")
            layers.append(AvgPool1D(spec.pool_size))
            shape = ("seq", t // spec.pool_size, c)
        elif spec.kind == "lstm":
            if shape[0] == "vec":
                layers.append(SeqFromVec(as_time=False))
                shape = ("seq", 1, shape[1])
            _, _, c = shape
            layers.append(LSTM(c, spec.units, rng=rng))
            shape = ("vec", spec.units)
        elif spec.kind == "dropout":
            layers.append(Dropout(spec.rate))
        elif spec.kind == "flatten":
            if shape[0] == "seq":
                layers.append(Flatten())
                shape = ("vec", shape[1] * shape[2])
            # flattening a flat batch is the identity; skip the layer
        else:  # pragma: no cover - LayerSpec already validates
            raise ValueError(f"unknown layer kind {spec.kind!r}")
    if shape[0] != "vec":
        raise ValueError("network must end in a flat output; add a flatten/dense")
    return Network(layers, specs, input_dim, shape[1])


def parameter_count(net: Network) -> int:
    return net.flat.size


def seed_streams(seed: int) -> tuple[np.random.Generator, ...]:
    """The (init, shuffle, dropout) generators of one training seed."""
    return tuple(np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3))


def fit_network(
    net: Network, x: np.ndarray, targets: np.ndarray, cfg: TrainConfig, sample_weight=None,
) -> TrainHistory:
    """Mini-batch Adam on BCE; aborts on the first non-finite loss.

    Batches are shuffled and dropout masks drawn from cfg.seed's streams.
    """
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim == 1:
        targets = targets[:, None]
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty matrix")
    _, rng_shuffle, rng_dropout = seed_streams(cfg.seed)
    adam = Adam([net.flat], learning_rate=cfg.learning_rate)
    history = TrainHistory()
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    order = np.arange(n)
    for epoch in range(cfg.epochs):
        rng_shuffle.shuffle(order)
        epoch_loss = 0.0
        for step in range(steps_per_epoch):
            sel = order[step * cfg.batch_size:(step + 1) * cfg.batch_size]
            out = net.forward(x[sel], train=True, rng=rng_dropout)
            sw = None if sample_weight is None else sample_weight[sel]
            loss, dout = bce_with_grad(out, targets[sel], sw)
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch, step)
            net.backward(dout)
            adam.step([net.flat_grad])
            epoch_loss += loss * len(sel)
            history.steps += 1
        history.epoch_losses.append(epoch_loss / n)
    return history


def train(specs, data, cfg: TrainConfig, sample_weight=None) -> tuple[Network, TrainHistory]:
    """Train a single-probability classifier network on a FeatureMatrix.

    Weight init, batch shuffling and dropout masks all derive from
    cfg.seed, so identical inputs give bit-identical parameters.
    ``sample_weight`` scales each row's loss.
    """
    labels = np.asarray(data.labels)
    if labels.size == 0:
        raise ValueError("cannot train on an empty matrix")
    if len(np.unique(labels)) < 2:
        raise ValueError("training data must contain both classes")
    net = build_network(specs, data.n_features, rng=seed_streams(cfg.seed)[0])
    if net.output_dim != 1:
        raise ValueError("classifier network must end in a single output unit")
    history = fit_network(net, data.values, labels.astype(np.float64), cfg, sample_weight)
    return net, history
