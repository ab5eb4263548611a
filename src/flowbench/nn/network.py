"""Network assembly and the seeded mini-batch training loop."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import TrainingDiverged, integer, real
from ..ingest import row_weights
from .layers import AvgPool1D, Conv1D, Dense, Dropout, LSTM, Layer, Reshape
# training calls bce_with_logits; bench/spans.py patches this module's bce_with_grad
from .loss import bce_with_grad, bce_with_logits
from .optim import Adam


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 256
    learning_rate: float = 0.001
    seed: int = 0

    def __post_init__(self):
        self.epochs = integer("epochs", self.epochs, minimum=1)
        self.batch_size = integer("batch_size", self.batch_size, minimum=1)
        self.seed = integer("seed", self.seed)
        self.learning_rate = real("learning_rate", self.learning_rate)
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

    Every parameter lives in the one array ``flat`` and every gradient in
    ``flat_grad``; the layers' tensors are views into them, in ``params()``
    order, so one optimizer update covers the whole network. The dtype of
    ``flat`` is the network's precision: ``forward`` and ``backward`` cast
    what they are given to it, and the layers compute in it.
    """

    def __init__(self, layers, specs, input_dim, output_dim, dtype=np.float32):
        self.layers = list(layers)
        self.specs = list(specs)
        self.input_dim = input_dim
        self.output_dim = output_dim
        sizes = [sum(getattr(layer, p).size for p, _ in layer.PARAMS) for layer in self.layers]
        self.flat = np.empty(sum(sizes), dtype)
        self.flat_grad = np.zeros(sum(sizes), dtype)
        # the lowest layer with parameters: training needs no gradient below it
        self._first_param = next(
            (i for i, layer in enumerate(self.layers) if layer.PARAMS), len(self.layers)
        )
        offset = 0
        for layer, size in zip(self.layers, sizes):
            layer.bind(self.flat[offset:offset + size], self.flat_grad[offset:offset + size])
            offset += size

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    def forward(self, x, train=False, rng=None, logits=False):
        """The network's output for the batch x.

        With ``logits=True`` the head, a sigmoid ``Dense``, returns its
        pre-activation z instead, and the next ``backward`` takes d(loss)/dz.
        """
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(
                f"expected batch of shape (n, {self.input_dim}), got {x.shape}"
            )
        for layer in self.layers[:-1] if logits else self.layers:
            x = layer.forward(x, train=train, rng=rng)
        if logits:
            x = self.layers[-1].forward(x, train=train, rng=rng, logits=True)
        return x

    def backward(self, grad):
        """Fill ``flat_grad`` from d(loss)/d(output of the last ``forward``).

        The pass ends at the lowest layer with parameters, called with
        ``input_grad=False``: nothing reads the gradient of the input batch.
        A float64 loss gradient is rounded to the network's dtype first.
        """
        grad = np.asarray(grad, dtype=self.dtype)
        for layer in reversed(self.layers[self._first_param + 1:]):
            grad = layer.backward(grad)
        if self._first_param < len(self.layers):
            self.layers[self._first_param].backward(grad, input_grad=False)

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
        """The outputs of inference on x, as float64."""
        out = self.forward(x, train=False).astype(np.float64, copy=False)
        return out[:, 0] if out.shape[1] == 1 else out


def build_network(specs, input_dim, rng=None, dtype=np.float32) -> Network:
    """Instantiate layers from specs, inserting a Reshape where the row layout changes.

    A row is (features,) or (timesteps, channels). A conv1d reached from a
    flat row sees the features as a length-d 1-channel sequence; an lstm
    sees them as a single timestep of d features. A flatten of a flat row
    is the identity and adds no layer.

    The network trains and predicts in ``dtype``. Its initial weights are
    drawn in float64 and rounded to it, so a float64 network starts from
    the same draw as a float32 one.
    """
    rng = rng or np.random.default_rng(0)
    layers: list[Layer] = []
    shape = (input_dim,)
    for spec in specs:
        if len(shape) == 1 and spec.kind in ("conv1d", "lstm"):
            shape = (shape[0], 1) if spec.kind == "conv1d" else (1, shape[0])
            layers.append(Reshape(shape))
        elif len(shape) == 2 and spec.kind == "flatten":
            shape = (shape[0] * shape[1],)
            layers.append(Reshape(shape))
        if spec.kind == "dense":
            if len(shape) != 1:
                raise ValueError("dense layer needs a flat input; add a flatten first")
            layers.append(Dense(shape[0], spec.units, spec.activation, rng=rng))
            shape = (spec.units,)
        elif spec.kind == "conv1d":
            t, c = shape
            if t < spec.kernel_size:
                raise ValueError(f"kernel {spec.kernel_size} exceeds sequence length {t}")
            layers.append(Conv1D(c, spec.units, spec.kernel_size, spec.activation, rng=rng))
            shape = (t - spec.kernel_size + 1, spec.units)
        elif spec.kind == "avgpool1d":
            if len(shape) != 2:
                raise ValueError("avgpool1d needs a sequence input")
            t, c = shape
            if t < spec.pool_size:
                raise ValueError(f"pool {spec.pool_size} exceeds sequence length {t}")
            layers.append(AvgPool1D(spec.pool_size))
            shape = (t // spec.pool_size, c)
        elif spec.kind == "lstm":
            layers.append(LSTM(shape[1], spec.units, rng=rng))
            shape = (spec.units,)
        elif spec.kind == "dropout":
            layers.append(Dropout(spec.rate))
    if len(shape) != 1:
        raise ValueError("network must end in a flat output; add a flatten/dense")
    return Network(layers, specs, input_dim, shape[0], dtype)


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
    ``targets`` and ``sample_weight`` (one finite, non-negative loss
    weight) have one row per row of x, checked once before the first step.
    The network must end in a sigmoid ``Dense``: each step stops at its
    pre-activation z and ``bce_with_logits`` applies the sigmoid, so a
    saturated output still gets a gradient. x is cast to the network's
    dtype once; the loss and its gradient are computed in float64. The
    layers keep their work arrays from step to step and drop them when the
    fit returns or raises.
    """
    head = net.layers[-1] if net.layers else None
    if not (isinstance(head, Dense) and head.activation == "sigmoid"):
        raise ValueError("fit_network needs a network that ends in a sigmoid dense layer")
    x = np.asarray(x, dtype=net.dtype)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim == 1:
        targets = targets[:, None]
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty matrix")
    if targets.shape[0] != n:
        raise ValueError(f"targets has {targets.shape[0]} rows, x has {n}")
    if sample_weight is not None:
        sample_weight = row_weights(sample_weight, n)
    _, rng_shuffle, rng_dropout = seed_streams(cfg.seed)
    adam = Adam([net.flat], learning_rate=cfg.learning_rate)
    history = TrainHistory()
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    order = np.arange(n)
    try:
        for epoch in range(cfg.epochs):
            rng_shuffle.shuffle(order)
            epoch_loss = 0.0
            for step in range(steps_per_epoch):
                sel = order[step * cfg.batch_size:(step + 1) * cfg.batch_size]
                z = net.forward(x[sel], train=True, rng=rng_dropout, logits=True)
                sw = None if sample_weight is None else sample_weight[sel]
                loss, dz = bce_with_logits(z, targets[sel], sw)
                if not np.isfinite(loss):
                    raise TrainingDiverged(epoch, step)
                net.backward(dz)
                adam.step([net.flat_grad])
                epoch_loss += loss * len(sel)
                history.steps += 1
            history.epoch_losses.append(epoch_loss / n)
    finally:  # the layers' work arrays live for one fit
        for layer in net.layers:
            layer.release()
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
    if not 0 < labels.sum() < labels.size:  # labels hold only 0 and 1
        raise ValueError("training data must contain both classes")
    net = build_network(specs, data.n_features, rng=seed_streams(cfg.seed)[0])
    if net.output_dim != 1:
        raise ValueError("classifier network must end in a single output unit")
    history = fit_network(net, data.values, labels.astype(np.float64), cfg, sample_weight)
    return net, history
