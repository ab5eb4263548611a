"""nn kernel table: each layer kind timed alone on the shapes sweep-deep builds.

The networks are the ones sweep-deep trains -- each of its deep
classifiers at each input width it fits them on (all features, and every
PCA/AE dimension), and each of its autoencoders. They do not depend on
the workload being traced; only traced sweep-deep runs time them, and
other workloads report 0 for every kernel metric.
One forward pass at the given batch size captures every layer's input.
Each layer of a timed kind then runs forward (train mode) and backward
on that input ``reps`` times; the median per call is summed over all
layers of the kind and divided by the batch size. Adam is timed per
network on that network's parameters and reported per parameter.
"""

from __future__ import annotations

import time

import numpy as np

from flowbench.classifiers import ClassifierSpec
from flowbench.extract import autoencoder_specs
from flowbench.nn.network import build_network
from flowbench.nn.optim import Adam
from flowbench.synth import SynthSpec
from spans import NN_KINDS
from workloads import WORKLOADS

BATCHES = (128, 2048)
KERNEL_METRICS = [
    f"nn.{kind}.{phase}.us_per_row.b{b}"
    for kind in NN_KINDS for phase in ("forward", "backward") for b in BATCHES
] + ["nn.adam.us_per_param"]


def _networks():
    deep = WORKLOADS["sweep-deep"]
    spec = SynthSpec(**deep.spec)
    # every synth column but identifiers, label and attack type is a feature
    n_features = spec.n_informative + spec.n_noise + spec.n_categorical + spec.n_boolean
    dims = sorted(set(deep.sweep["dimensions"]))
    rng = np.random.default_rng(0)
    for width in [n_features, *dims]:
        for kind in deep.sweep["models"]:
            yield build_network(ClassifierSpec(kind).layers(width), width, rng=rng)
    for k in dims:
        yield build_network(autoencoder_specs(n_features, k)[0], n_features, rng=rng)


def _median_call(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def kernel_table(reps: int = 5) -> dict[str, float]:
    """``nn.<kind>.{forward,backward}.us_per_row.b<batch>`` and ``nn.adam.us_per_param``."""
    out = dict.fromkeys(KERNEL_METRICS, 0.0)
    nets = list(_networks())
    rng = np.random.default_rng(1)
    for batch in BATCHES:
        for net in nets:
            x = rng.random((batch, net.input_dim))
            for layer in net.layers:
                y = layer.forward(x, train=True, rng=rng)
                kind = type(layer).__name__.lower()
                if kind in NN_KINDS:
                    grad = rng.standard_normal(y.shape)
                    fwd = _median_call(lambda: layer.forward(x, train=True, rng=rng), reps)
                    bwd = _median_call(lambda: layer.backward(grad), reps)
                    out[f"nn.{kind}.forward.us_per_row.b{batch}"] += 1e6 * fwd / batch
                    out[f"nn.{kind}.backward.us_per_row.b{batch}"] += 1e6 * bwd / batch
                x = y
    adam_s = 0.0
    n_params = 0
    for net in nets:
        params = net.params()
        adam = Adam(params)
        grads = [rng.standard_normal(p.shape) * 1e-3 for p in params]
        adam_s += _median_call(lambda: adam.step(grads), reps * 4)
        n_params += sum(p.size for p in params)
    out["nn.adam.us_per_param"] = 1e6 * adam_s / n_params if n_params else 0.0
    return out
