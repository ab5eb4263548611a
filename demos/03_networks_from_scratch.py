"""Inside the numerical core: layer stacks, gradient checking, training.

Builds the three deep architectures, verifies one of them against central
finite differences, trains it on separable blobs, and round-trips the
fitted parameters through a checkpoint file.
"""

import tempfile
from pathlib import Path

import numpy as np

from flowbench import TrainConfig, load_model, save_model
from flowbench.classifiers import cnn_layers, conv_output_lengths, dff_layers, rnn_layers
from flowbench.nn import bce_with_grad, build_network, parameter_count, train
from flowbench.ingest import FeatureMatrix

rng = np.random.default_rng(0)

print("=== the three architectures at 20 input features ===")
for name, layers in (("dff", dff_layers(20)), ("cnn", cnn_layers(20)),
                     ("rnn", rnn_layers(20))):
    net = build_network(layers, 20)
    stack = " -> ".join(s.kind for s in layers)
    print(f"{name}: {stack}")
    print(f"     {parameter_count(net)} parameters")
print("cnn sequence lengths through conv/pool stages:", conv_output_lengths(20))
print("cnn below 10 features collapses to:",
      " -> ".join(s.kind for s in cnn_layers(5)))

print("\n=== gradient check: analytic vs central finite differences ===")
# networks train in float32; the check runs the same layers in float64,
# where a 1e-6 finite-difference step is far above the rounding error
net = build_network(dff_layers(6), 6, rng=np.random.default_rng(1), dtype=np.float64)
x = rng.random((8, 6))
y = rng.integers(0, 2, 8).astype(float)[:, None]

out = net.forward(x)
_, dout = bce_with_grad(out, y)
net.backward(dout)
analytic = [g.copy() for g in net.grads()]

h = 1e-6
worst = 0.0
for p, ga in zip(net.params(), analytic):
    it = np.nditer(p, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = p[idx]
        p[idx] = orig + h
        up, _ = bce_with_grad(net.forward(x), y)
        p[idx] = orig - h
        down, _ = bce_with_grad(net.forward(x), y)
        p[idx] = orig
        fd = (up - down) / (2 * h)
        worst = max(worst, abs(fd - ga[idx]) / max(1e-5, abs(fd), abs(ga[idx])))
print(f"max relative error over all {parameter_count(net)} parameters: {worst:.2e}")

print("\n=== training on separable blobs ===")
n = 400
labels = np.arange(n) % 2
values = rng.normal(size=(n, 4)) * 0.5
values[labels == 1, :2] += 2.0
lo, hi = values.min(axis=0), values.max(axis=0)
data = FeatureMatrix(values=(values - lo) / (hi - lo),
                     feature_names=["a", "b", "c", "d"], labels=labels)

cfg = TrainConfig(epochs=30, batch_size=32, learning_rate=0.01, seed=2)
net, history = train(dff_layers(4), data, cfg)
acc = float(((net.predict_proba(data.values) >= 0.5).astype(int) == labels).mean())
print(f"loss {history.epoch_losses[0]:.4f} -> {history.epoch_losses[-1]:.4f} "
      f"over {len(history.epoch_losses)} epochs ({history.steps} steps)")
print(f"training accuracy: {acc:.3f}")

print("\n=== checkpoint round trip ===")
with tempfile.TemporaryDirectory(prefix="flowbench_demo_") as work:
    path = Path(work) / "dff.npz"
    save_model(net, path)
    clone = load_model(path)
same = all(a.tobytes() == b.tobytes() for a, b in zip(net.params(), clone.params()))
print(f"saved to {path.name}; parameters bit-identical after reload: {same} "
      f"({clone.dtype})")
