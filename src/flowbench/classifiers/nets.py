"""Layer stacks for the three deep models.

Widths, kernel sizes, pooling, dropout and output activations follow the
benchmark's fixed hyperparameter table; only the input width varies.
"""

from __future__ import annotations

from ..nn.layers import LayerSpec

DROPOUT_RATE = 0.2
SMALL_INPUT_LIMIT = 10  # below this the CNN drops its hidden conv stack


def dff_layers(input_dim: int) -> list[LayerSpec]:
    """Three 20-unit relu dense layers, dropout, single sigmoid output."""
    if input_dim < 1:
        raise ValueError("input_dim must be at least 1")
    return [
        *(LayerSpec("dense", units=20, activation="relu") for _ in range(3)),
        LayerSpec("dropout", rate=DROPOUT_RATE),
        LayerSpec("dense", units=1, activation="sigmoid"),
    ]


def cnn_layers(input_dim: int) -> list[LayerSpec]:
    """20-filter conv stack over the feature sequence.

    Full stack (kernel 3 -> pool -> kernel 2 -> pool -> kernel 1) for ten
    or more features; below that the hidden convolutions are removed and
    the input kernel shrinks to 1, with pooling kept only while the
    sequence is long enough.
    """
    if input_dim < 1:
        raise ValueError("input_dim must be at least 1")
    if input_dim >= SMALL_INPUT_LIMIT:
        layers = [
            LayerSpec("conv1d", units=20, kernel_size=3, activation="relu"),
            LayerSpec("avgpool1d", pool_size=2),
            LayerSpec("conv1d", units=20, kernel_size=2, activation="relu"),
            LayerSpec("avgpool1d", pool_size=2),
            LayerSpec("conv1d", units=20, kernel_size=1, activation="relu"),
        ]
    else:
        layers = [LayerSpec("conv1d", units=20, kernel_size=1, activation="relu")]
        if input_dim >= 2:
            layers.append(LayerSpec("avgpool1d", pool_size=2))
    layers += [
        LayerSpec("dropout", rate=DROPOUT_RATE),
        LayerSpec("flatten"),
        LayerSpec("dense", units=1, activation="sigmoid"),
    ]
    return layers


def rnn_layers(input_dim: int) -> list[LayerSpec]:
    """LSTM over one timestep of all features, then a 10-unit relu layer."""
    if input_dim < 1:
        raise ValueError("input_dim must be at least 1")
    return [
        LayerSpec("lstm", units=input_dim),
        LayerSpec("dense", units=10, activation="relu"),
        LayerSpec("dropout", rate=DROPOUT_RATE),
        LayerSpec("dense", units=1, activation="sigmoid"),
    ]


def conv_output_lengths(input_dim: int) -> list[int]:
    """Sequence length after each conv/pool stage (handy for shape checks)."""
    lengths = []
    t = input_dim
    for spec in cnn_layers(input_dim):
        if spec.kind == "conv1d":
            t = t - spec.kernel_size + 1
            lengths.append(t)
        elif spec.kind == "avgpool1d":
            t = t // spec.pool_size
            lengths.append(t)
    return lengths
