from .layers import (
    AvgPool1D, Conv1D, Dense, Dropout, LSTM, LayerSpec, Reshape, sigmoid,
)
from .loss import bce_loss, bce_with_grad, bce_with_logits, CLAMP_EPS
from .optim import Adam
from .network import (
    Network, TrainConfig, TrainHistory, build_network, fit_network,
    parameter_count, train,
)

__all__ = [
    "Adam", "AvgPool1D", "CLAMP_EPS", "Conv1D", "Dense", "Dropout",
    "LSTM", "LayerSpec", "Network", "Reshape", "TrainConfig", "TrainHistory",
    "bce_loss", "bce_with_grad", "bce_with_logits", "build_network", "fit_network",
    "parameter_count", "sigmoid", "train",
]
