"""The six benchmark classifiers behind one fit/score interface."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ingest import FeatureMatrix, model_input
from ..nn.layers import LayerSpec
from ..nn.network import Network, TrainConfig, train
from ..preprocess import class_weights
from .bayes import GnbModel, gnb_fit, gnb_score
from .logistic import LrModel, lr_fit, lr_score
from .nets import cnn_layers, conv_output_lengths, dff_layers, rnn_layers
from .tree import TreeModel, best_split, dt_fit, dt_score, gini


def _fit_net(spec, trainset: FeatureMatrix, cfg: TrainConfig | None) -> Network:
    """Train the network of a deep kind's layer stack."""
    weights = class_weights(trainset.labels).per_sample(trainset.labels)
    net, _ = train(spec.layers(trainset.n_features), trainset, cfg or TrainConfig(), weights)
    return net


# each deep kind's layer stack, from the input width
_LAYER_STACKS = {"dff": dff_layers, "cnn": cnn_layers, "rnn": rnn_layers}
# each kind's (fit(spec, trainset, cfg), score(model, x))
_MODELS = {
    **dict.fromkeys(_LAYER_STACKS, (_fit_net, Network.predict_proba)),
    "dt": (lambda spec, trainset, cfg: dt_fit(trainset), dt_score),
    "lr": (lambda spec, trainset, cfg: lr_fit(trainset), lr_score),
    "nb": (lambda spec, trainset, cfg: gnb_fit(trainset), gnb_score),
}
ALL_KINDS = tuple(_MODELS)
DEEP_KINDS = tuple(_LAYER_STACKS)
SHALLOW_KINDS = tuple(k for k in ALL_KINDS if k not in _LAYER_STACKS)


@dataclass
class ClassifierSpec:
    """One model kind; its hyperparameters are the benchmark's fixed table.

    Deep kinds derive their layer stack from the input width at fit time.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown classifier kind {self.kind!r}; one of {ALL_KINDS}")

    def layers(self, input_dim: int) -> list[LayerSpec]:
        if self.kind not in _LAYER_STACKS:
            raise ValueError(f"{self.kind} has no layer stack")
        return _LAYER_STACKS[self.kind](input_dim)


@dataclass
class FittedClassifier:
    kind: str
    n_features: int
    model: object  # Network | TreeModel | LrModel | GnbModel

    def predict_proba(self, m) -> np.ndarray:
        _, score = _MODELS[self.kind]
        return score(self.model, model_input(m, self.n_features))


def fit_classifier(
    spec: ClassifierSpec, trainset: FeatureMatrix, cfg: TrainConfig | None = None
) -> FittedClassifier:
    """Fit one model; deep kinds weight each row by its class's inverse frequency."""
    fit, _ = _MODELS[spec.kind]
    return FittedClassifier(spec.kind, trainset.n_features, fit(spec, trainset, cfg))


def fit_predict(
    spec: ClassifierSpec,
    trainset: FeatureMatrix,
    testset: FeatureMatrix,
    cfg: TrainConfig | None = None,
) -> np.ndarray:
    """Fit on the training portion, return probabilities on the test portion."""
    if trainset.n_features != testset.n_features:
        raise ValueError("train and test widths disagree")
    fitted = fit_classifier(spec, trainset, cfg)
    return fitted.predict_proba(testset)


__all__ = [
    "ALL_KINDS", "ClassifierSpec", "DEEP_KINDS", "FittedClassifier", "GnbModel",
    "LrModel", "SHALLOW_KINDS", "TreeModel", "best_split", "cnn_layers",
    "conv_output_lengths", "dff_layers", "dt_fit", "dt_score", "fit_classifier",
    "fit_predict", "gini", "gnb_fit", "gnb_score", "lr_fit", "lr_score", "rnn_layers",
]
