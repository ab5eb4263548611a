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

DEEP_KINDS = ("dff", "cnn", "rnn")
SHALLOW_KINDS = ("dt", "lr", "nb")
ALL_KINDS = DEEP_KINDS + SHALLOW_KINDS


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
        if self.kind == "dff":
            return dff_layers(input_dim)
        if self.kind == "cnn":
            return cnn_layers(input_dim)
        if self.kind == "rnn":
            return rnn_layers(input_dim)
        raise ValueError(f"{self.kind} has no layer stack")


@dataclass
class FittedClassifier:
    kind: str
    n_features: int
    model: object  # Network | TreeModel | LrModel | GnbModel

    def predict_proba(self, m) -> np.ndarray:
        x = model_input(m, self.n_features)
        if self.kind in DEEP_KINDS:
            return self.model.predict_proba(x)
        if self.kind == "dt":
            return dt_score(self.model, x)
        if self.kind == "lr":
            return lr_score(self.model, x)
        return gnb_score(self.model, x)


def fit_classifier(
    spec: ClassifierSpec, trainset: FeatureMatrix, cfg: TrainConfig | None = None
) -> FittedClassifier:
    """Fit one model; deep kinds weight each row by its class's inverse frequency."""
    if spec.kind in DEEP_KINDS:
        weights = class_weights(trainset.labels).per_sample(trainset.labels)
        net, _ = train(spec.layers(trainset.n_features), trainset, cfg or TrainConfig(), weights)
        model: object = net
    elif spec.kind == "dt":
        model = dt_fit(trainset)
    elif spec.kind == "lr":
        model = lr_fit(trainset)
    else:
        model = gnb_fit(trainset)
    return FittedClassifier(kind=spec.kind, n_features=trainset.n_features, model=model)


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
