"""Gaussian naive Bayes with log-domain scoring."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ingest import FeatureMatrix, model_input

VAR_SMOOTHING = 1e-9


@dataclass
class GnbModel:
    priors: np.ndarray     # (2,), sums to 1
    means: np.ndarray      # (2, d)
    variances: np.ndarray  # (2, d), all > 0 after smoothing
    smoothing: float


def gnb_fit(train: FeatureMatrix) -> GnbModel:
    """Per-class feature means/variances plus empirical priors.

    The smoothing added to every variance is VAR_SMOOTHING times the
    largest per-feature variance of the whole training set, so degenerate
    (constant) features never produce a zero variance.
    """
    x = train.values
    y = train.labels
    if (y == 1).all() or (y == 0).all():
        raise ValueError("naive Bayes needs both classes present")
    smoothing = VAR_SMOOTHING * float(x.var(axis=0).max())
    if smoothing == 0.0:
        smoothing = VAR_SMOOTHING
    means = np.empty((2, x.shape[1]))
    variances = np.empty((2, x.shape[1]))
    priors = np.empty(2)
    for cls in (0, 1):
        rows = x[y == cls]
        means[cls] = rows.mean(axis=0)
        variances[cls] = rows.var(axis=0) + smoothing
        priors[cls] = rows.shape[0] / x.shape[0]
    return GnbModel(priors=priors, means=means, variances=variances, smoothing=smoothing)


def gnb_score(model: GnbModel, m) -> np.ndarray:
    """P(class 1 | x) via log-likelihood accumulation then normalization."""
    x = model_input(m, model.means.shape[1])
    joint = np.empty((x.shape[0], 2))
    for cls in (0, 1):
        var = model.variances[cls]
        diff = x - model.means[cls]
        ll = -0.5 * (np.log(2.0 * np.pi * var) + diff * diff / var).sum(axis=1)
        joint[:, cls] = np.log(model.priors[cls]) + ll
    top = joint.max(axis=1, keepdims=True)
    norm = top[:, 0] + np.log(np.exp(joint - top).sum(axis=1))
    return np.exp(joint[:, 1] - norm)
