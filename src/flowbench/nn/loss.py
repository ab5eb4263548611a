"""Weighted binary cross-entropy over one or many output units."""

from __future__ import annotations

import numpy as np

from .layers import sigmoid

CLAMP_EPS = 1e-7


def _batch(values, targets, sample_weight, name):
    """(values, targets, weights or None, squeeze) as float64 (n, m) arrays."""
    v = np.asarray(values, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if v.shape != y.shape:
        raise ValueError(f"shape mismatch: {name} {v.shape} vs targets {y.shape}")
    squeeze = v.ndim == 1
    if squeeze:
        v = v[:, None]
        y = y[:, None]
    w = None
    if sample_weight is not None:
        w = np.asarray(sample_weight, dtype=np.float64)
        if w.shape != (v.shape[0],):
            raise ValueError("sample_weight must have one entry per row")
        w = w[:, None]
    return v, y, w, squeeze


def bce_with_grad(probs, targets, sample_weight=None):
    """Loss and d(loss)/d(probs) in one pass.

    ``probs`` and ``targets`` share a shape of (n,) or (n, m); the loss is
    the mean over all entries of w_i * bce(p, y), where w_i is the
    per-sample weight (1 when absent). Probabilities are clamped to
    [eps, 1-eps] so log never sees 0.
    """
    p, y, w, squeeze = _batch(probs, targets, sample_weight, "probs")
    n, m = p.shape
    pc = np.minimum(np.maximum(p, CLAMP_EPS), 1.0 - CLAMP_EPS)  # np.clip, minus its overhead
    per = -(y * np.log(pc) + (1.0 - y) * np.log1p(-pc))
    dp = pc - y
    if w is not None:
        per *= w
        dp *= w
    loss = float(per.sum() / (n * m))
    dp = dp / (pc * (1.0 - pc)) / (n * m)
    if squeeze:
        dp = dp[:, 0]
    return loss, dp


def bce_with_logits(logits, targets, sample_weight=None):
    """Loss and d(loss)/d(logits) of BCE on sigmoid(logits), in float64.

    Shapes and weights as in ``bce_with_grad``; the targets may be any
    values in [0, 1]. Each entry's loss is w * (max(z, 0) - y*z +
    log1p(exp(-|z|))), exact for every finite z with no clamp, and its
    gradient is w * (sigmoid(z) - y) / (n*m), nonzero however far the
    sigmoid has saturated.
    """
    z, y, w, squeeze = _batch(logits, targets, sample_weight, "logits")
    n, m = z.shape
    e = np.exp(-np.abs(z))
    per = np.maximum(z, 0.0) - y * z + np.log1p(e)
    dz = sigmoid(z, e) - y
    if w is not None:
        per *= w
        dz *= w
    loss = float(per.sum() / (n * m))
    dz /= n * m
    if squeeze:
        dz = dz[:, 0]
    return loss, dz


def bce_loss(probabilities, labels, sample_weight=None) -> float:
    """Scalar weighted BCE for a vector of probabilities and binary labels."""
    loss, _ = bce_with_grad(probabilities, labels, sample_weight)
    return loss
