"""Weighted binary cross-entropy over one or many output units."""

from __future__ import annotations

import numpy as np

CLAMP_EPS = 1e-7


def bce_with_grad(probs, targets, sample_weight=None):
    """Loss and d(loss)/d(probs) in one pass.

    ``probs`` and ``targets`` share a shape of (n,) or (n, m); the loss is
    the mean over all entries of w_i * bce(p, y), where w_i is the
    per-sample weight (1 when absent). Probabilities are clamped to
    [eps, 1-eps] so log never sees 0.
    """
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"shape mismatch: probs {p.shape} vs targets {y.shape}")
    squeeze = p.ndim == 1
    if squeeze:
        p = p[:, None]
        y = y[:, None]
    n, m = p.shape
    if sample_weight is None:
        w = np.ones(n)
    else:
        w = np.asarray(sample_weight, dtype=np.float64)
        if w.shape != (n,):
            raise ValueError("sample_weight must have one entry per row")
    pc = np.minimum(np.maximum(p, CLAMP_EPS), 1.0 - CLAMP_EPS)  # np.clip, minus its overhead
    per = -(y * np.log(pc) + (1.0 - y) * np.log1p(-pc))
    loss = float((w[:, None] * per).sum() / (n * m))
    dp = w[:, None] * (pc - y) / (pc * (1.0 - pc)) / (n * m)
    if squeeze:
        dp = dp[:, 0]
    return loss, dp


def bce_loss(probabilities, labels, sample_weight=None) -> float:
    """Scalar weighted BCE for a vector of probabilities and binary labels."""
    loss, _ = bce_with_grad(probabilities, labels, sample_weight)
    return loss
