"""The L-BFGS logistic regression fit, kept as the reference for flowbench.classifiers.logistic.

This is the solver flowbench used before the Newton method: L-BFGS
(history 10, two-loop recursion) on the same objective, with the same
Armijo backtracking, ascent guard, stop test and iteration cap. Tests
require the Newton fit to land within a small tolerance of its weights
and at a loss no higher than its own.
"""

import numpy as np

from flowbench.classifiers.logistic import C, MAX_ITER, TOL, LrModel, _loss_grad
from flowbench.ingest import FeatureMatrix, row_weights

HISTORY = 10  # curvature pairs kept


def _two_loop(grad, s_hist, y_hist):
    """L-BFGS descent direction from the stored curvature pairs."""
    q = grad.copy()
    k = len(s_hist)
    rhos = [1.0 / (s @ yv) for s, yv in zip(s_hist, y_hist)]
    alphas = [0.0] * k
    for i in range(k - 1, -1, -1):
        alphas[i] = rhos[i] * (s_hist[i] @ q)
        q -= alphas[i] * y_hist[i]
    if k:
        q *= (s_hist[-1] @ y_hist[-1]) / (y_hist[-1] @ y_hist[-1])
    for i in range(k):
        beta = rhos[i] * (y_hist[i] @ q)
        q += (alphas[i] - beta) * s_hist[i]
    return -q


def reference_lr_fit(train: FeatureMatrix, sample_weight=None) -> LrModel:
    """Fit on ``train``; ``sample_weight`` is the per-row om_i (1 when absent).

    Each om_i must be finite and non-negative.
    """
    x = train.values
    if x.shape[0] == 0:
        raise ValueError("cannot fit on an empty matrix")
    y_pm = 2.0 * train.labels - 1.0
    sw = row_weights(sample_weight, x.shape[0])

    theta = np.zeros(x.shape[1] + 1)
    f, g = _loss_grad(theta, x, y_pm, sw, C)
    if not np.isfinite(f):
        raise FloatingPointError("non-finite loss at the starting point")
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    iterations = 0
    for _ in range(MAX_ITER):
        if np.abs(g).max() <= TOL:
            break
        iterations += 1
        direction = _two_loop(g, s_hist, y_hist)
        slope = g @ direction
        if slope >= 0:  # stale curvature produced an ascent direction
            direction = -g
            slope = -(g @ g)
        # Armijo backtracking from a unit step
        alpha = 1.0
        accepted = False
        for _ in range(40):
            theta_new = theta + alpha * direction
            f_new, g_new = _loss_grad(theta_new, x, y_pm, sw, C)
            if np.isfinite(f_new) and f_new <= f + 1e-4 * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        s = theta_new - theta
        yv = g_new - g
        if s @ yv > 1e-10:
            s_hist.append(s)
            y_hist.append(yv)
            if len(s_hist) > HISTORY:
                s_hist.pop(0)
                y_hist.pop(0)
        theta, f, g = theta_new, f_new, g_new
        if not np.isfinite(f):
            raise FloatingPointError("non-finite loss during optimization")
    return LrModel(
        weights=theta[:-1].copy(),
        bias=float(theta[-1]),
        C=C,
        converged=bool(np.abs(g).max() <= TOL),
        iterations_used=iterations,
    )
