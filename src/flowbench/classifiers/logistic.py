"""L2-regularized logistic regression fitted with limited-memory quasi-Newton.

Minimizes 0.5*||w||^2 + C * sum_i om_i * log(1 + exp(-yt_i * (w.x_i + b)))
with yt in {-1,+1} and the bias excluded from the penalty. The solver is
L-BFGS (history 10, two-loop recursion) with Armijo backtracking, stopping
when the gradient max-norm drops to the tolerance or the iteration cap is
reached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ingest import FeatureMatrix, model_input
from ..nn.layers import sigmoid

C = 1.0
TOL = 1e-4
MAX_ITER = 100
HISTORY = 10  # curvature pairs kept


@dataclass
class LrModel:
    weights: np.ndarray
    bias: float
    C: float
    converged: bool
    iterations_used: int

    def decision(self, x) -> np.ndarray:
        return x @ self.weights + self.bias


def _loss_grad(theta, x, y_pm, sw, C):
    w = theta[:-1]
    b = theta[-1]
    t = y_pm * (x @ w + b)
    loss = 0.5 * (w @ w) + C * float(sw @ np.logaddexp(0.0, -t))
    coef = C * sw * sigmoid(-t) * (-y_pm)
    grad = np.empty_like(theta)
    grad[:-1] = w + x.T @ coef
    grad[-1] = coef.sum()
    return loss, grad


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


def lr_fit(train: FeatureMatrix, sample_weight=None) -> LrModel:
    """Fit on ``train``; ``sample_weight`` is the per-row om_i (1 when absent)."""
    x = train.values
    if x.shape[0] == 0:
        raise ValueError("cannot fit on an empty matrix")
    y_pm = 2.0 * train.labels - 1.0
    sw = np.ones(x.shape[0]) if sample_weight is None else np.asarray(sample_weight, float)

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


def lr_score(model: LrModel, m) -> np.ndarray:
    return sigmoid(model.decision(model_input(m, model.weights.shape[0])))
