"""L2-regularized logistic regression fitted with damped Newton steps.

Minimizes 0.5*||w||^2 + C * sum_i log(1 + exp(-yt_i * (w.x_i + b)))
with yt in {-1,+1} and the bias excluded from the penalty. Each step
solves H p = -g on the exact (d+1)x(d+1) Hessian (steepest descent when
H is singular) and backtracks from a unit step until the Armijo condition
holds, stopping when the gradient max-norm drops to the tolerance or the
iteration cap is reached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ingest import FeatureMatrix, model_input
from ..nn.layers import sigmoid

C = 1.0
TOL = 1e-4
MAX_ITER = 100


@dataclass
class LrModel:
    weights: np.ndarray
    bias: float
    C: float
    converged: bool
    iterations_used: int

    def decision(self, x) -> np.ndarray:
        return x @ self.weights + self.bias


def _loss_grad(theta, x, y_pm, C):
    w = theta[:-1]
    b = theta[-1]
    t = y_pm * (x @ w + b)
    loss = 0.5 * (w @ w) + C * float(np.logaddexp(0.0, -t).sum())
    coef = C * sigmoid(-t) * (-y_pm)
    grad = np.empty_like(theta)
    grad[:-1] = w + x.T @ coef
    grad[-1] = coef.sum()
    return loss, grad


def _hessian(theta, x, C):
    """C * [x, 1]^T diag(c) [x, 1] + diag(1, ..., 1, 0), c_i = s_i * (1 - s_i).

    The blocks come from ``x`` directly: x * c is the one (n, d) temporary.
    """
    s = sigmoid(-np.abs(x @ theta[:-1] + theta[-1]))  # the smaller of sigma(z), 1 - sigma(z)
    c = C * s * (1.0 - s)
    h = np.empty((theta.size, theta.size))
    h[:-1, :-1] = x.T @ (x * c[:, None]) + np.eye(x.shape[1])
    h[-1, :-1] = h[:-1, -1] = c @ x
    h[-1, -1] = c.sum()
    return h


def lr_fit(train: FeatureMatrix) -> LrModel:
    """Fit on ``train``, every row weighing 1."""
    x = train.values
    if x.shape[0] == 0:
        raise ValueError("cannot fit on an empty matrix")
    y_pm = 2.0 * train.labels - 1.0

    theta = np.zeros(x.shape[1] + 1)
    f, g = _loss_grad(theta, x, y_pm, C)
    if not np.isfinite(f):
        raise FloatingPointError("non-finite loss at the starting point")
    iterations = 0
    for _ in range(MAX_ITER):
        if np.abs(g).max() <= TOL:
            break
        iterations += 1
        try:
            direction = np.linalg.solve(_hessian(theta, x, C), -g)
        except np.linalg.LinAlgError:  # a singular Hessian: steepest descent
            direction = -g
        slope = g @ direction
        if not slope < 0:  # rounding produced an ascent (or NaN) direction
            direction = -g
            slope = -(g @ g)
        # Armijo backtracking from a unit step
        alpha = 1.0
        for _ in range(40):
            theta_new = theta + alpha * direction
            f_new, g_new = _loss_grad(theta_new, x, y_pm, C)
            if np.isfinite(f_new) and f_new <= f + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:  # no step decreased the loss enough
            break
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
