"""Adam with standard bias correction."""

from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Updates a fixed list of parameter arrays in place."""

    def __init__(self, params, learning_rate=0.001):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.t = 0
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]

    def step(self, grads):
        grads = list(grads)
        if len(grads) != len(self.params):
            raise ValueError("gradient list does not match parameter list")
        self.t += 1
        bias1 = 1.0 - BETA1 ** self.t
        bias2 = 1.0 - BETA2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p -= self.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + EPS)
