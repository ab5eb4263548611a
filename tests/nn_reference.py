"""The network training step before its small-batch savings, kept as the reference for flowbench.nn.

Every kernel here is the plain form of the library's: the two-division
sigmoid, one sigmoid call per LSTM gate, pooling by ``mean`` and
``np.repeat``, the dropout mask as ``(rng.random(shape) < keep) / keep``,
and a backward pass that computes every layer's input gradient, the
first layer's included. Training runs on logits, as the library does:
the sigmoid head returns its pre-activation and the loss is BCE on
logits. The conv bias is the last row of the im2col product's weight,
so its sum over rows and steps is rounded as the library rounds it.
Tests require the library to train byte-identical parameters and epoch
losses.
"""

import numpy as np

from flowbench.nn import layers
from flowbench.nn.network import build_network
from flowbench.nn.optim import Adam


def sigmoid(z):
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def activate(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        return sigmoid(z)
    return z


def activation_grad(name, out):
    if name == "relu":
        return (out > 0).astype(out.dtype)
    if name == "sigmoid":
        return out * (1.0 - out)
    return np.ones_like(out)


def bce_with_logits(logits, targets, sample_weight=None):
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    squeeze = z.ndim == 1
    if squeeze:
        z = z[:, None]
        y = y[:, None]
    n, m = z.shape
    w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
    per = np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))
    loss = float((w[:, None] * per).sum() / (n * m))
    dz = w[:, None] * (sigmoid(z) - y) / (n * m)
    if squeeze:
        dz = dz[:, 0]
    return loss, dz


class Dense(layers.Dense):
    def forward(self, x, train=False, rng=None, logits=False):
        self._x = x
        self._logits = logits
        z = x @ self.w + self.b
        self._out = z if logits else activate(self.activation, z)
        return self._out

    def backward(self, grad):
        dz = grad if self._logits else grad * activation_grad(self.activation, self._out)
        self.dw[...] = self._x.T @ dz
        self.db[...] = dz.sum(axis=0)
        return dz @ self.w.T


class Conv1D(layers.Conv1D):
    def forward(self, x, train=False, rng=None):
        n, t, c = x.shape
        k = self.kernel_size
        out_len = t - k + 1
        self._in_shape = x.shape
        ones = np.ones((n, out_len, 1))
        self._cols = np.concatenate(
            [x[:, j:j + out_len, :] for j in range(k)] + [ones], axis=2
        ).reshape(n * out_len, k * c + 1)
        wb = np.concatenate([self.w.reshape(k * c, -1), self.b[None, :]])
        z = self._cols @ wb
        self._out = activate(self.activation, z.reshape(n, out_len, -1))
        return self._out

    def backward(self, grad):
        dz = grad * activation_grad(self.activation, self._out)
        n, out_len, f = dz.shape
        dz2 = dz.reshape(n * out_len, f)
        dwb = self._cols.T @ dz2
        self.dw[...] = dwb[:-1].reshape(self.dw.shape)
        self.db[...] = dwb[-1]
        c = self._in_shape[2]
        dcols = (dz2 @ self.w.reshape(-1, f).T).reshape(n, out_len, self.kernel_size, c)
        dx = np.zeros(self._in_shape)
        for j in range(self.kernel_size):
            dx[:, j:j + out_len, :] += dcols[:, :, j, :]
        return dx


class AvgPool1D(layers.AvgPool1D):
    def forward(self, x, train=False, rng=None):
        n, t, c = x.shape
        out_len = t // self.pool_size
        self._in_shape = x.shape
        trimmed = x[:, : out_len * self.pool_size, :]
        return trimmed.reshape(n, out_len, self.pool_size, c).mean(axis=2)

    def backward(self, grad):
        dx = np.zeros(self._in_shape)
        covered = grad.shape[1] * self.pool_size
        dx[:, :covered, :] = np.repeat(grad, self.pool_size, axis=1) / self.pool_size
        return dx


class LSTM(layers.LSTM):
    def forward(self, x, train=False, rng=None):
        n, t, _ = x.shape
        u = self.units
        h = np.zeros((n, u))
        c = np.zeros((n, u))
        self._in_shape = x.shape
        self._steps = []
        for step in range(t):
            xt = x[:, step, :]
            if step == 0:
                z = xt @ self.wx + self.b
            else:
                z = xt @ self.wx + h @ self.wh + self.b
            i, f = sigmoid(z[:, :u]), sigmoid(z[:, u:2 * u])
            g, o = np.tanh(z[:, 2 * u:3 * u]), sigmoid(z[:, 3 * u:])
            c_prev = c
            c = f * c_prev + i * g
            tc = np.tanh(c)
            self._steps.append((xt, h, i, f, g, o, c_prev, tc))
            h = o * tc
        return h

    def backward(self, grad):
        dx = np.zeros(self._in_shape)
        self.dwx[...] = 0.0
        self.dwh[...] = 0.0
        self.db[...] = 0.0
        dh = grad
        dc = np.zeros_like(grad)
        for step in range(len(self._steps) - 1, -1, -1):
            xt, h_prev, i, f, g, o, c_prev, tc = self._steps[step]
            do = dh * tc
            dc = dc + dh * o * (1.0 - tc * tc)
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g * g),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )
            self.dwx += xt.T @ dz
            self.db += dz.sum(axis=0)
            dx[:, step, :] = dz @ self.wx.T
            if step == 0:
                break
            self.dwh += h_prev.T @ dz
            dh = dz @ self.wh.T
            dc = dc * f
        return dx


class Dropout(layers.Dropout):
    def forward(self, x, train=False, rng=None):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad):
        return grad if self._mask is None else grad * self._mask


REFERENCE_KERNELS = {
    layers.Dense: Dense, layers.Conv1D: Conv1D, layers.AvgPool1D: AvgPool1D, layers.LSTM: LSTM,
    layers.Dropout: Dropout,
}


def reference_fit(specs, x, targets, cfg, sample_weight=None):
    """(network, epoch losses) of the reference training loop on cfg.seed's streams."""
    r_init, r_shuffle, r_dropout = (
        np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(3)
    )
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim == 1:
        targets = targets[:, None]
    net = build_network(specs, x.shape[1], rng=r_init, dtype=np.float64)
    for layer in net.layers:  # same parameters, reference kernels
        layer.__class__ = REFERENCE_KERNELS.get(type(layer), type(layer))
    adam = Adam([net.flat], learning_rate=cfg.learning_rate)
    n = x.shape[0]
    order = np.arange(n)
    losses = []
    for _ in range(cfg.epochs):
        r_shuffle.shuffle(order)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            sel = order[start:start + cfg.batch_size]
            z = net.forward(x[sel], train=True, rng=r_dropout, logits=True)
            sw = None if sample_weight is None else sample_weight[sel]
            loss, grad = bce_with_logits(z, targets[sel], sw)
            for layer in reversed(net.layers):
                grad = layer.backward(grad)
            adam.step([net.flat_grad])
            total += loss * len(sel)
        losses.append(total / n)
    return net, losses
