"""Layers with hand-written reverse-mode gradients.

Every layer caches what its backward pass needs during forward, so a
network instance is single-threaded; distinct instances share nothing.
Data is either a 2-D batch (n, features) or a 3-D sequence batch
(n, timesteps, channels); the Reshape adapter converts between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "sigmoid", "linear")


@dataclass(frozen=True)
class LayerSpec:
    """Declarative description of one layer.

    ``units`` doubles as the filter count for conv1d and the cell count
    for lstm; it is ignored for avgpool1d/dropout/flatten.
    """

    kind: str
    units: int = 0
    kernel_size: int = 0
    pool_size: int = 0
    activation: str = "linear"
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in ("dense", "conv1d", "avgpool1d", "lstm", "dropout", "flatten"):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind in ("dense", "conv1d", "lstm") and self.units < 1:
            raise ValueError(f"{self.kind} needs units >= 1")
        if self.kind == "conv1d" and self.kernel_size < 1:
            raise ValueError("conv1d needs kernel_size >= 1")
        if self.kind == "avgpool1d" and self.pool_size < 1:
            raise ValueError("avgpool1d needs pool_size >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "units": self.units, "kernel_size": self.kernel_size,
            "pool_size": self.pool_size, "activation": self.activation, "rate": self.rate,
        }


def sigmoid(z, e=None):
    """The logistic function; ``e``, when given, must be ``np.exp(-np.abs(z))``."""
    # exp only ever sees -|z|, so it cannot overflow
    if e is None:
        e = np.exp(-np.abs(z))
    d = 1.0 + e
    # numerator 1 where z >= 0 (e <= 1 there) and e elsewhere, NaN kept;
    # a max over the mask is cheaper than np.where with a random mask
    return np.maximum(e, z >= 0) / d


def _activate(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        return sigmoid(z)
    return z


def _activation_grad(name, out):
    """d(activation)/d(pre-activation), expressed through the output.

    A relu's is the mask ``out > 0``, so the chain rule is one masked
    multiply; a linear activation's is None: the gradient passes as it is.
    """
    if name == "relu":
        return out > 0
    if name == "sigmoid":
        return out * (1.0 - out)
    return None


def _new_array(name, shape, dtype):
    """Inference's stand-in for ``Layer._work_array``: a fresh array each call."""
    return np.empty(shape, dtype)


def glorot_uniform(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    """Base layer. ``PARAMS`` pairs each parameter attribute with its gradient.

    ``Network`` hands each layer its slice of the flat buffers (``bind``),
    which makes these attributes views into them, so a layer must write its
    gradients in place (``self.dw[...] = ...``) and never rebind them.

    ``backward(grad)`` takes d(loss)/d(output) of the last ``forward``,
    writes the parameter gradients and returns d(loss)/d(input). A layer
    with parameters also takes ``input_grad=False``: it then writes only
    its parameter gradients and returns None; ``Network.backward`` calls
    its lowest such layer that way, since nothing reads the gradient of
    the input batch.

    A layer may write a train-mode ``forward`` result, and any ``backward``
    result, into work arrays it keeps from step to step (``_work_array``),
    so such a result is valid until that layer's next train-mode call.
    Inference allocates: nothing an inference ``forward`` returns is a
    work array. Every array a layer allocates takes the dtype of the batch
    it is given, so a float32 network computes in float32 throughout.
    ``release`` drops the work arrays and the batch state named in
    ``CACHE``, which may be views of another layer's work arrays.
    """

    PARAMS: tuple[tuple[str, str], ...] = ()
    CACHE: tuple[str, ...] = ()  # the batch arrays forward keeps for backward
    _work: dict | None = None

    def forward(self, x, train=False, rng=None):
        raise NotImplementedError

    def backward(self, grad, input_grad=True):
        raise NotImplementedError

    def bind(self, flat, flat_grad):
        """Copy the parameters into the 1-D ``flat`` and make them, and their
        gradients, views of ``flat`` and ``flat_grad``, in ``PARAMS`` order.

        The values are rounded to ``flat``'s dtype.
        """
        offset = 0
        for p, g in self.PARAMS:
            tensor = getattr(self, p)
            end = offset + tensor.size
            flat[offset:end] = tensor.ravel()
            setattr(self, p, flat[offset:end].reshape(tensor.shape))
            setattr(self, g, flat_grad[offset:end].reshape(tensor.shape))
            offset = end

    def _work_array(self, name, shape, dtype):
        """The leading ``shape[0]`` rows of the work array ``name``.

        The first (largest) batch of a fit sizes it; more rows, another
        trailing shape or another dtype allocate it again.
        """
        if self._work is None:
            self._work = {}
        kept = self._work.get(name)
        if (kept is None or kept.shape[0] < shape[0] or kept.shape[1:] != shape[1:]
                or kept.dtype != dtype):
            kept = self._work[name] = np.empty(shape, dtype)
        return kept[:shape[0]]

    def release(self):
        """Drop the work arrays and the cached batch state; parameters stay."""
        self._work = None
        for name in self.CACHE:
            setattr(self, name, None)

    def params(self):
        return [getattr(self, p) for p, _ in self.PARAMS]

    def grads(self):
        return [getattr(self, g) for _, g in self.PARAMS]


class Dense(Layer):
    """``activation(x @ w + b)``.

    ``forward(..., logits=True)`` returns the pre-activation z instead, and
    the next ``backward`` then takes d(loss)/dz: training moves a sigmoid
    head's activation into the loss (``loss.bce_with_logits``).
    """

    PARAMS = (("w", "dw"), ("b", "db"))
    CACHE = ("_x", "_out")

    def __init__(self, in_dim, units, activation="linear", rng=None):
        rng = rng or np.random.default_rng(0)
        self.activation = activation
        self._applied = activation  # the activation the last forward applied
        self.w = glorot_uniform(rng, (in_dim, units), in_dim, units)
        self.b = np.zeros(units)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._x = None
        self._out = None

    def forward(self, x, train=False, rng=None, logits=False):
        self._x = x
        self._applied = "linear" if logits else self.activation
        self._out = _activate(self._applied, x @ self.w + self.b)
        return self._out

    def backward(self, grad, input_grad=True):
        act_grad = _activation_grad(self._applied, self._out)
        dz = grad if act_grad is None else np.multiply(grad, act_grad)
        self.dw[...] = self._x.T @ dz
        self.db[...] = dz.sum(axis=0)
        if not input_grad:
            return None
        if self.w.shape[1] == 1:  # an outer product: a broadcast beats a K=1 matmul
            return dz * self.w.T
        return dz @ self.w.T


class Conv1D(Layer):
    """Valid cross-correlation along the time axis; weight shape (k, c_in, filters).

    Computed as im2col plus one matmul: row (i, t) of ``cols`` holds the k
    input steps t..t+k-1, channels innermost, which is the (k, c_in) order
    of the flattened weight, then a 1 that multiplies the bias. ``w`` and
    ``b`` lie side by side in memory, in a network's flat buffer or in the
    layer's own, so ``_wb`` is their (k * c_in + 1, filters) view: forward
    is one product ``cols @ _wb`` and backward writes ``dw`` and ``db`` with
    one product ``cols.T @ dz``.
    """

    PARAMS = (("w", "dw"), ("b", "db"))
    CACHE = ("_cols", "_out")

    def __init__(self, in_channels, filters, kernel_size, activation="linear", rng=None):
        rng = rng or np.random.default_rng(0)
        self.activation = activation
        self.kernel_size = kernel_size
        fan_in = kernel_size * in_channels
        fan_out = kernel_size * filters
        self.w = glorot_uniform(rng, (kernel_size, in_channels, filters), fan_in, fan_out)
        self.b = np.zeros(filters)
        size = self.w.size + filters
        self.bind(np.empty(size), np.zeros(size))
        self._cols = None
        self._in_shape = None
        self._out = None

    def bind(self, flat, flat_grad):
        super().bind(flat, flat_grad)
        rows = self.w.size // self.b.size + 1
        self._wb = flat.reshape(rows, -1)
        self._dwb = flat_grad.reshape(rows, -1)

    def forward(self, x, train=False, rng=None):
        n, t, c = x.shape
        k = self.kernel_size
        if t < k:
            raise ValueError(f"sequence length {t} shorter than kernel {k}")
        out_len = t - k + 1
        f = self.b.size
        kc = k * c
        array = self._work_array if train else _new_array
        self._in_shape = x.shape
        cols = array("cols", (n, out_len, kc + 1), x.dtype)
        np.concatenate([x[:, j:j + out_len, :] for j in range(k)], axis=2,
                       out=cols[:, :, :kc])
        cols[:, :, kc] = 1.0
        self._cols = cols.reshape(n * out_len, kc + 1)
        z = np.matmul(self._cols, self._wb, out=array("z", (n * out_len, f), x.dtype))
        z = z.reshape(n, out_len, f)
        if self.activation == "relu":
            self._out = np.maximum(z, 0.0, out=z)
        else:
            self._out = _activate(self.activation, z)
        return self._out

    def backward(self, grad, input_grad=True):
        act_grad = _activation_grad(self.activation, self._out)
        dz = grad if act_grad is None else np.multiply(
            grad, act_grad, out=self._work_array("dz", grad.shape, grad.dtype))
        n, out_len, f = dz.shape
        dz2 = dz.reshape(n * out_len, f)
        np.matmul(self._cols.T, dz2, out=self._dwb)
        if not input_grad:
            return None
        k, c = self.kernel_size, self._in_shape[2]
        dcols = np.matmul(
            dz2, self.w.reshape(-1, f).T,
            out=self._work_array("dcols", (n * out_len, k * c), dz.dtype),
        ).reshape(n, out_len, k, c)
        dx = self._work_array("dx", self._in_shape, dz.dtype)
        dx[...] = 0.0
        for j in range(k):
            dx[:, j:j + out_len, :] += dcols[:, :, j, :]
        return dx


class AvgPool1D(Layer):
    """Non-overlapping average pooling; a trailing remainder is dropped.

    Forward adds the p strided slices to 0.0 in window order and divides by
    p, the sum ``mean`` takes over a length-p axis; backward writes grad / p
    into every window slot through a reshaped view of dx.
    """

    def __init__(self, pool_size):
        self.pool_size = pool_size
        self._in_shape = None

    def forward(self, x, train=False, rng=None):
        n, t, c = x.shape
        out_len = t // self.pool_size
        if out_len == 0:
            raise ValueError(f"sequence length {t} shorter than pool {self.pool_size}")
        self._in_shape = x.shape
        p = self.pool_size
        covered = out_len * p
        array = self._work_array if train else _new_array
        # mean's sum starts at 0.0: -0.0 becomes 0.0
        total = np.add(x[:, 0:covered:p, :], 0.0, out=array("out", (n, out_len, c), x.dtype))
        for j in range(1, p):
            total += x[:, j:covered:p, :]
        total /= p
        return total

    def backward(self, grad):
        n, out_len, c = grad.shape
        p = self.pool_size
        covered = out_len * p
        dx = self._work_array("dx", self._in_shape, grad.dtype)
        dx[:, covered:, :] = 0.0  # a remainder of the input gets no gradient
        dx[:, :covered, :].reshape(n, out_len, p, c)[...] = (grad / p)[:, :, None, :]
        return dx


class LSTM(Layer):
    """Standard LSTM cell unrolled over time; emits the final hidden state.

    Gate layout inside the fused weight matrices is input, forget,
    candidate, output. Initial hidden and cell states are zero.
    """

    PARAMS = (("wx", "dwx"), ("wh", "dwh"), ("b", "db"))
    CACHE = ("_steps",)

    def __init__(self, in_dim, units, rng=None):
        rng = rng or np.random.default_rng(0)
        self.units = units
        self.wx = glorot_uniform(rng, (in_dim, 4 * units), in_dim, units)
        self.wh = glorot_uniform(rng, (units, 4 * units), units, units)
        self.b = np.zeros(4 * units)
        self.dwx = np.zeros_like(self.wx)
        self.dwh = np.zeros_like(self.wh)
        self.db = np.zeros_like(self.b)
        self._steps = None
        self._in_shape = None

    def _gates(self, s):
        """The input, forget and output gates: views into the (n, 4u) sigmoid block."""
        u = self.units
        return s[:, :u], s[:, u:2 * u], s[:, 3 * u:]

    def forward(self, x, train=False, rng=None):
        n, t, _ = x.shape
        u = self.units
        h = np.zeros((n, u), x.dtype)
        c = np.zeros((n, u), x.dtype)
        self._in_shape = x.shape
        self._steps = []
        for step in range(t):
            xt = x[:, step, :]
            if step == 0:  # h is zero, so h @ wh would add only zeros
                z = xt @ self.wx + self.b
            else:
                z = xt @ self.wx + h @ self.wh + self.b
            s = sigmoid(z)  # all four blocks in one call; the candidate's is unused
            g = np.tanh(z[:, 2 * u:3 * u])
            i, f, o = self._gates(s)
            c_prev = c
            c = f * c_prev + i * g
            tc = np.tanh(c)
            self._steps.append((xt, h, s, g, c_prev, tc))
            h = o * tc
        return h

    def backward(self, grad, input_grad=True):
        u = self.units
        dx = np.zeros(self._in_shape, grad.dtype) if input_grad else None
        self.dwx[...] = 0.0
        self.dwh[...] = 0.0
        self.db[...] = 0.0
        dh = grad
        dc = np.zeros_like(grad)
        for step in range(len(self._steps) - 1, -1, -1):
            xt, h_prev, s, g, c_prev, tc = self._steps[step]
            i, f, o = self._gates(s)
            do = dh * tc
            dc = dc + dh * o * (1.0 - tc * tc)
            dg = dc * i
            # the gate outputs' gradients times sigmoid' as (d * s) * (1 - s)
            # over all four blocks, then tanh' on the candidate block
            dz = np.concatenate([dc * g, dc * c_prev, dg, do], axis=1)
            dz *= s
            dz *= 1.0 - s
            dz[:, 2 * u:3 * u] = dg * (1.0 - g * g)
            self.dwx += xt.T @ dz
            self.db += dz.sum(axis=0)
            if input_grad:
                dx[:, step, :] = dz @ self.wx.T
            if step == 0:  # h_prev is zero and nothing precedes it
                break
            self.dwh += h_prev.T @ dz
            dh = dz @ self.wh.T
            dc = dc * f
        return dx


class Dropout(Layer):
    """Inverted dropout: train-time scaling by 1/(1-rate), inference is identity."""

    CACHE = ("_mask",)

    def __init__(self, rate):
        self.rate = rate
        self._mask = None

    def forward(self, x, train=False, rng=None):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ValueError("train-mode dropout needs an RNG")
        keep = 1.0 - self.rate
        self._mask = np.divide(rng.random(x.shape) < keep, keep, dtype=x.dtype)
        return x * self._mask

    def backward(self, grad):
        if self._mask is None:
            return grad
        return grad * self._mask


class Reshape(Layer):
    """Gives each row of the batch ``shape``; backward restores the input's shape."""

    def __init__(self, shape):
        self.shape = tuple(shape)
        self._in_shape = None

    def forward(self, x, train=False, rng=None):
        self._in_shape = x.shape
        return x.reshape(x.shape[0], *self.shape)

    def backward(self, grad):
        return grad.reshape(self._in_shape)
