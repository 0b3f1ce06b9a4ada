"""Layers with explicit forward/backward. All math in float64.

`mode` is one of:
  "train"     - dropout active, batch norm uses batch stats and updates
                its running estimates
  "eval"      - deterministic: dropout off, batch norm uses running stats
  "gradcheck" - dropout off, batch norm uses batch stats but leaves the
                running estimates untouched (so repeated forwards of the
                finite-difference probe see identical state)
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    pass


def _glorot_uniform(rng, fan_in, fan_out, shape):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _keep_where(mask, x):
    """The bits of float64 `x` where `mask` (same shape) holds and +0.0
    elsewhere: a `where` select with a 0.0 fallback, bit for bit, but by
    an integer AND with -1 or 0 instead of a branch per element."""
    bits = mask.astype(np.int64)
    np.negative(bits, out=bits)
    np.bitwise_and(bits, np.asarray(x, dtype=np.float64).view(np.int64), out=bits)
    return bits.view(np.float64)


class Layer:
    """Base: parameter dict + gradient dict, one cached forward.

    Both dicts' arrays are updated in place, never rebound: a
    `ModelGraph` replaces them with views into its flat buffers."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}

    def _add_param(self, name, value):
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)

    def zero_grads(self):
        for g in self.grads.values():
            g.fill(0.0)

    def forward(self, x, mode="eval", rng=None):
        raise NotImplementedError

    def backward(self, dout):
        raise NotImplementedError


class Embedding(Layer):
    """Index lookup table. Row 0 can be frozen at zero for padding."""

    def __init__(self, num_embeddings, dim, rng, frozen_padding=False):
        super().__init__()
        weight = rng.normal(0.0, 0.1, size=(num_embeddings, dim))
        if frozen_padding:
            weight[0] = 0.0
        self._add_param("weight", weight)
        self.frozen_padding = frozen_padding
        self.num_embeddings = num_embeddings
        self.dim = dim

    def forward(self, x, mode="eval", rng=None):
        x = np.asarray(x)
        if not np.issubdtype(x.dtype, np.integer):
            raise ShapeError("embedding input must be integer indices")
        if x.size and (x.min() < 0 or x.max() >= self.num_embeddings):
            raise ShapeError(
                f"embedding index out of range [0, {self.num_embeddings})")
        self._x = x
        return self.params["weight"][x]

    def backward(self, dout):
        gw = self.grads["weight"]
        # one flat histogram: cell x*dim + c sums dout[..., c] per index x
        cells = (self._x.reshape(-1, 1) * self.dim
                 + np.arange(self.dim)).ravel()
        gw += np.bincount(cells, weights=dout.ravel(),
                          minlength=gw.size).reshape(gw.shape)
        if self.frozen_padding:
            gw[0] = 0.0
        return None  # integer inputs carry no gradient

    def frozen_mask(self, pname):
        if pname == "weight" and self.frozen_padding:
            mask = np.zeros((self.num_embeddings, self.dim), dtype=bool)
            mask[0] = True
            return mask
        return None


class ConvMaxPool(Layer):
    """Valid-padding 1-D convolution, max over time, then ReLU:
    x[batch, L, C] -> [batch, F], with w[f, c, j].

    ReLU after the max is exact, since max_t ReLU(h) = ReLU(max_t h).
    Each filter keeps the first position attaining its max (np.argmax
    tie rule), and the backward pass routes its gradient through that
    one window only, gated on a positive peak.

    The forward works one sample at a time with time as the last axis:
    an [F, T] product of about 2 MB stays in cache, and the argmax over
    time then reads contiguous memory instead of striding through a
    [batch, T, F] array.
    """

    def __init__(self, in_channels, out_channels, kernel, rng):
        super().__init__()
        fan_in = in_channels * kernel
        fan_out = out_channels * kernel
        self._add_param("w", _glorot_uniform(
            rng, fan_in, fan_out, (out_channels, in_channels, kernel)))
        self._add_param("b", np.zeros(out_channels))
        self.kernel = kernel
        self.in_channels = in_channels
        self.out_channels = out_channels

    def forward(self, x, mode="eval", rng=None):
        x = np.asarray(x, dtype=np.float64)
        batch, length, channels = x.shape
        k = self.kernel
        if channels != self.in_channels:
            raise ShapeError(f"expected {self.in_channels} channels, got {channels}")
        if length < k:
            raise ShapeError(f"input length {length} shorter than kernel {k}")
        t_out = length - k + 1
        # w_flat[f, j*C + c] = w[f, c, j]
        w_flat = self.params["w"].transpose(0, 2, 1).reshape(self.out_channels,
                                                             k * channels)
        b = self.params["b"][:, None]
        argmax = np.empty((batch, self.out_channels), dtype=np.intp)
        peak = np.empty((batch, self.out_channels))
        filters = np.arange(self.out_channels)
        for n in range(batch):
            xt = x[n].T
            # cols[j*C + c, t] = x[n, t + j, c]
            cols = np.concatenate([xt[:, j:j + t_out] for j in range(k)])
            h = w_flat @ cols
            h += b
            argmax[n] = h.argmax(axis=1)
            peak[n] = h[filters, argmax[n]]
        self._x, self._argmax, self._gate = x, argmax, peak > 0
        return _keep_where(self._gate, peak)

    def backward(self, dout):
        x, argmax = self._x, self._argmax
        d = _keep_where(self._gate, dout)
        batch, length, channels = x.shape
        rows = np.arange(batch)[:, None]
        for j in range(self.kernel):
            # the window of filter f in sample b starts at argmax[b, f]
            self.grads["w"][:, :, j] += np.einsum(
                "bf,bfc->fc", d, x[rows, argmax + j])
        # per sample, one flat histogram over cells t*C + c with entries
        # ordered j, f, c: each cell sums its terms in the order of a
        # per-j scatter. taps[j, f, c] = w[f, c, j]
        taps = self.params["w"].transpose(2, 0, 1)
        offsets = np.arange(self.kernel)[:, None, None] * channels + np.arange(channels)
        dx = np.empty_like(x)
        for n in range(batch):
            cells = argmax[n][:, None] * channels + offsets
            dx[n] = np.bincount(cells.ravel(), weights=(d[n][:, None] * taps).ravel(),
                                minlength=length * channels).reshape(length, channels)
        self.grads["b"] += d.sum(axis=0)
        return dx


class ReLU(Layer):
    def forward(self, x, mode="eval", rng=None):
        self._mask = x > 0
        return _keep_where(self._mask, x)

    def backward(self, dout):
        return dout * self._mask


class Dense(Layer):
    def __init__(self, in_features, out_features, rng):
        super().__init__()
        self._add_param("w", _glorot_uniform(
            rng, in_features, out_features, (in_features, out_features)))
        self._add_param("b", np.zeros(out_features))
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x, mode="eval", rng=None):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_features:
            raise ShapeError(
                f"dense expected {self.in_features} inputs, got {x.shape[-1]}")
        self._x = x
        return x @ self.params["w"] + self.params["b"]

    def backward(self, dout):
        self.grads["w"] += self._x.T @ dout
        self.grads["b"] += dout.sum(axis=0)
        return dout @ self.params["w"].T


class BatchNorm1d(Layer):
    def __init__(self, num_features, eps=1e-5, momentum=0.1):
        super().__init__()
        self._add_param("gamma", np.ones(num_features))
        self._add_param("beta", np.zeros(num_features))
        self.buffers["running_mean"] = np.zeros(num_features)
        self.buffers["running_var"] = np.ones(num_features)
        self.eps = eps
        self.momentum = momentum
        self.num_features = num_features

    def forward(self, x, mode="eval", rng=None):
        x = np.asarray(x, dtype=np.float64)
        if mode in ("train", "gradcheck"):
            if x.shape[0] < 2:
                raise ShapeError("batch norm needs batch size >= 2 in train mode")
            mean = x.mean(axis=0)
            centered = x - mean
            # biased variance, summed and divided exactly as np.var does
            var = (centered * centered).sum(axis=0) / x.shape[0]
            if mode == "train":
                m = self.momentum
                self.buffers["running_mean"] = (
                    (1 - m) * self.buffers["running_mean"] + m * mean)
                self.buffers["running_var"] = (
                    (1 - m) * self.buffers["running_var"] + m * var)
        else:
            var = self.buffers["running_var"]
            centered = x - self.buffers["running_mean"]
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = centered * inv_std
        self._cache = (xhat, inv_std, mode)
        return self.params["gamma"] * xhat + self.params["beta"]

    def backward(self, dout):
        xhat, inv_std, mode = self._cache
        self.grads["gamma"] += (dout * xhat).sum(axis=0)
        self.grads["beta"] += dout.sum(axis=0)
        dxhat = dout * self.params["gamma"]
        if mode == "eval":
            return dxhat * inv_std
        n = dout.shape[0]
        return (inv_std / n) * (
            n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))


class Dropout(Layer):
    """Inverted dropout: eval is the identity."""

    def __init__(self, rate):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate

    def forward(self, x, mode="eval", rng=None):
        if mode != "train" or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ValueError("train-mode dropout needs an rng")
        self._mask = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * self._mask

    def backward(self, dout):
        return dout if self._mask is None else dout * self._mask
