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

    The forward is `conv_max_pool` with this one layer and the backward
    `conv_max_pool_backward`; a model with several widths over one input
    calls them with all of them, so they share one window matrix per
    sample. The backward fills the w and b gradients and returns no
    input gradient: over an embedding lookup, `conv_max_pool_backward`
    scatters each filter's peak gradient straight into the table.
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
        return conv_max_pool([self], x)

    def backward(self, dout):
        conv_max_pool_backward([self], dout)


def conv_max_pool(convs, x):
    """The forward of the `ConvMaxPool` layers `convs` over one input
    x[batch, L, C]: their outputs side by side, [batch, sum of F].

    It works one sample at a time with time as the last axis: an [F, T]
    product of about 2 MB stays in cache, and the argmax over time then
    reads contiguous memory instead of striding through a [batch, T, F]
    array.

    Per sample, one window matrix at the widest kernel K serves every
    layer: row 0 is ones and row 1 + j*C + c holds x[n, s + j, c] in
    column s. A layer of kernel k multiplies [b | w_flat], F x (1 + k*C),
    with the first 1 + k*C rows, so its bias is added inside the product
    and the argmax runs on the sums as they come out of it. The matrix
    is one buffer, reused for every sample and as wide as the narrowest
    kernel's windows whatever the batch, so a sample's products, and
    hence its peaks, are the same alone and in any batch.

    Only live windows are multiplied out. A window that starts after a
    sample's last nonzero row sees zero rows only, so all such windows
    share one value per filter, `idle`: b, or NaN where a weight is not
    finite. Each layer's product runs over the windows that start
    earlier; then the first idle window takes a filter's max where
    np.argmax over the pair (best live value, idle) picks it, so a tie
    stays on the live window. Padding is found in the embedded rows,
    not in token ids, so this holds for any input.

    Each layer keeps x, its argmax and its gates (peak > 0) for
    `conv_max_pool_backward`, which reads only the peak windows.
    """
    x = np.asarray(x, dtype=np.float64)
    batch, length, channels = x.shape
    for conv in convs:
        if channels != conv.in_channels:
            raise ShapeError(f"expected {conv.in_channels} channels, got {channels}")
        if length < conv.kernel:
            raise ShapeError(f"input length {length} shorter than kernel {conv.kernel}")
    widest = max(conv.kernel for conv in convs)
    width = length - min(conv.kernel for conv in convs) + 1
    windows = np.empty((1 + widest * channels, width))
    windows[0] = 1.0
    taps = windows[1:].reshape(widest, channels, width)
    pools = []
    for conv in convs:
        depth = 1 + conv.kernel * channels
        # wb[f, 0] = b[f], wb[f, 1 + j*C + c] = w[f, c, j]
        wb = np.column_stack([conv.params["b"], conv.params["w"].transpose(0, 2, 1)
                              .reshape(conv.out_channels, depth - 1)])
        idle = wb @ np.eye(1, depth)[0]  # a window over zero rows
        # a sample with no live window peaks at its first idle window
        pools.append((wb, depth, length - conv.kernel + 1, idle,
                       np.zeros((batch, conv.out_channels), dtype=np.intp),
                       np.tile(idle, (batch, 1))))
    # live length per sample: through its last nonzero row, 0 if none
    nonzero = x.any(axis=2)
    spans = (length - nonzero[:, ::-1].argmax(axis=1)) * nonzero.any(axis=1)
    for n, span in enumerate(spans.tolist()):
        if not span:
            continue
        # the rows the widest kernel's live windows read, time last
        xt = np.ascontiguousarray(x[n, :min(span + widest - 1, length)].T)
        for j in range(widest):
            # columns past length - j are never read: a kernel that
            # reads row j has fewer windows than that
            cols = min(span, width, length - j)
            taps[j, :, :cols] = xt[:, j:j + cols]
        for wb, depth, t_out, idle, argmax, peak in pools:
            t = min(span, t_out)
            h = wb @ windows[:depth, :t]
            argmax[n] = h.argmax(axis=1)
            peak[n] = h[np.arange(len(h)), argmax[n]]
            if t < t_out:
                wins = np.argmax((peak[n], idle), axis=0).astype(bool)
                argmax[n, wins] = t
                peak[n, wins] = idle[wins]
    outputs = []
    for conv, (*_, argmax, peak) in zip(convs, pools):
        conv._x, conv._argmax, conv._gate = x, argmax, peak > 0
        outputs.append(_keep_where(conv._gate, peak))
    return np.concatenate(outputs, axis=1)


def conv_max_pool_backward(convs, dout, embedding=None):
    """The backward of the last `conv_max_pool(convs, x)`, with dout
    [batch, sum of F] laid out as its output; returns nothing.

    Each filter's gradient, gated on a positive peak, flows through its
    peak window only: tap j of filter f in sample n reads row
    argmax[n, f] + j. So w[f, :, j] gains d[n, f] * x[n, argmax + j]
    and b[f] gains d[n, f], as in a dense backward.

    No input gradient is formed. When x is `embedding`'s lookup of the
    tokens it last saw, the rows are tokens, and per tap j the gated
    gradients are summed per (token, filter) in one histogram
    S[V, F]; the table then gains S @ w[:, :, j]. That is the dense
    dx[n, t] = sum of d[n, f] * w[f, :, j] over the windows reading
    row t, binned by token, with the sums taken in another order
    (within 1e-12 of it in the tests). The frozen padding row stays
    zero. A non-finite w[f, c, j] makes channel c of every row
    non-finite, where the dense path marks only the rows of the tokens
    its windows read; either way Adam refuses the step.
    """
    if embedding is not None:
        tokens = embedding._x.reshape(-1)
        table = embedding.grads["weight"]
    start = 0
    for conv in convs:
        batch, length, channels = conv._x.shape
        x = conv._x.reshape(-1, channels)
        filters = conv.out_channels
        d = _keep_where(conv._gate, dout[:, start:start + filters])
        start += filters
        cells = np.arange(filters)
        # row of x read by tap 0 of filter f in sample n, flattened
        at = np.arange(batch)[:, None] * length + conv._argmax
        for j in range(conv.kernel):
            conv.grads["w"][:, :, j] += np.einsum("bf,bfc->fc", d, x.take(at + j, axis=0))
            if embedding is not None:
                hist = np.bincount((tokens.take(at + j) * filters + cells).ravel(),
                                   weights=d.ravel(), minlength=len(table) * filters)
                table += hist.reshape(len(table), filters) @ conv.params["w"][:, :, j]
        conv.grads["b"] += d.sum(axis=0)
    if embedding is not None and embedding.frozen_padding:
        table[0] = 0.0


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
