"""Layers with explicit forward/backward. All math in float64.

`mode` is one of:
  "train" - dropout active, batch norm uses batch stats and updates its
            running estimates
  "eval"  - deterministic: dropout off, batch norm uses running stats
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


def _check_tokens(tokens, rows):
    """`tokens` as an array, after checking that it holds integer ids
    into a table of `rows` rows."""
    tokens = np.asarray(tokens)
    if not np.issubdtype(tokens.dtype, np.integer):
        raise ShapeError("embedding input must be integer indices")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= rows):
        raise ShapeError(f"embedding index out of range [0, {rows})")
    return tokens


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
        self._x = x = _check_tokens(x, self.num_embeddings)
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


class ConvMaxPool(Layer):
    """Valid-padding 1-D convolution, max over time, then ReLU:
    x[batch, L, C] -> [batch, F], with w[f, c, j].

    ReLU after the max is exact, since max_t ReLU(h) = ReLU(max_t h).
    Each filter keeps the first position attaining its max (np.argmax
    tie rule), and the backward pass routes its gradient through that
    one window only, gated on a positive peak.

    The layer holds the parameters; `conv_max_pool` and
    `conv_max_pool_backward` run it. A model with several widths over
    one embedding calls the two with all of them and its table, so they
    share one window matrix per sample and the backward scatters each
    filter's peak gradient straight into the table's gradient. No input
    gradient is returned.
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


def conv_max_pool(convs, tokens, table):
    """The forward of the `ConvMaxPool` layers `convs` over token ids
    tokens[batch, L] into table[V, C]: their outputs side by side,
    [batch, sum of F]. Sample n's row t is table[tokens[n, t]]; no
    [batch, L, C] lookup is formed.

    It works one sample at a time with time as the last axis: an [F, T]
    product of about 2 MB stays in cache, and the argmax over time then
    reads contiguous memory instead of striding through a [batch, T, F]
    array.

    Per sample, one window matrix at the widest kernel K serves every
    layer: row 0 is ones and row 1 + j*C + c holds table[tokens[n, s + j], c]
    in column s, gathered from the table transposed once per call. A
    layer of kernel k multiplies [b | w_flat], F x (1 + k*C), with the
    first 1 + k*C rows, so its bias is added inside the product and the
    argmax runs on the sums as they come out of it. The window matrix
    and one flat product buffer are allocated once per call and reused
    for every sample and layer. The matrix is as wide as the narrowest
    kernel's windows whatever the batch, so a sample's products, and
    hence its peaks, are the same alone and in any batch.

    Only live windows are multiplied out. A window that starts after a
    sample's last token with a nonzero row sees zero rows only, so all
    such windows share one value per filter, `idle`: b, or NaN where a
    weight is not finite. Each layer's product runs over the windows
    that start earlier. Then, once per layer over the batch, the first
    idle window takes a filter's max where np.argmax over the pair
    (best live value, idle) picks it, so a tie stays on the live window.
    Padding is found from the table's zero rows, not from token 0, so
    this holds for any table.

    Each layer keeps the tokens, a copy of the table, its argmax and its
    gates (peak > 0) for `conv_max_pool_backward`, which reads only the
    peak windows.
    """
    table = np.array(table, dtype=np.float64)  # the backward reads this copy
    if table.ndim != 2:
        raise ShapeError(f"expected a table[V, C], got shape {table.shape}")
    tokens = _check_tokens(tokens, len(table))
    if tokens.ndim != 2:
        raise ShapeError(f"expected tokens[batch, L], got shape {tokens.shape}")
    batch, length = tokens.shape
    channels = table.shape[1]
    for conv in convs:
        if channels != conv.in_channels:
            raise ShapeError(f"expected {conv.in_channels} channels, got {channels}")
        if length < conv.kernel:
            raise ShapeError(f"input length {length} shorter than kernel {conv.kernel}")
    widest = max(conv.kernel for conv in convs)
    width = length - min(conv.kernel for conv in convs) + 1
    columns = np.ascontiguousarray(table.T)  # [C, V]: time last once gathered
    windows = np.empty((1 + widest * channels, width))
    windows[0] = 1.0
    taps = windows[1:].reshape(widest, channels, width)
    flat = np.empty(max(conv.out_channels for conv in convs) * width)
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
    nonzero = table.any(axis=1)[tokens]
    spans = (length - nonzero[:, ::-1].argmax(axis=1)) * nonzero.any(axis=1)
    for n, span in enumerate(spans.tolist()):
        if not span:
            continue
        # the rows the widest kernel's live windows read, time last
        xt = columns.take(tokens[n, :min(span + widest - 1, length)], axis=1)
        for j in range(widest):
            # columns past length - j are never read: a kernel that
            # reads row j has fewer windows than that
            cols = min(span, width, length - j)
            taps[j, :, :cols] = xt[:, j:j + cols]
        for wb, depth, t_out, _, argmax, peak in pools:
            t = min(span, t_out)
            h = np.matmul(wb, windows[:depth, :t], out=flat[:len(wb) * t].reshape(len(wb), t))
            h.argmax(axis=1, out=argmax[n])
            peak[n] = h[np.arange(len(h)), argmax[n]]
    outputs = []
    for conv, (_, _, t_out, idle, argmax, peak) in zip(convs, pools):
        # samples with idle windows; one with none live still peaks at 0
        short = np.flatnonzero(spans < t_out)
        best = peak[short]
        wins = np.argmax((best, np.broadcast_to(idle, best.shape)), axis=0)
        rows, filters = wins.nonzero()
        samples = short[rows]
        argmax[samples, filters] = spans[samples]
        peak[samples, filters] = idle[filters]
        conv._tokens, conv._table, conv._argmax, conv._gate = tokens, table, argmax, peak > 0
        outputs.append(_keep_where(conv._gate, peak))
    return np.concatenate(outputs, axis=1)


def conv_max_pool_backward(convs, dout, embedding=None):
    """The backward of the last `conv_max_pool(convs, tokens, table)`,
    with dout [batch, sum of F] laid out as its output; returns nothing.

    Each filter's gradient, gated on a positive peak, flows through its
    peak window only: tap j of filter f in sample n reads the token at
    argmax[n, f] + j. So w[f, :, j] gains d[n, f] times that token's
    row, read from the copy of the table the forward kept, and b[f]
    gains d[n, f], as in a dense backward.

    No input gradient is formed. With `embedding`, the layer whose
    weight was the forward's table, per tap j the gated gradients are
    summed per (token, filter) in one histogram S[V, F], and the table's
    gradient then gains S @ w[:, :, j]. That is the dense
    dx[n, t] = sum of d[n, f] * w[f, :, j] over the windows reading
    row t, binned by token, with the sums taken in another order
    (within 1e-12 of it in the tests). The frozen padding row stays
    zero. A non-finite w[f, c, j] makes channel c of every row
    non-finite, where the dense path marks only the rows of the tokens
    its windows read; either way Adam refuses the step.
    """
    if embedding is not None:
        grad = embedding.grads["weight"]
    start = 0
    for conv in convs:
        if embedding is not None and len(grad) != len(conv._table):
            raise ShapeError(f"the forward read a table of {len(conv._table)} rows, "
                             f"the embedding has {len(grad)}")
        batch, length = conv._tokens.shape
        tokens = conv._tokens.reshape(-1)
        filters = conv.out_channels
        d = _keep_where(conv._gate, dout[:, start:start + filters])
        start += filters
        cells = np.arange(filters)
        # position read by tap 0 of filter f in sample n, flattened
        at = np.arange(batch)[:, None] * length + conv._argmax
        for j in range(conv.kernel):
            rows = tokens.take(at + j)
            conv.grads["w"][:, :, j] += np.einsum("bf,bfc->fc", d,
                                                  conv._table.take(rows, axis=0))
            if embedding is not None:
                hist = np.bincount((rows * filters + cells).ravel(),
                                   weights=d.ravel(), minlength=len(grad) * filters)
                grad += hist.reshape(len(grad), filters) @ conv.params["w"][:, :, j]
        conv.grads["b"] += d.sum(axis=0)
    if embedding is not None and embedding.frozen_padding:
        grad[0] = 0.0


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
        if mode == "train":
            if x.shape[0] < 2:
                raise ShapeError("batch norm needs batch size >= 2 in train mode")
            mean = x.mean(axis=0)
            centered = x - mean
            # biased variance, summed and divided exactly as np.var does
            var = (centered * centered).sum(axis=0) / x.shape[0]
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
