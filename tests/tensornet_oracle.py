"""The tensornet training step as it was before the flat parameter
buffer, three earlier `ConvMaxPool` forwards, the dense-gradient CNN
backward and the scatter backward over an embedded input, kept as test
oracles.

Adam runs per named array with dict moments; every gradient array is
re-allocated on each step; ReLU and `ConvMaxPool` select with
`np.where`; batch norm takes `x.var` and `x - mean` in separate passes.
`fit` trains a model with this code swapped in for the current one, so
a test can require both to agree bit for bit.

`conv_max_pool_forward` multiplies out every window of every sample,
padding included. `conv_max_pool_live_forward` is the per-layer forward
as it was before the kernel widths shared one window matrix: each layer
scans the padding, copies its own windows, multiplies out the live ones
and then adds its bias in a separate pass. `tests/test_tensornet_oracle.py`
compares `tensornet.conv_max_pool` with both.

`embedded_conv_dense_backward` is the CNN backward as it was before
`tensornet.conv_max_pool_backward` scattered into the embedding table:
each layer builds a dense dx[batch, L, C] with one histogram per sample,
the layers' dx are summed, and `Embedding.backward` bins the sum by
token.

`lookup_conv_max_pool` and `lookup_conv_max_pool_backward` are the
shared forward and the scatter backward as they were before the forward
read token ids: `Embedding.forward` builds the [batch, L, C] lookup, the
window matrices are copied from it, and the backward reads the rows of
its peak windows from it. `tests/test_tensornet_oracle.py` holds the
token forward and backward to them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from wsdetect.tensornet import graph, layers
from wsdetect.tensornet.losses import ClassWeights, SoftmaxCrossEntropy
from wsdetect.tensornet.train import _num_rows, _slice_inputs


@dataclass
class AdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: AdamState, params: dict, grads: dict) -> AdamState:
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for parameter {name!r}")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = grads[name]
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / bias1
        v_hat = v / bias2
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return state


def layer_gradients(model) -> dict:
    """Each layer's gradient arrays by model name: those `model_zero_grads`
    allocated, not the model's flat gradient buffer."""
    return {f"{name}.{key}": grad for name, layer in model._layers
            for key, grad in layer.grads.items()}


def model_zero_grads(self):
    for _, layer in self._layers:
        for name, p in layer.params.items():
            layer.grads[name] = np.zeros_like(p)


def relu_forward(self, x, mode="eval", rng=None):
    self._mask = x > 0
    return np.where(self._mask, x, 0.0)


def batchnorm_forward(self, x, mode="eval", rng=None):
    x = np.asarray(x, dtype=np.float64)
    if mode == "train":
        if x.shape[0] < 2:
            raise layers.ShapeError("batch norm needs batch size >= 2 in train mode")
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        m = self.momentum
        self.buffers["running_mean"] = (
            (1 - m) * self.buffers["running_mean"] + m * mean)
        self.buffers["running_var"] = (
            (1 - m) * self.buffers["running_var"] + m * var)
    else:
        mean = self.buffers["running_mean"]
        var = self.buffers["running_var"]
    inv_std = 1.0 / np.sqrt(var + self.eps)
    xhat = (x - mean) * inv_std
    self._cache = (xhat, inv_std, mode)
    return self.params["gamma"] * xhat + self.params["beta"]


def conv_max_pool_forward(self, x, mode="eval", rng=None):
    x = np.asarray(x, dtype=np.float64)
    batch, length, channels = x.shape
    k = self.kernel
    if channels != self.in_channels:
        raise layers.ShapeError(f"expected {self.in_channels} channels, got {channels}")
    if length < k:
        raise layers.ShapeError(f"input length {length} shorter than kernel {k}")
    t_out = length - k + 1
    w_flat = self.params["w"].transpose(0, 2, 1).reshape(self.out_channels,
                                                         k * channels)
    b = self.params["b"][:, None]
    argmax = np.empty((batch, self.out_channels), dtype=np.intp)
    peak = np.empty((batch, self.out_channels))
    filters = np.arange(self.out_channels)
    for n in range(batch):
        xt = x[n].T
        cols = np.concatenate([xt[:, j:j + t_out] for j in range(k)])
        h = w_flat @ cols
        h += b
        argmax[n] = h.argmax(axis=1)
        peak[n] = h[filters, argmax[n]]
    self._x, self._argmax, self._gate = x, argmax, peak > 0
    return np.where(self._gate, peak, 0.0)


def conv_max_pool_live_forward(self, x, mode="eval", rng=None):
    x = np.asarray(x, dtype=np.float64)
    batch, length, channels = x.shape
    k = self.kernel
    if channels != self.in_channels:
        raise layers.ShapeError(f"expected {self.in_channels} channels, got {channels}")
    if length < k:
        raise layers.ShapeError(f"input length {length} shorter than kernel {k}")
    t_out = length - k + 1
    w_flat = self.params["w"].transpose(0, 2, 1).reshape(self.out_channels,
                                                         k * channels)
    b = self.params["b"]
    idle = w_flat @ np.zeros(k * channels) + b
    nonzero = x.any(axis=2)
    live = np.minimum(length - nonzero[:, ::-1].argmax(axis=1), t_out) \
        * nonzero.any(axis=1)
    argmax = np.zeros((batch, self.out_channels), dtype=np.intp)
    peak = np.tile(idle, (batch, 1))
    filters = np.arange(self.out_channels)
    for n, t in enumerate(live.tolist()):
        if not t:
            continue
        xt = x[n, :t + k - 1].T
        cols = np.concatenate([xt[:, j:j + t] for j in range(k)])
        h = w_flat @ cols
        h += b[:, None]
        argmax[n] = h.argmax(axis=1)
        peak[n] = h[filters, argmax[n]]
        if t < t_out:
            wins = np.argmax((peak[n], idle), axis=0).astype(bool)
            argmax[n, wins] = t
            peak[n, wins] = idle[wins]
    self._x, self._argmax, self._gate = x, argmax, peak > 0
    return np.where(self._gate, peak, 0.0)


def conv_max_pool_dense_backward(self, dout):
    x, argmax = self._x, self._argmax
    d = layers._keep_where(self._gate, dout)
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


def embedded_conv_dense_backward(convs, dout, embedding):
    """The backward of `conv_max_pool(convs, embedding.forward(tokens))`
    through a dense input gradient."""
    douts = np.split(dout, np.cumsum([c.out_channels for c in convs])[:-1], axis=1)
    embedding.backward(sum(conv_max_pool_dense_backward(conv, d)
                           for conv, d in zip(convs, douts)))


def lookup_conv_max_pool(convs, x):
    """`tensornet.conv_max_pool` over an embedded input x[batch, L, C],
    as it was before it read token ids. Each layer keeps x, its argmax
    and its gates."""
    x = np.asarray(x, dtype=np.float64)
    batch, length, channels = x.shape
    for conv in convs:
        if channels != conv.in_channels:
            raise layers.ShapeError(f"expected {conv.in_channels} channels, got {channels}")
        if length < conv.kernel:
            raise layers.ShapeError(f"input length {length} shorter than kernel {conv.kernel}")
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
        outputs.append(layers._keep_where(conv._gate, peak))
    return np.concatenate(outputs, axis=1)


def lookup_conv_max_pool_backward(convs, dout, embedding=None):
    """The backward of the last `lookup_conv_max_pool(convs, x)`: w
    gradients from the rows of x, and, when x is `embedding`'s lookup
    of the tokens it last saw, the scatter into its table."""
    if embedding is not None:
        tokens = embedding._x.reshape(-1)
        table = embedding.grads["weight"]
    start = 0
    for conv in convs:
        batch, length, channels = conv._x.shape
        x = conv._x.reshape(-1, channels)
        filters = conv.out_channels
        d = layers._keep_where(conv._gate, dout[:, start:start + filters])
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


def where_select(mask, x):
    return np.where(mask, x, 0.0)


_SWAPS = ((graph.ModelGraph, "zero_grads", model_zero_grads),
          (layers.ReLU, "forward", relu_forward),
          (layers.BatchNorm1d, "forward", batchnorm_forward),
          (layers, "_keep_where", where_select))


def fit(model, inputs, labels, *, epochs: int, batch_size: int,
        learning_rate: float, seed: int = 0,
        weights: ClassWeights | None = None) -> list[tuple[float, float]]:
    """The training loop of `tensornet.fit` on the oracle code; returns
    (loss, accuracy) per epoch."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in _SWAPS]
    for owner, name, oracle in _SWAPS:
        setattr(owner, name, oracle)
    try:
        labels = np.asarray(labels, dtype=np.intp)
        n = _num_rows(inputs)
        rng = np.random.default_rng(seed)
        head = SoftmaxCrossEntropy(weights)
        opt = AdamState(lr=learning_rate)
        history = []
        for _ in range(epochs):
            order = rng.permutation(n)
            total_loss = 0.0
            correct = 0
            seen = 0
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                if len(idx) == 1 and start > 0:
                    continue
                batch_labels = labels[idx]
                model.zero_grads()
                logits = model.forward(_slice_inputs(inputs, idx), mode="train", rng=rng)
                loss, probs = head.forward(logits, batch_labels)
                model.backward(head.backward())
                adam_step(opt, model.parameters(), layer_gradients(model))
                total_loss += loss * len(idx)
                correct += int((probs.argmax(axis=1) == batch_labels).sum())
                seen += len(idx)
            history.append((total_loss / seen, correct / seen))
        return history
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
