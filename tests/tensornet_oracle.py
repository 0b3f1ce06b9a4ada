"""The tensornet training step as it was before the flat parameter
buffer, kept as a test oracle.

Adam runs per named array with dict moments; every gradient array is
re-allocated on each step; ReLU and `ConvMaxPool` select with
`np.where`; batch norm takes `x.var` and `x - mean` in separate passes.
`fit` trains a model with this code swapped in for the current one, so
a test can require both to agree bit for bit.
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


def layer_zero_grads(self):
    for name, p in self.params.items():
        self.grads[name] = np.zeros_like(p)


def model_zero_grads(self):
    for _, layer in self._layers:
        layer.zero_grads()


def relu_forward(self, x, mode="eval", rng=None):
    self._mask = x > 0
    return np.where(self._mask, x, 0.0)


def batchnorm_forward(self, x, mode="eval", rng=None):
    x = np.asarray(x, dtype=np.float64)
    if mode in ("train", "gradcheck"):
        if x.shape[0] < 2:
            raise layers.ShapeError("batch norm needs batch size >= 2 in train mode")
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        if mode == "train":
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


def where_select(mask, x):
    return np.where(mask, x, 0.0)


_SWAPS = ((layers.Layer, "zero_grads", layer_zero_grads),
          (graph.ModelGraph, "zero_grads", model_zero_grads),
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
                adam_step(opt, model.parameters(), model.gradients())
                total_loss += loss * len(idx)
                correct += int((probs.argmax(axis=1) == batch_labels).sum())
                seen += len(idx)
            history.append((total_loss / seen, correct / seen))
        return history
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
