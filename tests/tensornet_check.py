"""Checks of tensornet's hand-written backward passes that the runtime
does not need: the central-difference gradient check, the convolution
over a dense input x[batch, L, C] that the layer tests drive, and a
model's named views into its flat gradient buffer.
"""

from __future__ import annotations

import numpy as np

from wsdetect import tensornet as tn


def conv_over_rows(convs, x):
    """`tn.conv_max_pool` of `convs` over x[batch, L, C]: x's rows are
    the table, and each sample's token ids are its own positions in it.
    `tn.conv_max_pool_backward(convs, dout)` is its backward."""
    batch, length, channels = np.shape(x)
    positions = np.arange(batch * length).reshape(batch, length)
    return tn.conv_max_pool(convs, positions, np.reshape(x, (-1, channels)))


def gradients(model: tn.ModelGraph) -> dict[str, np.ndarray]:
    """`model`'s gradient arrays by name, as views into its flat
    gradient buffer."""
    flat = model.flat()
    return flat.views(flat.grads)


def grad_check(model: tn.ModelGraph, inputs, labels, *, h: float = 1e-5,
               weights: tn.ClassWeights | None = None) -> float:
    """Max relative error between analytic and central-difference grads.

    Every forward runs in train mode, as `tn.fit` runs it, with a fresh
    generator of seed 0: dropout draws the same mask on every probe
    and batch norm normalizes by the batch's own statistics, so each
    probe evaluates the same function. Row 0 of the weight of an
    `Embedding` with frozen padding is pinned at zero and is skipped.
    """
    labels = np.asarray(labels, dtype=np.intp)
    head = tn.SoftmaxCrossEntropy(weights)

    def loss():
        logits = model.forward(inputs, mode="train", rng=np.random.default_rng(0))
        return head.forward(logits, labels)[0]

    model.zero_grads()
    loss()
    model.backward(head.backward())
    analytic = {name: g.copy() for name, g in gradients(model).items()}
    # flat entries of each frozen padding row: the first `dim` of its table
    frozen = {f"{name}.weight": layer.dim for name, layer in model._layers
              if isinstance(layer, tn.Embedding) and layer.frozen_padding}

    worst = 0.0
    for name, p in model.parameters().items():
        flat = p.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for i in range(frozen.get(name, 0), flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss()
            flat[i] = keep - h
            down = loss()
            flat[i] = keep
            numeric = (up - down) / (2.0 * h)
            a = a_flat[i]
            err = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-3)
            worst = max(worst, err)
    return worst
