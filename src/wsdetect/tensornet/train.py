"""The training loop: Adam on softmax cross-entropy, one seeded generator."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from wsdetect.tensornet.graph import ModelGraph
from wsdetect.tensornet.losses import ClassWeights, SoftmaxCrossEntropy
from wsdetect.tensornet.optim import AdamState, adam_step


@dataclass
class EpochStats:
    epoch: int
    loss: float
    accuracy: float
    seconds: float  # wall time of the epoch
    samples_per_s: float  # samples trained on per second of the epoch


@dataclass
class FitHistory:
    epochs: list[EpochStats] = field(default_factory=list)

    def __len__(self):
        return len(self.epochs)

    @property
    def seconds(self) -> float:
        return sum(e.seconds for e in self.epochs)


def _slice_inputs(inputs, idx):
    if isinstance(inputs, tuple):
        return tuple(part[idx] for part in inputs)
    return inputs[idx]


def _num_rows(inputs) -> int:
    if isinstance(inputs, tuple):
        return len(inputs[0])
    return len(inputs)


def fit(model: ModelGraph, inputs, labels, *, epochs: int, batch_size: int,
        learning_rate: float, seed: int = 0,
        weights: ClassWeights | None = None) -> FitHistory:
    """Adam + softmax cross-entropy training, deterministic per seed.

    `inputs` is one array or a tuple of arrays sharing their first axis;
    `labels` are 0/1 ints. Shuffling, dropout masks and everything else
    stochastic comes from one seeded generator.
    """
    labels = np.asarray(labels, dtype=np.intp)
    n = _num_rows(inputs)
    if n == 0:
        raise ValueError("cannot fit on an empty dataset")
    if len(labels) != n:
        raise ValueError("inputs and labels disagree on length")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")

    rng = np.random.default_rng(seed)
    head = SoftmaxCrossEntropy(weights)
    opt = AdamState(lr=learning_rate)
    flat = model.flat()
    history = FitHistory()

    for epoch in range(epochs):
        started = time.perf_counter()
        order = rng.permutation(n)
        total_loss = 0.0
        correct = 0
        seen = 0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            if len(idx) == 1 and start > 0:
                # a trailing single sample cannot batch-normalize; it
                # rejoins a full batch on the next shuffle
                continue
            batch_in = _slice_inputs(inputs, idx)
            batch_labels = labels[idx]
            model.zero_grads()
            logits = model.forward(batch_in, mode="train", rng=rng)
            loss, probs = head.forward(logits, batch_labels)
            model.backward(head.backward())
            adam_step(opt, flat)
            total_loss += loss * len(idx)
            correct += int((probs.argmax(axis=1) == batch_labels).sum())
            seen += len(idx)
        seconds = time.perf_counter() - started
        history.epochs.append(EpochStats(
            epoch=epoch, loss=total_loss / seen, accuracy=correct / seen,
            seconds=seconds, samples_per_s=seen / seconds))
    return history
