"""Softmax, cross-entropy, the imbalance class weighting and the
decision threshold both detectors share."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROB_FLOOR = 1e-12  # clamp before log; the loss is undefined at p = 0
# both detectors call a row Webshell (class 1) when p_webshell >= this;
# an exact tie goes to Webshell, the security-conservative side
DECISION_THRESHOLD = 0.5


def softmax(logits):
    """Row-wise stabilized softmax; each row sums to 1."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError("softmax requires finite logits")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class ClassWeights:
    """Per-class loss weights; benign is class 0, webshell class 1."""

    benign: float
    webshell: float

    def __post_init__(self):
        if self.benign <= 0 or self.webshell <= 0:
            raise ValueError("class weights must be positive")

    def as_array(self):
        return np.array([self.benign, self.webshell])


def class_weights(n_benign: int, n_webshell: int) -> ClassWeights:
    """Balancing weights w_c = (nB + nW) / (2 * n_c).

    Undefined when either class is empty. Satisfies
    nB*wB + nW*wW == nB + nW.
    """
    if n_benign < 1 or n_webshell < 1:
        raise ValueError("class weighting needs at least one sample per class")
    total = float(n_benign + n_webshell)
    return ClassWeights(benign=total / (2.0 * n_benign),
                        webshell=total / (2.0 * n_webshell))


def cross_entropy(probabilities, labels, weights: ClassWeights | None = None) -> float:
    """Mean negative log-probability of the true class.

    With weights, each sample's term is multiplied by its class weight
    before the mean over the batch is taken.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if probs.ndim != 2:
        raise ValueError("probabilities must be [batch, classes]")
    picked = np.clip(probs[np.arange(len(labels)), labels], PROB_FLOOR, None)
    terms = -np.log(picked)
    if weights is not None:
        terms = terms * weights.as_array()[labels]
    return float(terms.mean())


class SoftmaxCrossEntropy:
    """Fused softmax + cross-entropy head used during training.

    d loss / d logits == (softmax(logits) - one_hot(labels)) * w / batch.
    """

    def __init__(self, weights: ClassWeights | None = None):
        self.weights = weights

    def forward(self, logits, labels):
        self._probs = softmax(logits)
        self._labels = np.asarray(labels, dtype=np.intp)
        loss = cross_entropy(self._probs, self._labels, self.weights)
        return loss, self._probs

    def backward(self):
        batch = len(self._labels)
        dlogits = self._probs.copy()
        dlogits[np.arange(batch), self._labels] -= 1.0
        if self.weights is not None:
            dlogits *= self.weights.as_array()[self._labels][:, None]
        return dlogits / batch
