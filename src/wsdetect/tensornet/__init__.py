"""Minimal dense neural-network core (float64, CPU) for the two detectors.

Implements exactly the layer set the detection models need: embeddings,
one fused 1-D convolution -> global max pooling -> ReLU layer that reads
token ids and the embedding table, whose kernel widths share one window
matrix per sample and whose backward scatters straight into the
embedding table, ReLU, dense layers, batch norm, dropout. Backward passes are written out by
hand and validated against central finite differences (see
`grad_check`).
"""

from wsdetect.tensornet.layers import (
    BatchNorm1d,
    ConvMaxPool,
    Dense,
    Dropout,
    Embedding,
    ReLU,
    conv_max_pool,
    conv_max_pool_backward,
)
from wsdetect.tensornet.losses import (
    DECISION_THRESHOLD,
    ClassWeights,
    SoftmaxCrossEntropy,
    class_weights,
    cross_entropy,
    softmax,
)
from wsdetect.tensornet.optim import AdamState, adam_step
from wsdetect.tensornet.graph import (
    FlatParams,
    ModelGraph,
    load_model,
    save_model,
)
from wsdetect.tensornet.train import FitHistory, fit, grad_check

__all__ = [
    "AdamState",
    "BatchNorm1d",
    "ClassWeights",
    "ConvMaxPool",
    "DECISION_THRESHOLD",
    "Dense",
    "Dropout",
    "Embedding",
    "FitHistory",
    "FlatParams",
    "ModelGraph",
    "ReLU",
    "SoftmaxCrossEntropy",
    "adam_step",
    "class_weights",
    "conv_max_pool",
    "conv_max_pool_backward",
    "cross_entropy",
    "fit",
    "grad_check",
    "load_model",
    "save_model",
    "softmax",
]
