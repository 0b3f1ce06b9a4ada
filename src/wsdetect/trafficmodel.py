"""Tabular DNN over flow features: categorical embeddings + 77
z-scored continuous inputs -> [400, 100] hidden blocks -> 2 classes.

Training data imbalance is handled by the class-weighted loss
(`tensornet.class_weights`); the weights come from the training split
only, as do the normalization statistics and categorical vocabularies.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

from wsdetect import tensornet as tn
from wsdetect.evalkit import (
    ConfusionMatrix,
    auc_score,
    confusion_from_predictions,
    metrics,
    stratified_folds,
)
from wsdetect.flowmeter import CATEGORICAL_NAMES, CONTINUOUS_NAMES, FlowTable


class TrafficModelError(Exception):
    pass


@dataclass(frozen=True)
class FeatureSchema:
    continuous: tuple[str, ...] = CONTINUOUS_NAMES
    categorical: tuple[str, ...] = CATEGORICAL_NAMES

    @property
    def content_hash(self) -> str:
        joined = "\x1f".join(self.categorical) + "\x1e" + "\x1f".join(self.continuous)
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()


CANONICAL_SCHEMA = FeatureSchema()


def default_embedding_dim(cardinality: int) -> int:
    """Dimension heuristic min(600, round(1.6 * c^0.56))."""
    return int(min(600, round(1.6 * cardinality ** 0.56)))


@dataclass(frozen=True)
class TabularConfig:
    hidden: tuple[int, int] = (400, 100)
    learning_rate: float = 0.003
    batch_size: int = 64
    epochs: int = 2
    weighted: bool = False
    embedding_dims: tuple[int, int] | None = None  # None -> heuristic
    seed: int = 0

    def __post_init__(self):
        if any(h < 1 for h in self.hidden):
            raise TrafficModelError("hidden widths must be positive")
        if self.embedding_dims is not None and any(
                d < 1 for d in self.embedding_dims):
            raise TrafficModelError("embedding dims must be >= 1")


@dataclass
class TabularDataset:
    """Raw categorical values, raw continuous values and labels."""

    categoricals: np.ndarray  # [n, 2] ints (Dst Port, Protocol)
    continuous: np.ndarray    # [n, 77] floats
    labels: np.ndarray        # [n] ints in {0, 1}
    schema: FeatureSchema = field(default_factory=FeatureSchema)

    def __post_init__(self):
        self.categoricals = np.asarray(self.categoricals, dtype=np.int64)
        self.continuous = np.asarray(self.continuous, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.intp)
        n = len(self.labels)
        if self.categoricals.shape != (n, len(self.schema.categorical)):
            raise TrafficModelError("categorical matrix shape mismatch")
        if self.continuous.shape != (n, len(self.schema.continuous)):
            raise TrafficModelError("continuous matrix shape mismatch")

    def __len__(self):
        return len(self.labels)

    def subset(self, indices) -> "TabularDataset":
        idx = np.asarray(indices)
        if idx.dtype == bool:
            idx = np.where(idx)[0]
        idx = idx.astype(np.intp)
        return TabularDataset(self.categoricals[idx], self.continuous[idx],
                              self.labels[idx], schema=self.schema)

    @classmethod
    def from_records(cls, tables: list[FlowTable], labels) -> "TabularDataset":
        """The tables' rows, one after another. Kept only for
        `bench/prepare.py`, until the benchmark change that moves `bench/`
        off it."""
        return cls(np.concatenate([t.categoricals for t in tables]),
                   np.concatenate([t.continuous for t in tables]), labels)


class TabularDnn(tn.ModelGraph):
    kind = "tabular_dnn"

    def __init__(self, config: TabularConfig, cat_vocabs: list[dict[int, int]],
                 norm_mean: np.ndarray, norm_scale: np.ndarray,
                 schema_hash: str = CANONICAL_SCHEMA.content_hash):
        super().__init__()
        self.config = config
        self.cat_vocabs = cat_vocabs  # raw value -> index >= 1; 0 = unknown
        # each vocabulary as its sorted keys and their indices
        self._vocab_lookup = [
            (np.array(sorted(vocab), np.int64),
             np.array([vocab[k] for k in sorted(vocab)], np.intp))
            for vocab in cat_vocabs]
        self.schema_hash = schema_hash
        rng = np.random.default_rng(config.seed)

        n_cont = len(norm_mean)
        dims = config.embedding_dims or tuple(
            default_embedding_dim(len(v)) for v in cat_vocabs)
        self.embedding_dims = dims
        self.embeddings = []
        for i, (vocab, dim) in enumerate(zip(cat_vocabs, dims)):
            # index 0 is the learnable "unknown" row, not frozen padding
            emb = self.add_layer(f"embed{i}", tn.Embedding(
                len(vocab) + 1, dim, rng, frozen_padding=False))
            self.embeddings.append(emb)

        input_width = n_cont + sum(dims)
        h1, h2 = config.hidden
        self.dense1 = self.add_layer("dense1", tn.Dense(input_width, h1, rng))
        self.relu1 = self.add_layer("relu1", tn.ReLU())
        self.bn1 = self.add_layer("bn1", tn.BatchNorm1d(h1))
        self.dense2 = self.add_layer("dense2", tn.Dense(h1, h2, rng))
        self.relu2 = self.add_layer("relu2", tn.ReLU())
        self.bn2 = self.add_layer("bn2", tn.BatchNorm1d(h2))
        self.head = self.add_layer("head", tn.Dense(h2, 2, rng))
        self.input_width = input_width

        # normalization statistics travel in the checkpoint header
        self.norm_mean = np.asarray(norm_mean, dtype=np.float64)
        self.norm_scale = np.asarray(norm_scale, dtype=np.float64)

    # --- input preparation --------------------------------------------

    def map_categorical(self, raw: np.ndarray) -> np.ndarray:
        """Each raw value's vocabulary index, 0 for a value not in it."""
        raw = np.asarray(raw, np.int64)
        idx = np.zeros(raw.shape, np.intp)
        for col, (keys, index) in enumerate(self._vocab_lookup):
            if len(keys):
                pos = np.minimum(np.searchsorted(keys, raw[:, col]), len(keys) - 1)
                idx[:, col] = np.where(keys[pos] == raw[:, col], index[pos], 0)
        return idx

    def normalize(self, cont: np.ndarray) -> np.ndarray:
        return (np.asarray(cont, dtype=np.float64) - self.norm_mean) / self.norm_scale

    def prepare(self, dataset: TabularDataset) -> tuple[np.ndarray, np.ndarray]:
        if dataset.schema.content_hash != self.schema_hash:
            raise TrafficModelError("feature schema does not match the model")
        return (self.map_categorical(dataset.categoricals),
                self.normalize(dataset.continuous))

    # --- graph ---------------------------------------------------------

    def forward(self, inputs, mode="eval", rng=None):
        cat_idx, cont = inputs
        parts = [emb.forward(cat_idx[:, i], mode, rng)
                 for i, emb in enumerate(self.embeddings)]
        parts.append(np.asarray(cont, dtype=np.float64))
        x = np.concatenate(parts, axis=1)
        x = self.bn1.forward(self.relu1.forward(
            self.dense1.forward(x, mode, rng), mode, rng), mode, rng)
        x = self.bn2.forward(self.relu2.forward(
            self.dense2.forward(x, mode, rng), mode, rng), mode, rng)
        return self.head.forward(x, mode, rng)

    def backward(self, dlogits):
        dx = self.head.backward(dlogits)
        dx = self.dense2.backward(self.relu2.backward(self.bn2.backward(dx)))
        dx = self.dense1.backward(self.relu1.backward(self.bn1.backward(dx)))
        offset = 0
        for emb, dim in zip(self.embeddings, self.embedding_dims):
            emb.backward(dx[:, offset:offset + dim])
            offset += dim
        # the continuous slice is input, not a parameter

    # --- checkpointing ---------------------------------------------------

    def config_header(self) -> dict:
        cfg = self.config
        return {
            "hidden": list(cfg.hidden), "learning_rate": cfg.learning_rate,
            "batch_size": cfg.batch_size, "epochs": cfg.epochs,
            "weighted": cfg.weighted, "seed": cfg.seed,
            "embedding_dims": list(self.embedding_dims),
            "cat_vocabs": [{str(k): v for k, v in vocab.items()}
                           for vocab in self.cat_vocabs],
            "norm_mean": self.norm_mean.tolist(),
            "norm_scale": self.norm_scale.tolist(),
            "schema_hash": self.schema_hash,
        }

    @classmethod
    def from_config(cls, header: dict) -> "TabularDnn":
        config = TabularConfig(
            hidden=tuple(header["hidden"]),
            learning_rate=header["learning_rate"],
            batch_size=header["batch_size"], epochs=header["epochs"],
            weighted=header["weighted"],
            embedding_dims=tuple(header["embedding_dims"]),
            seed=header["seed"])
        cat_vocabs = [{int(k): v for k, v in vocab.items()}
                      for vocab in header["cat_vocabs"]]
        return cls(config, cat_vocabs,
                   np.asarray(header["norm_mean"]),
                   np.asarray(header["norm_scale"]),
                   schema_hash=header["schema_hash"])


def build_dnn(config: TabularConfig, train: TabularDataset) -> TabularDnn:
    """Construct the model with vocabularies and normalization statistics
    taken from the given training data."""
    cat_vocabs = []
    for col in range(train.categoricals.shape[1]):
        values = np.unique(train.categoricals[:, col]).tolist()  # sorted Python ints
        cat_vocabs.append({v: i + 1 for i, v in enumerate(values)})
    mean = train.continuous.mean(axis=0)
    std = train.continuous.std(axis=0, ddof=0)
    scale = np.where(std > 0, std, 1.0)  # constant features pass centered
    return TabularDnn(config, cat_vocabs, mean, scale,
                      schema_hash=train.schema.content_hash)


def train_dnn(train: TabularDataset, config: TabularConfig,
              ) -> tuple[TabularDnn, tn.FitHistory]:
    """Build and fit; with `config.weighted` the loss uses the balancing
    class weights computed from this training split."""
    if len(train) == 0:
        # before build_dnn, whose statistics of no rows are NaN
        raise TrafficModelError("cannot fit on an empty dataset")
    weights = None
    if config.weighted:
        n_benign = int((train.labels == 0).sum())
        n_webshell = int((train.labels == 1).sum())
        if n_benign == 0 or n_webshell == 0:
            raise TrafficModelError(
                "weighted training needs both classes present")
        weights = tn.class_weights(n_benign, n_webshell)
    model = build_dnn(config, train)
    prepared = model.prepare(train)
    history = tn.fit(model, prepared, train.labels,
                     epochs=config.epochs, batch_size=config.batch_size,
                     learning_rate=config.learning_rate, seed=config.seed,
                     weights=weights)
    return model, history


def dnn_predict(model: TabularDnn, dataset: TabularDataset,
                ) -> tuple[np.ndarray, np.ndarray]:
    """Per-row class probabilities and classes (0 benign, 1 webshell); a
    row is webshell when its p_webshell reaches `tn.DECISION_THRESHOLD`."""
    prepared = model.prepare(dataset)
    probs = tn.softmax(model.forward(prepared, mode="eval"))
    return probs, (probs[:, 1] >= tn.DECISION_THRESHOLD).astype(np.intp)


@dataclass
class FoldMetrics:
    fold: int
    confusion: ConfusionMatrix
    accuracy: float
    precision: float
    recall: float
    f1: float
    fpr: float
    auc: float
    seconds: float

    def as_dict(self) -> dict:
        return {"fold": self.fold, "accuracy": round(self.accuracy, 2),
                "precision": round(self.precision, 2),
                "recall": round(self.recall, 2), "f1": round(self.f1, 2),
                "fpr": round(self.fpr, 2), "auc": round(self.auc, 2),
                "seconds": round(self.seconds, 3)}


@dataclass
class CvReport:
    folds: list[FoldMetrics]
    averages: dict[str, float]


def kfold_cv(dataset: TabularDataset, k: int, config: TabularConfig,
             seed: int = 0) -> CvReport:
    """Stratified k-fold cross-validation with a fresh model per fold."""
    folds = stratified_folds(dataset.labels, k, seed=seed)
    all_idx = set(range(len(dataset)))
    results: list[FoldMetrics] = []
    for fold_no, held in enumerate(folds):
        train_idx = sorted(all_idx.difference(held))
        start = time.perf_counter()
        model, _ = train_dnn(dataset.subset(train_idx),
                             replace(config, seed=config.seed + fold_no))
        test = dataset.subset(held)
        probs, predicted = dnn_predict(model, test)
        elapsed = time.perf_counter() - start
        cm = confusion_from_predictions(test.labels, predicted)
        panel = metrics(cm)
        try:
            auc = 100.0 * auc_score(test.labels, probs[:, 1])
        except Exception:
            auc = 0.0
        results.append(FoldMetrics(
            fold=fold_no + 1, confusion=cm, accuracy=panel.accuracy,
            precision=panel.precision, recall=panel.recall, f1=panel.f1,
            fpr=panel.fpr, auc=auc, seconds=elapsed))
    keys = ("accuracy", "precision", "recall", "f1", "fpr", "auc", "seconds")
    averages = {key: sum(getattr(r, key) for r in results) / len(results)
                for key in keys}
    return CvReport(folds=results, averages=averages)
