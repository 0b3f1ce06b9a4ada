"""Opcode-sequence CNN and the hybrid source-file detector.

Detection order is fixed: signature rules first, and only files with no
rule match reach the CNN. A trained model never changes the verdict on
a rule-matching file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wsdetect import tensornet as tn
from wsdetect.opcode import OciVector, OpcodeVocabulary, dump_vector
from wsdetect.rulelang import CompiledRuleSet, RuleSet, match_buffer


class SrcModelError(Exception):
    pass


@dataclass(frozen=True)
class CnnConfig:
    """Tuned hyperparameters of the opcode CNN.

    PHP defaults; the ASP.NET preset differs in kernel sizes, batch size
    and epochs (see `for_language`).
    """

    vocab_size: int
    max_length: int
    embedding_dim: int = 8
    kernel_sizes: tuple[int, int, int] = (3, 4, 5)
    num_filters: int = 128
    dropout_rate: float = 0.5
    learning_rate: float = 0.001
    batch_size: int = 96
    epochs: int = 64
    seed: int = 0

    def __post_init__(self):
        k = self.kernel_sizes
        if len(k) != 3 or not (k[1] == k[0] + 1 and k[2] == k[0] + 2):
            raise SrcModelError(
                "kernel_sizes must be a consecutive triple [x, x+1, x+2]")
        if max(k) > self.max_length:
            raise SrcModelError("kernel size exceeds max_length")
        if self.vocab_size < 1 or self.max_length < 1:
            raise SrcModelError("vocab_size and max_length must be positive")

    @classmethod
    def php(cls, vocab_size: int, max_length: int, **overrides) -> "CnnConfig":
        return cls(vocab_size=vocab_size, max_length=max_length, **overrides)

    @classmethod
    def for_language(cls, language: str, vocab_size: int, max_length: int,
                     **overrides) -> "CnnConfig":
        """The preset of an opcode language: `php` for any but CIL, whose
        ASP.NET preset differs in kernel sizes, batch size and epochs."""
        if language == "cil":
            overrides = {"kernel_sizes": (4, 5, 6), "batch_size": 64, "epochs": 32,
                         **overrides}
        return cls(vocab_size=vocab_size, max_length=max_length, **overrides)


class OpcodeCnn(tn.ModelGraph):
    """Embedding -> three ConvMaxPool layers (conv -> max over time ->
    ReLU), one per kernel width, run as one `conv_max_pool` forward and
    concatenated -> dropout -> dense -> 2 logits.

    The forward hands the token ids and the embedding table to
    `conv_max_pool`, which gathers each sample's windows straight from
    the table: no [batch, L, C] lookup is formed. It refuses ids that
    are not integers or lie outside the table, and vectors of another
    length, before any product. The backward forms no gradient of the
    embedded input: one `conv_max_pool_backward` fills the conv
    gradients and scatters each filter's peak gradient straight into the
    embedding table, one histogram of (token, filter) per kernel tap."""

    kind = "opcode_cnn"

    def __init__(self, config: CnnConfig, language: str = "custom",
                 vocab_hash: str = ""):
        super().__init__()
        self.config = config
        self.language = language
        self.vocab_hash = vocab_hash
        rng = np.random.default_rng(config.seed)
        # index 0 is padding and stays a zero vector
        self.embedding = self.add_layer("embedding", tn.Embedding(
            config.vocab_size + 1, config.embedding_dim, rng,
            frozen_padding=True))
        self.convs = [
            self.add_layer(f"conv{i}", tn.ConvMaxPool(
                config.embedding_dim, config.num_filters, k, rng))
            for i, k in enumerate(config.kernel_sizes)]
        self.dropout = self.add_layer("dropout", tn.Dropout(config.dropout_rate))
        concat_width = 3 * config.num_filters
        self.dense = self.add_layer("dense", tn.Dense(concat_width, 2, rng))
        self.concat_width = concat_width

    def forward(self, x, mode="eval", rng=None):
        x = np.asarray(x)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.config.max_length:
            raise SrcModelError(
                f"expected vectors of length {self.config.max_length}, "
                f"got shape {x.shape}")
        merged = tn.conv_max_pool(self.convs, x, self.embedding.params["weight"])
        dropped = self.dropout.forward(merged, mode, rng)
        if mode == "train":
            return self.dense.forward(dropped, mode, rng)
        # numpy takes another BLAS path for a one-row head product than
        # for a batch: one product per row keeps each row's logits those
        # of its one-row forward, whatever it is scored with
        logits = np.empty((len(dropped), 2))
        for n in range(len(dropped)):
            logits[n] = self.dense.forward(dropped[n:n + 1], mode)[0]
        return logits

    def backward(self, dlogits):
        d_merged = self.dropout.backward(self.dense.backward(dlogits))
        tn.conv_max_pool_backward(self.convs, d_merged, self.embedding)

    def config_header(self) -> dict:
        cfg = self.config
        return {
            "vocab_size": cfg.vocab_size, "max_length": cfg.max_length,
            "embedding_dim": cfg.embedding_dim,
            "kernel_sizes": list(cfg.kernel_sizes),
            "num_filters": cfg.num_filters, "dropout_rate": cfg.dropout_rate,
            "learning_rate": cfg.learning_rate, "batch_size": cfg.batch_size,
            "epochs": cfg.epochs, "seed": cfg.seed,
            "language": self.language, "vocab_hash": self.vocab_hash,
        }

    @classmethod
    def from_config(cls, header: dict) -> "OpcodeCnn":
        language = header.pop("language", "custom")
        vocab_hash = header.pop("vocab_hash", "")
        header["kernel_sizes"] = tuple(header["kernel_sizes"])
        return cls(CnnConfig(**header), language=language, vocab_hash=vocab_hash)


def build_cnn(config: CnnConfig, language: str = "custom",
              vocab: OpcodeVocabulary | None = None) -> OpcodeCnn:
    return OpcodeCnn(config, language=language,
                     vocab_hash=vocab.digest if vocab is not None else "")


def _as_matrix(vectors, max_length: int) -> np.ndarray:
    """Stack OCI vectors, or integer sequences, into [n, max_length]."""
    rows = [vec.indices if isinstance(vec, OciVector) else np.asarray(vec, dtype=np.intp)
            for vec in vectors]
    for row in rows:
        if len(row) != max_length:
            raise SrcModelError(
                f"vector length {len(row)} != max_length {max_length}")
    return np.array(rows, dtype=np.intp).reshape(len(rows), max_length)


def train_cnn(vectors, labels, config: CnnConfig, language: str = "custom",
              vocab: OpcodeVocabulary | None = None,
              ) -> tuple[OpcodeCnn, tn.FitHistory]:
    """Train on OCI vectors with unweighted cross-entropy."""
    model = build_cnn(config, language=language, vocab=vocab)
    matrix = _as_matrix(vectors, config.max_length)
    history = tn.fit(model, matrix, np.asarray(labels, dtype=np.intp),
                     epochs=config.epochs, batch_size=config.batch_size,
                     learning_rate=config.learning_rate, seed=config.seed)
    return model, history


def cnn_predict_batch(model: OpcodeCnn, vectors) -> np.ndarray:
    """[n, 2] probabilities in eval mode, from one forward. Each row's
    conv peaks and head product are its own (see `OpcodeCnn.forward`),
    so a row's probabilities are bit for bit those of a one-row batch."""
    matrix = _as_matrix(vectors, model.config.max_length)
    return tn.softmax(model.forward(matrix, mode="eval"))


@dataclass(frozen=True)
class Verdict:
    """Outcome of hybrid detection for one file."""

    label: str  # "Benign" | "Webshell"
    source: str  # "rules" | "cnn"
    p_webshell: float
    matched_rules: tuple[str, ...] = ()

    def __post_init__(self):
        if self.label not in ("Benign", "Webshell"):
            raise ValueError(f"bad label {self.label!r}")
        if self.source not in ("rules", "cnn"):
            raise ValueError(f"bad source {self.source!r}")
        if self.source == "rules" and not self.matched_rules:
            raise ValueError("rule verdicts must name at least one rule")
        if not 0.0 <= self.p_webshell <= 1.0:
            raise ValueError("p_webshell out of [0, 1]")


def check_model_pairing(model: OpcodeCnn, language: str,
                        vocab: OpcodeVocabulary) -> None:
    """Refuse a model trained for another language or vocabulary, or one
    whose embedding table has no row for some index of `vocab`."""
    if model.language not in ("", "custom") and model.language != language:
        raise SrcModelError(
            f"model was trained for {model.language!r}, not {language!r}")
    if model.vocab_hash and model.vocab_hash != vocab.digest:
        raise SrcModelError(
            "vocabulary does not match the one the model was trained with")
    if model.config.vocab_size < len(vocab):
        raise SrcModelError(
            f"model has embeddings for {model.config.vocab_size} opcodes, "
            f"the vocabulary has {len(vocab)}")


def rules_or_vector(rules: RuleSet | CompiledRuleSet | None, data: bytes,
                    language: str, vocab: OpcodeVocabulary,
                    max_length: int) -> Verdict | OciVector:
    """The first phase of hybrid detection for one file: its rule
    verdict, or else its OCI vector for the CNN.

    The file bytes are matched as-is against `rules`, when given. With
    no match they are read as the language's opcode dump (`dump_vector`,
    as `oci extract` reads them); a dump with no recognizable opcode
    rows raises `OpcodeParseError` rather than defaulting to a benign
    verdict. A dump whose rows are all out of the vocabulary is an
    all-padding vector.
    The model's pairing with `language` and `vocab` is the caller's to
    check, once.
    """
    if rules is not None:
        names = match_buffer(rules, data)
        if names:
            return Verdict(label="Webshell", source="rules", p_webshell=1.0,
                           matched_rules=tuple(names))
    return dump_vector(data, language, vocab, max_length)


def cnn_verdicts(model: OpcodeCnn, vectors) -> list[Verdict]:
    """The CNN's verdicts on OCI vectors, in order, from one forward."""
    if not vectors:
        return []
    return [Verdict(label="Webshell" if p >= tn.DECISION_THRESHOLD else "Benign",
                    source="cnn", p_webshell=p)
            for p in cnn_predict_batch(model, vectors)[:, 1].tolist()]
