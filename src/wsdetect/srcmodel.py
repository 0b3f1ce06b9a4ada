"""Opcode-sequence CNN and the hybrid source-file detector.

Detection order is fixed: signature rules first, and only files with no
rule match reach the CNN. A trained model never changes the verdict on
a rule-matching file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from wsdetect import tensornet as tn
from wsdetect.opcode import OciVector, OpcodeVocabulary, oiva, parse_listing
from wsdetect.rulelang import CompiledRuleSet, MatchReport, RuleSet, match_buffer


class SrcModelError(Exception):
    pass


class OpcodeParseError(SrcModelError):
    """No opcode rows recognized in a file that matched no rule.

    Raised instead of returning a verdict so unparseable input is never
    silently classified benign.
    """


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
        return self.dense.forward(dropped, mode, rng)

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


def vocabulary_hash(vocab: OpcodeVocabulary) -> str:
    joined = "\n".join(vocab.mnemonics).encode("utf-8")
    return hashlib.sha256(joined).hexdigest()


def build_cnn(config: CnnConfig, language: str = "custom",
              vocab: OpcodeVocabulary | None = None) -> OpcodeCnn:
    vhash = vocabulary_hash(vocab) if vocab is not None else ""
    return OpcodeCnn(config, language=language, vocab_hash=vhash)


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


def cnn_predict(model: OpcodeCnn, oci) -> tuple[float, float]:
    """(p_benign, p_webshell) for one vector, in eval mode."""
    p_benign, p_webshell = cnn_predict_batch(model, [oci])[0].tolist()
    return p_benign, p_webshell


def cnn_predict_batch(model: OpcodeCnn, vectors) -> np.ndarray:
    """[n, 2] probabilities in eval mode. Each row runs through its own
    forward: numpy takes another BLAS path for a one-row head product
    than for a batch, so a row's verdict would otherwise depend on the
    vectors scored with it."""
    matrix = _as_matrix(vectors, model.config.max_length)
    return np.array([tn.softmax(model.forward(row, mode="eval"))[0]
                     for row in matrix]).reshape(len(matrix), 2)


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
    if model.vocab_hash and model.vocab_hash != vocabulary_hash(vocab):
        raise SrcModelError(
            "vocabulary does not match the one the model was trained with")
    if model.config.vocab_size < len(vocab):
        raise SrcModelError(
            f"model has embeddings for {model.config.vocab_size} opcodes, "
            f"the vocabulary has {len(vocab)}")


def cnn_verdict(model: OpcodeCnn, data: bytes, language: str,
                vocab: OpcodeVocabulary,
                subject_id: str = "<buffer>") -> Verdict:
    """Classify opcode dump text with the CNN alone.

    A dump with no recognizable opcode rows raises `OpcodeParseError`
    rather than defaulting to a benign verdict.
    """
    check_model_pairing(model, language, vocab)
    text = data.decode("utf-8", errors="replace")
    listing = parse_listing(text, language)
    if not listing.mnemonics:
        raise OpcodeParseError(
            f"{subject_id}: no {language} opcode rows recognized")
    vec = oiva(listing, vocab, model.config.max_length)
    _, p_webshell = cnn_predict(model, vec)
    label = "Webshell" if p_webshell >= tn.DECISION_THRESHOLD else "Benign"
    return Verdict(label=label, source="cnn", p_webshell=p_webshell)


def hybrid_detect(rules: RuleSet | CompiledRuleSet, model: OpcodeCnn,
                  data: bytes, language: str, vocab: OpcodeVocabulary,
                  subject_id: str = "<buffer>") -> Verdict:
    """Run rules first; only rule-clean files reach the CNN.

    The file bytes are matched as-is against the ruleset. With no match
    they are treated as the language's opcode dump text, vectorized and
    classified.
    """
    check_model_pairing(model, language, vocab)
    report: MatchReport = match_buffer(rules, data, subject_id=subject_id)
    if report:
        return Verdict(label="Webshell", source="rules", p_webshell=1.0,
                       matched_rules=tuple(report.rule_names))
    return cnn_verdict(model, data, language, vocab, subject_id=subject_id)
