"""Opcode CNN and the hybrid rules-then-CNN detector."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from wsdetect import tensornet as tn
from wsdetect.opcode import OciVector, OpcodeListing, OpcodeParseError, OpcodeVocabulary, oiva
from wsdetect.rulelang import parse_rules
from wsdetect.srcmodel import (
    CnnConfig,
    SrcModelError,
    Verdict,
    build_cnn,
    check_model_pairing,
    cnn_predict_batch,
    cnn_verdicts,
    rules_or_vector,
    train_cnn,
)
from wsdetect.tensornet.layers import ShapeError

RULES = parse_rules('rule sig { strings: $a = "b374k" condition: 1 of them }')
VOCAB = OpcodeVocabulary(
    ("ECHO", "CONCAT", "RETURN", "ASSIGN", "INCLUDE_OR_EVAL"), "php")


def cnn_predict(model, oci) -> tuple[float, float]:
    """(p_benign, p_webshell) of one vector, scored alone."""
    p_benign, p_webshell = cnn_predict_batch(model, [oci])[0].tolist()
    return p_benign, p_webshell


def hybrid_detect(rules, model, data, language, vocab) -> Verdict:
    """What `predict src` does for one file: the pairing check, the
    rules or the vector, then the CNN on the vector."""
    check_model_pairing(model, language, vocab)
    result = rules_or_vector(rules, data, language, vocab, model.config.max_length)
    return result if isinstance(result, Verdict) else cnn_verdicts(model, [result])[0]


def _tiny_config(**overrides):
    defaults = dict(vocab_size=len(VOCAB), max_length=12, embedding_dim=4,
                    kernel_sizes=(2, 3, 4), num_filters=3, epochs=3,
                    batch_size=8, seed=1)
    defaults.update(overrides)
    return CnnConfig(**defaults)


class TestConfig:
    def test_php_defaults_match_tuned_values(self):
        config = CnnConfig.php(vocab_size=200, max_length=100)
        assert config.kernel_sizes == (3, 4, 5)
        assert config.num_filters == 128
        assert config.dropout_rate == 0.5
        assert config.learning_rate == 0.001
        assert config.batch_size == 96
        assert config.epochs == 64

    def test_aspnet_preset(self):
        config = CnnConfig.for_language("cil", vocab_size=229, max_length=100)
        assert config.kernel_sizes == (4, 5, 6)
        assert config.batch_size == 64
        assert config.epochs == 32
        assert config.num_filters == 128

    def test_kernel_triple_must_be_consecutive(self):
        with pytest.raises(SrcModelError, match="consecutive"):
            CnnConfig(vocab_size=5, max_length=50, kernel_sizes=(3, 5, 7))

    def test_kernel_cannot_exceed_max_length(self):
        with pytest.raises(SrcModelError, match="max_length"):
            CnnConfig(vocab_size=5, max_length=4, kernel_sizes=(3, 4, 5))


class TestBuild:
    def test_php_default_widths(self):
        config = CnnConfig.php(vocab_size=150, max_length=64)
        model = build_cnn(config)
        assert model.concat_width == 384  # 3 * 128
        assert model.dense.params["w"].shape == (384, 2)

    def test_minimal_widths(self):
        config = CnnConfig(vocab_size=5, max_length=8, kernel_sizes=(1, 2, 3),
                           num_filters=1)
        model = build_cnn(config)
        assert model.concat_width == 3

    def test_parameter_names_and_shapes(self):
        # checkpoints address arrays by these names: renaming one breaks
        # every saved model
        model = build_cnn(_tiny_config())
        shapes = {name: value.shape for name, value in model.parameters().items()}
        assert shapes == {
            "embedding.weight": (len(VOCAB) + 1, 4),
            "conv0.w": (3, 4, 2), "conv0.b": (3,),
            "conv1.w": (3, 4, 3), "conv1.b": (3,),
            "conv2.w": (3, 4, 4), "conv2.b": (3,),
            "dense.w": (9, 2), "dense.b": (2,),
        }
        assert model.named_buffers() == {}

    def test_all_padding_vector_valid_probability(self):
        model = build_cnn(_tiny_config())
        p_benign, p_web = cnn_predict(model, OciVector((0,) * 12))
        assert p_benign + p_web == pytest.approx(1.0, abs=1e-12)
        assert math.isfinite(p_benign) and math.isfinite(p_web)

    def test_padding_row_stays_zero(self):
        model = build_cnn(_tiny_config())
        assert np.all(model.embedding.params["weight"][0] == 0.0)


class TestForward:
    @pytest.mark.parametrize("rows, error, match", [
        (np.ones((2, 12)), ShapeError, "integer"),
        (np.array([[1, 2, -1] + [0] * 9]), ShapeError, "out of range"),
        (np.array([[1, len(VOCAB) + 1] + [0] * 10]), ShapeError, "out of range"),
        (np.ones((2, 11), dtype=np.intp), SrcModelError, "length"),
        (np.ones(13, dtype=np.intp), SrcModelError, "length"),
    ], ids=["float tokens", "negative index", "index past the vocabulary",
            "short vectors", "long vector"])
    def test_bad_input_refused_before_any_product(self, rows, error, match, monkeypatch):
        model = build_cnn(_tiny_config())
        products = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda *a, **k: products.append(a) or matmul(*a, **k))
        with pytest.raises(error, match=match):
            model.forward(rows)
        assert not products
        assert not any(hasattr(conv, "_argmax") for conv in model.convs)
        model.forward(np.ones((2, 12), dtype=np.intp))  # the spy does see products
        assert products

    def test_a_training_step_traces_under_six_megabytes(self):
        """One PHP-preset step at the bench's batch shape, 96 rows of
        2,000 tokens: forward, loss and backward. The forward reads each
        sample's windows straight from the table, so no [96, 2000, 8]
        lookup (12.3 MB) is formed or held; the step traces about 4.5 MB
        at peak, most of it one [128, 1998] product buffer."""
        model = build_cnn(CnnConfig.php(vocab_size=180, max_length=2000, seed=3))
        model.parameters()  # the flat buffers are packed outside the trace
        rng = np.random.default_rng(5)
        rows = np.zeros((96, 2000), dtype=np.intp)
        for n, live in enumerate(rng.integers(300, 2001, size=96)):
            rows[n, :live] = rng.integers(1, 181, size=live)
        labels = rng.integers(0, 2, size=96)
        head = tn.SoftmaxCrossEntropy()
        tracemalloc.start()
        try:
            model.zero_grads()
            head.forward(model.forward(rows, mode="train", rng=rng), labels)
            model.backward(head.backward())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6e6


def _planted_corpus(n=120, max_length=12, seed=0):
    """Class 1 always contains the (ECHO, CONCAT, INCLUDE_OR_EVAL) trigram;
    class 0 never contains it contiguously."""
    rng = random.Random(seed)
    fillers = ["RETURN", "ASSIGN", "UNKNOWN_OP"]
    trigram = ["ECHO", "CONCAT", "INCLUDE_OR_EVAL"]
    vectors, labels = [], []
    for i in range(n):
        label = i % 2
        body = [rng.choice(fillers) for _ in range(rng.randint(5, 9))]
        if label:
            pos = rng.randrange(len(body))
            body[pos:pos] = trigram
        vectors.append(oiva(OpcodeListing(body), VOCAB, max_length))
        labels.append(label)
    return vectors, labels


class TestTraining:
    def test_learns_planted_trigram(self):
        vectors, labels = _planted_corpus(n=160)
        split = int(0.8 * len(vectors))
        model, history = train_cnn(vectors[:split], labels[:split],
                                   _tiny_config(epochs=10), vocab=VOCAB)
        probs = cnn_predict_batch(model, vectors[split:])
        predicted = probs.argmax(axis=1)
        accuracy = (predicted == np.array(labels[split:])).mean()
        assert accuracy >= 0.9

    def test_same_seed_identical_parameters(self):
        vectors, labels = _planted_corpus(n=40)
        m1, _ = train_cnn(vectors, labels, _tiny_config(epochs=2))
        m2, _ = train_cnn(vectors, labels, _tiny_config(epochs=2))
        for name in m1.parameters():
            assert np.array_equal(m1.parameters()[name], m2.parameters()[name])

    def test_single_class_training_predicts_that_class(self):
        vectors, _ = _planted_corpus(n=30)
        model, _ = train_cnn(vectors, [1] * len(vectors),
                             _tiny_config(epochs=4))
        probs = cnn_predict_batch(model, vectors[:8])
        assert np.all(probs.argmax(axis=1) == 1)

    def test_vector_length_mismatch(self):
        with pytest.raises(SrcModelError, match="length"):
            train_cnn([OciVector((1, 2))], [0], _tiny_config())


class TestPredict:
    def test_rows_sum_to_one(self):
        model = build_cnn(_tiny_config())
        rng = np.random.default_rng(0)
        vectors = [OciVector(tuple(rng.integers(0, 6, size=12)))
                   for _ in range(20)]
        probs = cnn_predict_batch(model, vectors)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert cnn_predict_batch(model, []).shape == (0, 2)

    def test_eval_mode_deterministic_despite_dropout(self):
        model = build_cnn(_tiny_config(dropout_rate=0.9))
        vec = OciVector(tuple([1, 2, 3, 4, 5] + [0] * 7))
        assert cnn_predict(model, vec) == cnn_predict(model, vec)

    def test_batch_matches_each_row_alone(self):
        # a row's conv peaks must not depend on the rows batched with it,
        # whatever their padding: one-file scans and batched training and
        # eval see the same features
        length = 300
        model = build_cnn(CnnConfig.php(vocab_size=len(VOCAB),
                                        max_length=length, seed=2))
        rng = np.random.default_rng(0)
        x = rng.integers(1, len(VOCAB) + 1, size=(9, length))
        unpadded = np.array([0, 1, 4, 5, 37, 150, 299, length, length])
        x[np.arange(length) >= unpadded[:, None]] = 0

        def peaks(rows):
            return tn.conv_max_pool(model.convs, rows, model.embedding.params["weight"])

        alone = [slice(i, i + 1) for i in range(len(x))]
        assert peaks(x).tobytes() == np.concatenate(
            [peaks(x[rows]) for rows in alone]).tobytes()
        # an eval forward takes one head product per row
        assert model.forward(x).tobytes() == np.concatenate(
            [model.forward(x[rows]) for rows in alone]).tobytes()
        # the predict functions score each row on its own
        vectors = [OciVector(tuple(row)) for row in x]
        probs = cnn_predict_batch(model, vectors)
        assert [tuple(p) for p in probs.tolist()] == [
            cnn_predict(model, v) for v in vectors]

    @pytest.mark.parametrize("seed", range(5))
    def test_batched_verdicts_equal_one_row_verdicts(self, seed):
        # a random-normal dense head makes numpy's one-row and batched
        # products round differently; a verdict must not depend on the
        # other files scanned with it
        model = build_cnn(CnnConfig.php(vocab_size=len(VOCAB), max_length=60,
                                        seed=seed))
        rng = np.random.default_rng(seed)
        model.dense.params["w"][:] = rng.normal(size=model.dense.params["w"].shape)
        model.dense.params["b"][:] = rng.normal(size=2)
        rows = rng.integers(0, len(VOCAB) + 1, size=(16, 60))
        vectors = [OciVector(tuple(row)) for row in rows]
        probs = cnn_predict_batch(model, vectors)
        for i in (0, 5, 15):
            assert tuple(probs[i].tolist()) == cnn_predict(model, vectors[i])
            again = cnn_predict_batch(model, [vectors[i]] + vectors[:i][::-1])
            assert again[0].tobytes() == probs[i].tobytes()


def _forced_model(p_webshell: float):
    """Zero the final dense layer so logits are its bias: exact output."""
    model = build_cnn(_tiny_config())
    model.dense.params["w"][:] = 0.0
    model.dense.params["b"][:] = [math.log(1 - p_webshell + 1e-300),
                                  math.log(p_webshell + 1e-300)]
    return model


class TestHybridDetect:
    def test_rule_match_short_circuits(self):
        data = b"<?php b374k ?>"
        verdict = hybrid_detect(RULES, _forced_model(0.0), data, "php", VOCAB)
        assert verdict.label == "Webshell"
        assert verdict.source == "rules"
        assert verdict.p_webshell == 1.0
        assert verdict.matched_rules == ("sig",)

    def test_rule_verdict_independent_of_model(self):
        data = b"payload with b374k inside"
        verdicts = [hybrid_detect(RULES, _forced_model(p), data, "php", VOCAB)
                    for p in (0.0, 0.5, 1.0)]
        assert len({v.label for v in verdicts}) == 1
        assert all(v.source == "rules" for v in verdicts)

    def test_low_probability_benign(self):
        dump = b"line 1 0 E > ECHO 'x'\n     2 1 > RETURN 1\n"
        verdict = hybrid_detect(RULES, _forced_model(0.1), dump, "php", VOCAB)
        assert verdict.label == "Benign"
        assert verdict.source == "cnn"
        assert verdict.p_webshell == pytest.approx(0.1, abs=1e-9)

    def test_exact_tie_is_webshell(self):
        dump = b"line 1 0 E > ECHO 'x'\n"
        verdict = hybrid_detect(RULES, _forced_model(0.5), dump, "php", VOCAB)
        assert verdict.p_webshell == pytest.approx(0.5, abs=1e-12)
        assert verdict.label == "Webshell"

    def test_unparseable_input_raises(self):
        garbage = b"\x00\x01\x02 no opcode rows at all"
        with pytest.raises(OpcodeParseError):
            hybrid_detect(RULES, _forced_model(0.5), garbage, "php", VOCAB)

    def test_rows_all_out_of_the_vocabulary_are_an_all_padding_vector(self):
        # op rows the vocabulary lacks are not "no opcode rows"
        dump = b"line 1 0 E > NOT_IN_VOCAB 'x'\n     2 1 > ALSO_NOT 1\n"
        vec = rules_or_vector(RULES, dump, "php", VOCAB, 12)
        assert vec == OciVector((0,) * 12)
        with pytest.raises(OpcodeParseError, match="^no php opcode rows recognized$"):
            rules_or_vector(RULES, b"NOT_IN_VOCAB without a number\n", "php", VOCAB, 12)

    def test_no_rules_goes_straight_to_the_vector(self):
        data = b"1 0 E > ECHO b374k\n"
        assert rules_or_vector(RULES, data, "php", VOCAB, 4).source == "rules"
        assert rules_or_vector(None, data, "php", VOCAB, 4) == OciVector((1, 0, 0, 0))

    def test_vocabulary_mismatch_rejected(self):
        model = build_cnn(_tiny_config(), vocab=VOCAB)
        other = OpcodeVocabulary(("NOT", "THE", "SAME", "FIVE", "WORDS"))
        with pytest.raises(SrcModelError, match="vocabulary"):
            hybrid_detect(RULES, model, b"1 0 E > ECHO", "php", other)

    def test_model_smaller_than_the_vocabulary_rejected(self):
        model = build_cnn(_tiny_config())  # no vocabulary hash
        larger = OpcodeVocabulary(VOCAB.mnemonics + ("EXTRA",))
        with pytest.raises(SrcModelError, match="embeddings for 5 opcodes"):
            hybrid_detect(RULES, model, b"1 0 E > ECHO", "php", larger)

    def test_language_mismatch_rejected(self):
        model = build_cnn(_tiny_config(), language="php", vocab=VOCAB)
        with pytest.raises(SrcModelError, match="trained for"):
            hybrid_detect(RULES, model, b"IL_0000: nop", "cil", VOCAB)

    def test_superset_of_rules_alone(self):
        # every rule-flagged subject is flagged by the hybrid too
        subjects = [b"xx b374k yy", b"1 0 E > ECHO 'hi'", b"clean? 1 0 > RETURN 1"]
        model = _forced_model(0.9)
        rule_flagged = set()
        hybrid_flagged = set()
        for i, data in enumerate(subjects):
            from wsdetect.rulelang import match_buffer

            if match_buffer(RULES, data):
                rule_flagged.add(i)
            if hybrid_detect(RULES, model, data, "php", VOCAB).label == "Webshell":
                hybrid_flagged.add(i)
        assert rule_flagged <= hybrid_flagged

    def test_verdict_invariants(self):
        with pytest.raises(ValueError):
            Verdict(label="Webshell", source="rules", p_webshell=1.0)
        with pytest.raises(ValueError):
            Verdict(label="Maybe", source="cnn", p_webshell=0.4)
