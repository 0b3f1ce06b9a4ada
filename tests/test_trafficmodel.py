"""Tabular DNN: construction, training, prediction, cross-validation."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsdetect import tensornet as tn
from wsdetect.tensornet.graph import MAGIC
from wsdetect.trafficmodel import (
    CANONICAL_SCHEMA,
    FeatureSchema,
    TabularConfig,
    TabularDataset,
    TabularDnn,
    TrafficModelError,
    build_dnn,
    default_embedding_dim,
    dnn_predict,
    kfold_cv,
    train_dnn,
)


def _gaussian_dataset(n=400, separation=3.0, noise=0.3, imbalance=0.5, seed=0):
    """Two 77-dim Gaussians; categoricals carry no signal."""
    rng = np.random.default_rng(seed)
    n1 = int(n * imbalance)
    n0 = n - n1
    direction = rng.normal(size=77)
    direction /= np.linalg.norm(direction)
    x0 = rng.normal(0, noise, size=(n0, 77)) - direction * separation / 2
    x1 = rng.normal(0, noise, size=(n1, 77)) + direction * separation / 2
    x = np.vstack([x0, x1])
    y = np.array([0] * n0 + [1] * n1)
    cats = np.column_stack([rng.choice([80, 443, 8080], size=n),
                            rng.choice([6, 17], size=n)])
    order = rng.permutation(n)
    return TabularDataset(cats[order], x[order], y[order])


def _nearest_centroid_accuracy(train, test):
    c0 = train.continuous[train.labels == 0].mean(axis=0)
    c1 = train.continuous[train.labels == 1].mean(axis=0)
    d0 = np.linalg.norm(test.continuous - c0, axis=1)
    d1 = np.linalg.norm(test.continuous - c1, axis=1)
    return ((d1 < d0).astype(int) == test.labels).mean()


class TestConfig:
    def test_tuned_defaults(self):
        config = TabularConfig()
        assert config.hidden == (400, 100)
        assert config.learning_rate == 0.003
        assert config.batch_size == 64
        assert config.epochs == 2

    def test_embedding_heuristic(self):
        assert default_embedding_dim(2) == round(1.6 * 2 ** 0.56)
        assert default_embedding_dim(10 ** 9) == 600

    def test_schema_hash_stable(self):
        assert FeatureSchema().content_hash == CANONICAL_SCHEMA.content_hash
        other = FeatureSchema(continuous=CANONICAL_SCHEMA.continuous[::-1])
        assert other.content_hash != CANONICAL_SCHEMA.content_hash

    def test_label_not_in_schema(self):
        assert "Label" not in CANONICAL_SCHEMA.continuous
        assert "Label" not in CANONICAL_SCHEMA.categorical


class TestBuild:
    def test_input_width_arithmetic(self):
        data = _gaussian_dataset(50)
        config = TabularConfig(embedding_dims=(50, 4))
        model = build_dnn(config, data)
        assert model.input_width == 77 + 50 + 4  # 131
        assert model.dense1.params["w"].shape == (131, 400)
        assert model.dense2.params["w"].shape == (400, 100)
        assert model.head.params["w"].shape == (100, 2)

    def test_forward_on_zero_vector(self):
        data = _gaussian_dataset(50)
        model = build_dnn(TabularConfig(), data)
        single = TabularDataset(data.categoricals[:2],
                                np.zeros((2, 77)), data.labels[:2])
        probs, _ = dnn_predict(model, single)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.isfinite(probs))

    def test_unseen_categorical_maps_to_unknown(self):
        data = _gaussian_dataset(50)
        model = build_dnn(TabularConfig(), data)
        raw = np.array([[59999, 999]])  # never seen in training
        idx = model.map_categorical(raw)
        assert np.all(idx == 0)

    def test_unknown_row_is_learnable_not_zero(self):
        data = _gaussian_dataset(50)
        model = build_dnn(TabularConfig(), data)
        assert np.any(model.embeddings[0].params["weight"][0] != 0.0)

    def test_constant_feature_passes_centered(self):
        data = _gaussian_dataset(50)
        data.continuous[:, 5] = 42.0
        model = build_dnn(TabularConfig(), data)
        normalized = model.normalize(data.continuous)
        assert np.allclose(normalized[:, 5], 0.0)


    def test_seeded_checkpoint_header_is_pinned(self, tmp_path):
        """A seeded model's checkpoint header, vocabularies included, as
        it was written when each vocabulary was sorted(set(...)) of its
        column. The continuous columns are small integers over 256 rows,
        so the normalization statistics are exact in any summation
        order."""
        rng = np.random.default_rng(21)
        cats = np.column_stack([rng.integers(0, 65536, size=256),
                                rng.choice([17, 6, 1, 47], size=256)])
        cats[::7, 0] = 443
        data = TabularDataset(cats, rng.integers(-8, 9, size=(256, 77)).astype(float),
                              rng.integers(0, 2, size=256))
        model = build_dnn(TabularConfig(seed=21), data)
        for vocab, column in zip(model.cat_vocabs, cats.T):
            values = sorted(set(int(v) for v in column))
            assert vocab == {v: i + 1 for i, v in enumerate(values)}
            assert all(type(v) is int for v in vocab)
        tn.save_model(model, tmp_path / "dnn.bin")
        blob = (tmp_path / "dnn.bin").read_bytes()
        (length,) = struct.unpack("<Q", blob[len(MAGIC):len(MAGIC) + 8])
        assert hashlib.sha256(blob[:len(MAGIC) + 8 + length]).hexdigest() == \
            "72bb27a5586ad495afa3d2866be4f3e5c96c5086bfe28526ec0adf7d42816169"


class TestCategoricalLookup:
    @given(data=st.data(), port_keys=st.sets(st.integers(0, 65535), max_size=30),
           proto_keys=st.sets(st.sampled_from([1, 6, 17, 47]), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_lookup_equals_dict_get(self, data, port_keys, proto_keys):
        # vocabularies as a checkpoint may hold them: any distinct
        # indices >= 1, in any key order
        vocabs = []
        for keys in (port_keys, proto_keys):
            order = data.draw(st.permutations(sorted(keys)))
            vocabs.append({k: i + 1 for i, k in enumerate(order)})
        model = TabularDnn(TabularConfig(hidden=(2, 2), embedding_dims=(2, 2)),
                           vocabs, np.zeros(77), np.ones(77))
        value = st.integers(-70_000, 140_000)  # unknowns, negatives, past the top
        rows = data.draw(st.lists(st.tuples(
            st.one_of(value, st.sampled_from(sorted(port_keys) or [0])),
            st.one_of(value, st.sampled_from(sorted(proto_keys) or [0]))),
            max_size=30))  # the empty batch too
        raw = np.array(rows, np.int64).reshape(-1, 2)
        expected = [[vocab.get(int(v), 0) for vocab, v in zip(vocabs, row)]
                    for row in raw]
        idx = model.map_categorical(raw)
        assert idx.shape == raw.shape and idx.tolist() == expected


class TestTraining:
    def test_separable_fixture(self):
        data = _gaussian_dataset(1000, seed=1)
        train = data.subset(range(0, 800))
        test = data.subset(range(800, 1000))
        assert _nearest_centroid_accuracy(train, test) >= 0.99  # oracle
        model, history = train_dnn(train, TabularConfig(seed=0))
        _, predicted = dnn_predict(model, test)
        assert (predicted == test.labels).mean() >= 0.99
        assert len(history) == 2

    def test_weighted_single_class_rejected(self):
        data = _gaussian_dataset(60)
        single = data.subset(np.where(data.labels == 0)[0])
        with pytest.raises(TrafficModelError):
            train_dnn(single, TabularConfig(weighted=True))

    def test_empty_dataset_rejected_before_build(self):
        import warnings

        empty = _gaussian_dataset(60).subset(np.array([], dtype=np.intp))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrafficModelError, match="empty dataset"):
                train_dnn(empty, TabularConfig())

    def test_weighted_equals_unweighted_on_balanced_data(self):
        data = _gaussian_dataset(200, seed=3)  # exactly balanced
        assert (data.labels == 1).sum() == 100
        m1, _ = train_dnn(data, TabularConfig(seed=5, weighted=False))
        m2, _ = train_dnn(data, TabularConfig(seed=5, weighted=True))
        for name in m1.parameters():
            assert np.array_equal(m1.parameters()[name],
                                  m2.parameters()[name]), name

    def test_weighting_helps_minority_recall(self):
        # overlapping clusters, 9:1 imbalance, a few seeds: average
        # minority recall must not get worse with weighting
        deltas = []
        for seed in range(3):
            data = _gaussian_dataset(600, separation=1.2, noise=0.8,
                                     imbalance=0.1, seed=seed)
            train = data.subset(range(0, 450))
            test = data.subset(range(450, 600))
            recalls = {}
            for weighted in (False, True):
                model, _ = train_dnn(train, TabularConfig(
                    weighted=weighted, seed=seed, epochs=2))
                _, predicted = dnn_predict(model, test)
                positives = test.labels == 1
                recalls[weighted] = (
                    (predicted[positives] == 1).mean() if positives.any() else 0.0)
            deltas.append(recalls[True] - recalls[False])
        assert sum(deltas) / len(deltas) >= 0.0

    def test_schema_mismatch_rejected(self):
        data = _gaussian_dataset(50)
        model = build_dnn(TabularConfig(), data)
        model.schema_hash = "something else"
        with pytest.raises(TrafficModelError, match="schema"):
            dnn_predict(model, data)


class TestPredict:
    def test_rows_sum_to_one_and_order(self):
        data = _gaussian_dataset(64)
        model, _ = train_dnn(data, TabularConfig(epochs=1))
        probs, classes = dnn_predict(model, data)
        assert probs.shape == (64, 2)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.array_equal(classes, probs[:, 1] >= tn.DECISION_THRESHOLD)

    def test_exact_tie_is_webshell(self):
        # a zeroed last layer gives equal logits, so p_webshell is exactly
        # 0.5; like the CNN verdict, a tie goes to webshell
        data = _gaussian_dataset(16)
        model = build_dnn(TabularConfig(), data)
        model.head.params["w"][...] = 0.0
        model.head.params["b"][...] = 0.0
        probs, classes = dnn_predict(model, data)
        assert np.all(probs[:, 1] == 0.5)
        assert np.all(classes == 1)

    def test_matches_centroid_oracle_on_separated_data(self):
        data = _gaussian_dataset(600, seed=7)
        train = data.subset(range(0, 400))
        test = data.subset(range(400, 600))
        model, _ = train_dnn(train, TabularConfig(seed=7))
        _, predicted = dnn_predict(model, test)
        c0 = train.continuous[train.labels == 0].mean(axis=0)
        c1 = train.continuous[train.labels == 1].mean(axis=0)
        oracle = (np.linalg.norm(test.continuous - c1, axis=1)
                  < np.linalg.norm(test.continuous - c0, axis=1)).astype(int)
        assert (predicted == oracle).mean() >= 0.99


class TestKfold:
    def test_fold_sizes_and_averages(self):
        data = _gaussian_dataset(100, seed=2)
        report = kfold_cv(data, 5, TabularConfig(epochs=1), seed=0)
        assert len(report.folds) == 5
        assert [sum(1 for _ in f) for f in
                [range(int(r.confusion.total)) for r in report.folds]] == [20] * 5
        manual = sum(r.accuracy for r in report.folds) / 5
        assert report.averages["accuracy"] == pytest.approx(manual)

    def test_deterministic_fold_assignment(self):
        from wsdetect.evalkit import stratified_folds

        labels = [0, 1] * 50
        assert stratified_folds(labels, 5, seed=4) == stratified_folds(
            labels, 5, seed=4)
        assert stratified_folds(labels, 5, seed=4) != stratified_folds(
            labels, 5, seed=5)

    def test_separable_every_fold_high(self):
        data = _gaussian_dataset(500, seed=6)
        report = kfold_cv(data, 5, TabularConfig(), seed=1)
        for fold in report.folds:
            assert fold.accuracy >= 99.0
            assert fold.auc >= 99.0

    def test_k_exceeding_records(self):
        data = _gaussian_dataset(8)
        with pytest.raises(Exception, match="exceeds"):
            kfold_cv(data, 50, TabularConfig())


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        data = _gaussian_dataset(120, seed=8)
        model, _ = train_dnn(data, TabularConfig(epochs=1, seed=8))
        path = tmp_path / "dnn.bin"
        tn.save_model(model, path)
        loaded = tn.load_model(path)
        probs_a, _ = dnn_predict(model, data)
        probs_b, _ = dnn_predict(loaded, data)
        assert np.array_equal(probs_a, probs_b)
        assert loaded.schema_hash == model.schema_hash
        assert loaded.cat_vocabs == model.cat_vocabs
        assert np.array_equal(loaded.norm_mean, model.norm_mean)
