"""Metrics, splitting, dedup, candidate triage and search."""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsdetect.evalkit import (
    Choice,
    ConfusionMatrix,
    DatasetItem,
    EvalError,
    Range,
    SearchSpace,
    auc_score,
    dedup,
    grid_search,
    metrics,
    split_dataset,
    stratified_folds,
)
from wsdetect import cli


class TestMetrics:
    def test_reference_signature_panel(self):
        report = metrics(ConfusionMatrix(tp=709, fp=8, fn=108, tn=1447))
        assert report.accuracy == pytest.approx(94.89, abs=0.05)
        assert report.precision == pytest.approx(98.88, abs=0.05)
        assert report.recall == pytest.approx(86.76, abs=0.05)
        assert report.specificity == pytest.approx(99.45, abs=0.05)
        assert report.f1 == pytest.approx(92.43, abs=0.05)
        assert report.fpr == pytest.approx(0.55, abs=0.05)
        assert report.fnr == pytest.approx(13.24, abs=0.05)

    def test_reference_cnn_panel_exact_two_decimals(self):
        report = metrics(ConfusionMatrix(tp=807, fp=17, fn=10, tn=1438))
        assert report.as_dict(digits=2) == {
            "accuracy": 98.81, "precision": 97.94, "recall": 98.78,
            "specificity": 98.83, "f1": 98.35, "fpr": 1.17, "fnr": 1.22}

    def test_large_matrix_panel(self):
        report = metrics(ConfusionMatrix(tp=87794, fp=48, fn=58, tn=281645))
        assert report.accuracy == pytest.approx(99.97, abs=0.05)
        assert report.f1 == pytest.approx(99.94, abs=0.05)
        assert report.fnr == pytest.approx(0.07, abs=0.05)
        assert report.fpr == pytest.approx(0.02, abs=0.05)

    @pytest.mark.parametrize("counts,expected", [
        # signature-only, CNN-only and hybrid reference panels for the
        # compiled-language corpus
        ((346, 8, 67, 661), {"accuracy": 93.07, "precision": 97.74,
                             "recall": 83.78, "specificity": 98.80,
                             "f1": 90.22, "fpr": 1.20, "fnr": 16.22}),
        ((406, 10, 7, 659), {"accuracy": 98.43, "precision": 97.60,
                             "recall": 98.31, "specificity": 98.51,
                             "f1": 97.95, "fpr": 1.49, "fnr": 1.69}),
        ((407, 10, 6, 659), {"accuracy": 98.52, "precision": 97.60,
                             "recall": 98.55, "specificity": 98.51,
                             "f1": 98.07, "fpr": 1.49, "fnr": 1.45}),
    ])
    def test_compiled_language_reference_panels(self, counts, expected):
        report = metrics(ConfusionMatrix(*counts))
        for name, value in expected.items():
            assert getattr(report, name) == pytest.approx(value, abs=0.05), name

    def test_perfect_classifier(self):
        report = metrics(ConfusionMatrix(tp=5, fp=0, fn=0, tn=9))
        assert report.accuracy == 100.0
        assert report.precision == 100.0
        assert report.recall == 100.0
        assert report.f1 == 100.0
        assert report.fpr == 0.0 and report.fnr == 0.0

    def test_undefined_denominator_flagged(self):
        report = metrics(ConfusionMatrix(tp=0, fp=0, fn=0, tn=10))
        assert report.precision == 0.0
        assert "precision" in report.undefined
        assert "recall" in report.undefined

    def test_all_zero_rejected(self):
        with pytest.raises(EvalError):
            metrics(ConfusionMatrix(0, 0, 0, 0))

    @given(st.integers(1, 500), st.integers(0, 500), st.integers(0, 500),
           st.integers(1, 500), st.integers(2, 9))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, tp, fp, fn, tn, scale):
        a = metrics(ConfusionMatrix(tp, fp, fn, tn))
        b = metrics(ConfusionMatrix(tp * scale, fp * scale, fn * scale,
                                    tn * scale))
        for name in ("accuracy", "precision", "recall", "specificity",
                     "f1", "fpr", "fnr"):
            assert getattr(a, name) == pytest.approx(getattr(b, name),
                                                     rel=1e-9, abs=1e-9)

    @given(st.integers(1, 500), st.integers(1, 500), st.integers(1, 500),
           st.integers(1, 500))
    @settings(max_examples=100, deadline=None)
    def test_f1_harmonic_identity(self, tp, fp, fn, tn):
        report = metrics(ConfusionMatrix(tp, fp, fn, tn))
        harmonic = (2 * report.precision * report.recall
                    / (report.precision + report.recall))
        assert report.f1 == pytest.approx(harmonic, abs=1e-9)


class TestAuc:
    def test_perfect_ranking(self):
        assert auc_score([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_random_ranking_half(self):
        assert auc_score([0, 1], [0.5, 0.5]) == 0.5

    def test_needs_both_classes(self):
        with pytest.raises(EvalError):
            auc_score([1, 1], [0.5, 0.6])


class TestSplit:
    def _items(self, n=100, sources=None):
        out = []
        for i in range(n):
            source = sources[i % len(sources)] if sources else f"s{i % 3}"
            out.append(DatasetItem(key=f"f{i}", label=i % 2, source=source))
        return out

    def test_eighty_twenty(self):
        train, test = split_dataset(self._items(100), ratio=0.8, seed=0)
        assert len(train) == 80 and len(test) == 20

    def test_partition_preserved(self):
        items = self._items(57)
        train, test = split_dataset(items, ratio=0.8, seed=3)
        assert sorted(i.key for i in train + test) == sorted(i.key for i in items)
        assert not {i.key for i in train} & {i.key for i in test}

    def test_stratified_by_label(self):
        items = self._items(100)
        train, _ = split_dataset(items, ratio=0.8, seed=1)
        assert sum(1 for i in train if i.label == 1) == 40

    def test_same_seed_same_split(self):
        items = self._items(60)
        assert split_dataset(items, seed=9) == split_dataset(items, seed=9)

    def test_by_source_greedy(self):
        items = ([DatasetItem(key=f"a{i}", source="big") for i in range(50)]
                 + [DatasetItem(key=f"b{i}", source="mid") for i in range(30)]
                 + [DatasetItem(key=f"c{i}", source="small") for i in range(20)])
        train, test = split_dataset(items, ratio=0.8, by_source=True)
        assert {i.source for i in train} == {"big", "mid"}
        assert {i.source for i in test} == {"small"}

    def test_by_source_never_splits_a_source(self):
        items = self._items(90, sources=["x", "y", "z"])
        train, test = split_dataset(items, ratio=0.7, by_source=True)
        assert not ({i.source for i in train} & {i.source for i in test})

    def test_by_source_needs_two_sources(self):
        items = self._items(10, sources=["only"])
        with pytest.raises(EvalError):
            split_dataset(items, by_source=True)

    def test_empty_rejected(self):
        with pytest.raises(EvalError):
            split_dataset([])


class TestDedup:
    def test_identical_files_deduped(self, tmp_path):
        (tmp_path / "a").write_bytes(b"same")
        (tmp_path / "b").write_bytes(b"same")
        report = dedup([tmp_path / "a", tmp_path / "b"])
        assert report.kept == [str(tmp_path / "a")]
        assert report.removed == [(str(tmp_path / "b"), str(tmp_path / "a"))]

    def test_one_byte_difference_kept(self, tmp_path):
        (tmp_path / "a").write_bytes(b"same")
        (tmp_path / "b").write_bytes(b"samf")
        report = dedup([tmp_path / "a", tmp_path / "b"])
        assert len(report.kept) == 2

    def test_three_copies_plus_unique(self, tmp_path):
        for name in ("c1", "c2", "c3"):
            (tmp_path / name).write_bytes(b"copy")
        (tmp_path / "u").write_bytes(b"unique")
        report = dedup(list(tmp_path.iterdir()))
        assert len(report.kept) == 2
        assert len(report.removed) == 2

    def test_idempotent(self, tmp_path):
        for i, data in enumerate([b"x", b"x", b"y"]):
            (tmp_path / f"f{i}").write_bytes(data)
        once = dedup(list(tmp_path.iterdir()))
        twice = dedup([p for p in once.kept])
        assert twice.kept == once.kept
        assert twice.removed == []

    def test_unreadable_recorded(self, tmp_path):
        (tmp_path / "ok").write_bytes(b"fine")
        report = dedup([tmp_path / "ok", tmp_path / "missing"])
        assert report.unreadable == [(str(tmp_path / "missing"),
                                      "No such file or directory")]
        assert report.kept == [str(tmp_path / "ok")]


def clean_webshell_candidates(candidates, tmp_path):
    """`dataset clean` on `candidates`: (exit code, confirmed, needs
    review, unreadable as (path, reason))."""
    rules = tmp_path / "rules.yar"
    rules.write_text('rule w { strings: $a = "evil()" condition: $a }')
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(["dataset", "clean", "--rules", str(rules),
                    *map(str, candidates)], out, err)
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    return (code,
            [line["path"] for line in lines if line["status"] == "confirmed"],
            [line["path"] for line in lines if line["status"] == "needs_review"],
            [(line["path"], line["error"])
             for line in map(json.loads, err.getvalue().splitlines())])


class TestCleanCandidates:
    def test_matching_confirmed(self, tmp_path):
        path = tmp_path / "shell.php"
        path.write_bytes(b"<?php evil() ?>")
        code, confirmed, review, unreadable = clean_webshell_candidates([path], tmp_path)
        assert confirmed == [str(path)] and review == [] and unreadable == []
        assert code == cli.EXIT_DETECTED

    def test_nonmatching_needs_review(self, tmp_path):
        path = tmp_path / "maybe.php"
        path.write_bytes(b"<?php echo 1; ?>")
        code, confirmed, review, unreadable = clean_webshell_candidates([path], tmp_path)
        assert confirmed == [] and review == [str(path)] and unreadable == []
        assert code == cli.EXIT_OK

    def test_mixed_batch(self, tmp_path):
        paths = []
        for i in range(5):
            p = tmp_path / f"c{i}.php"
            p.write_bytes(b"evil()" if i < 2 else b"fine")
            paths.append(p)
        _, confirmed, review, unreadable = clean_webshell_candidates(paths, tmp_path)
        assert len(confirmed) == 2 and len(review) == 3 and unreadable == []

    def test_unreadable_recorded_with_its_reason(self, tmp_path):
        # the candidates after an unreadable one are still triaged
        paths = [tmp_path / "missing.php", tmp_path, tmp_path / "shell.php",
                 tmp_path / "maybe.php"]
        paths[2].write_bytes(b"evil()")
        paths[3].write_bytes(b"fine")
        code, confirmed, review, unreadable = clean_webshell_candidates(paths, tmp_path)
        assert (confirmed, review) == ([str(paths[2])], [str(paths[3])])
        assert unreadable == [(str(paths[0]), "No such file or directory"),
                              (str(tmp_path), "Is a directory")]
        assert code == cli.EXIT_DETECTED


class TestSearch:
    def test_grid_known_argmax(self):
        space = SearchSpace.from_dict({
            "a": {"choice": [0.0, 1.0]},
            "b": {"choice": [0.0, 2.0]},
        })
        result = grid_search(space, lambda p: -((p["a"] - 1) ** 2
                                                + (p["b"] - 2) ** 2))
        assert result.best == {"a": 1.0, "b": 2.0}
        assert len(result.leaderboard) == 4

    def test_single_point(self):
        space = SearchSpace.from_dict({"x": {"choice": [7]}})
        result = grid_search(space, lambda p: 1.0)
        assert result.best == {"x": 7}

    def test_grid_size_counting(self):
        space = SearchSpace.from_dict({
            "batch": {"choice": [8, 16, 32, 64, 96, 128]},
            "epoch": {"choice": [8, 16, 32, 64, 96, 128]},
            "lr": {"range": [0.001, 1.0], "steps": 3},
        })
        assert len(space.grid()) == 6 * 6 * 3

    def test_eval_failure_recorded_not_fatal(self):
        space = SearchSpace.from_dict({"x": {"choice": [1, 2, 3]}})

        def flaky(point):
            if point["x"] == 2:
                raise RuntimeError("boom")
            return point["x"]

        result = grid_search(space, flaky)
        assert result.best == {"x": 3}
        assert len(result.failures) == 1

    def test_tie_resolves_to_earliest_grid_point(self):
        space = SearchSpace.from_dict({"x": {"choice": [5, 1, 9]}})
        result = grid_search(space, lambda p: 0.0)
        assert result.best == {"x": 5}

    def test_range_discretization(self):
        points = Range(0.0, 1.0, 5).points()
        assert points == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_choice_must_not_be_empty(self):
        with pytest.raises(EvalError):
            Choice(())


class TestStratifiedFolds:
    def test_partition(self):
        labels = [0] * 60 + [1] * 40
        folds = stratified_folds(labels, 5, seed=0)
        flat = sorted(i for fold in folds for i in fold)
        assert flat == list(range(100))
        for fold in folds:
            ones = sum(1 for i in fold if labels[i] == 1)
            assert ones == 8  # 40 positives over 5 folds

    def test_k_bounds(self):
        with pytest.raises(EvalError):
            stratified_folds([0, 1], 1)
        with pytest.raises(EvalError):
            stratified_folds([0, 1], 3)
