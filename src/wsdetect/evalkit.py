"""Evaluation metrics, dataset hygiene, folds and hyperparameter search."""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

from wsdetect.files import read_each


class EvalError(Exception):
    pass


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise EvalError("confusion matrix counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricReport:
    """Percentages in [0, 100]. A metric whose denominator was zero is
    reported as 0 and listed in `undefined`."""

    accuracy: float
    precision: float
    recall: float
    specificity: float
    f1: float
    fpr: float
    fnr: float
    undefined: tuple[str, ...] = ()

    def as_dict(self, digits: int | None = 2) -> dict:
        values = {
            "accuracy": self.accuracy, "precision": self.precision,
            "recall": self.recall, "specificity": self.specificity,
            "f1": self.f1, "fpr": self.fpr, "fnr": self.fnr,
        }
        if digits is not None:
            values = {k: round(v, digits) for k, v in values.items()}
        if self.undefined:
            values["undefined"] = list(self.undefined)
        return values


def metrics(cm: ConfusionMatrix) -> MetricReport:
    """Standard binary-classification panel from a confusion matrix.

    accuracy = (TP+TN)/total, precision = TP/(TP+FP), recall = TP/(TP+FN),
    specificity = TN/(TN+FP), F1 = 2TP/(2TP+FP+FN), FPR = FP/(FP+TN),
    FNR = FN/(FN+TP). All as percentages, full precision retained.
    """
    if cm.total == 0:
        raise EvalError("metrics need at least one counted instance")
    undefined: list[str] = []

    def ratio(name: str, num: int, den: int) -> float:
        if den == 0:
            undefined.append(name)
            return 0.0
        return 100.0 * num / den

    report = MetricReport(
        accuracy=ratio("accuracy", cm.tp + cm.tn, cm.total),
        precision=ratio("precision", cm.tp, cm.tp + cm.fp),
        recall=ratio("recall", cm.tp, cm.tp + cm.fn),
        specificity=ratio("specificity", cm.tn, cm.tn + cm.fp),
        f1=ratio("f1", 2 * cm.tp, 2 * cm.tp + cm.fp + cm.fn),
        fpr=ratio("fpr", cm.fp, cm.fp + cm.tn),
        fnr=ratio("fnr", cm.fn, cm.fn + cm.tp),
        undefined=tuple(undefined),
    )
    return report


def confusion_from_predictions(y_true, y_pred) -> ConfusionMatrix:
    tp = fp = fn = tn = 0
    for truth, pred in zip(y_true, y_pred, strict=True):
        if truth == 1 and pred == 1:
            tp += 1
        elif truth == 0 and pred == 1:
            fp += 1
        elif truth == 1 and pred == 0:
            fn += 1
        else:
            tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


def auc_score(y_true, scores) -> float:
    """Rank-based (Mann-Whitney) AUC of the positive-class scores."""
    pairs = sorted(zip(scores, y_true), key=lambda t: t[0])
    n_pos = sum(1 for _, y in pairs if y == 1)
    n_neg = len(pairs) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvalError("AUC needs both classes present")
    # average ranks over tied scores
    ranks = [0.0] * len(pairs)
    i = 0
    while i < len(pairs):
        j = i
        while j + 1 < len(pairs) and pairs[j + 1][0] == pairs[i][0]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[k] = mean_rank
        i = j + 1
    rank_sum_pos = sum(r for r, (_, y) in zip(ranks, pairs) if y == 1)
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2
    return u / (n_pos * n_neg)


# --- dataset splitting -----------------------------------------------------

@dataclass(frozen=True)
class DatasetItem:
    key: str
    label: int = 0
    source: str = ""


def split_dataset(items: list[DatasetItem], ratio: float = 0.8, seed: int = 0,
                  by_source: bool = False,
                  ) -> tuple[list[DatasetItem], list[DatasetItem]]:
    """Train/test split, default 8:2.

    Stratified random by label, or (with `by_source`) whole sources are
    assigned to one side, greedily filling the train side toward the
    ratio, largest source first.
    """
    if not items:
        raise EvalError("cannot split an empty dataset")
    if not 0.0 < ratio < 1.0:
        raise EvalError("split ratio must be in (0, 1)")

    if by_source:
        sources: dict[str, list[DatasetItem]] = {}
        for item in items:
            sources.setdefault(item.source, []).append(item)
        if len(sources) < 2:
            raise EvalError("by-source splitting needs at least two sources")
        target = ratio * len(items)
        train: list[DatasetItem] = []
        test: list[DatasetItem] = []
        ordered = sorted(sources.items(), key=lambda kv: (-len(kv[1]), kv[0]))
        filled = 0
        for _, group in ordered:
            if filled + len(group) <= target or not train:
                train.extend(group)
                filled += len(group)
            else:
                test.extend(group)
        return train, test

    rng = random.Random(seed)
    by_label: dict[int, list[DatasetItem]] = {}
    for item in items:
        by_label.setdefault(item.label, []).append(item)
    train, test = [], []
    for label in sorted(by_label):
        group = list(by_label[label])
        rng.shuffle(group)
        cut = round(ratio * len(group))
        train.extend(group[:cut])
        test.extend(group[cut:])
    return train, test


# --- corpus hygiene --------------------------------------------------------

@dataclass
class DedupReport:
    kept: list[str] = field(default_factory=list)
    removed: list[tuple[str, str]] = field(default_factory=list)  # (dup, kept-as)
    unreadable: list[tuple[str, str]] = field(default_factory=list)  # (path, reason)
    digests: dict[str, str] = field(default_factory=dict)  # path -> sha256 hex


def dedup(paths: list[str | Path]) -> DedupReport:
    """Drop byte-identical files; the first occurrence in sorted path
    order is kept. An unreadable file is recorded with its reason (see
    `read_each`), not fatal. `digests` holds the sha256 of every file
    read."""
    report = DedupReport()
    seen: dict[str, str] = {}
    for path, data in read_each(sorted(str(p) for p in paths)):
        if isinstance(data, str):
            report.unreadable.append((path, data))
            continue
        digest = report.digests[path] = hashlib.sha256(data).hexdigest()
        if digest in seen:
            report.removed.append((path, seen[digest]))
        else:
            seen[digest] = path
            report.kept.append(path)
    return report


# --- folds and hyperparameter search ---------------------------------------

def stratified_folds(labels, k: int, seed: int = 0) -> list[list[int]]:
    """Index folds with per-class round-robin assignment after a seeded
    shuffle; deterministic for a given seed."""
    if k < 2:
        raise EvalError("k-fold needs k >= 2")
    if k > len(labels):
        raise EvalError(f"k={k} exceeds the {len(labels)} records")
    rng = random.Random(seed)
    by_label: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        by_label.setdefault(int(label), []).append(i)
    folds: list[list[int]] = [[] for _ in range(k)]
    for label in sorted(by_label):
        idx = by_label[label]
        rng.shuffle(idx)
        for j, i in enumerate(idx):
            folds[j % k].append(i)
    for fold in folds:
        fold.sort()
    return folds


@dataclass(frozen=True)
class Range:
    lo: float
    hi: float
    steps: int

    def __post_init__(self):
        if self.steps < 2:
            raise EvalError("Range needs steps >= 2")
        if not self.lo < self.hi:
            raise EvalError("Range needs lo < hi")

    def points(self) -> list[float]:
        span = self.hi - self.lo
        return [self.lo + span * i / (self.steps - 1) for i in range(self.steps)]


@dataclass(frozen=True)
class Choice:
    values: tuple

    def __post_init__(self):
        if not self.values:
            raise EvalError("Choice must not be empty")

    def points(self) -> list:
        return list(self.values)


@dataclass(frozen=True)
class SearchSpace:
    axes: tuple[tuple[str, Range | Choice], ...]

    @classmethod
    def from_dict(cls, spec: dict) -> "SearchSpace":
        axes = []
        for name, axis in spec.items():
            if isinstance(axis, (Range, Choice)):
                axes.append((name, axis))
            elif "choice" in axis:
                axes.append((name, Choice(tuple(axis["choice"]))))
            elif "range" in axis:
                lo, hi = axis["range"]
                axes.append((name, Range(lo, hi, int(axis.get("steps", 2)))))
            else:
                raise EvalError(f"axis {name!r} needs 'choice' or 'range'")
        return cls(tuple(axes))

    def grid(self) -> list[dict]:
        names = [name for name, _ in self.axes]
        value_lists = [axis.points() for _, axis in self.axes]
        return [dict(zip(names, combo)) for combo in itertools.product(*value_lists)]


@dataclass
class SearchResult:
    best: dict | None
    best_score: float
    leaderboard: list[tuple[dict, float]]
    failures: list[tuple[dict, str]] = field(default_factory=list)


def grid_search(space: SearchSpace, eval_fn) -> SearchResult:
    """Evaluate every grid point; the caller's eval_fn encapsulates the
    k-fold mean score. Ties resolve to the earliest grid point."""
    scored: list[tuple[int, dict, float]] = []
    failures: list[tuple[dict, str]] = []
    for order, point in enumerate(space.grid()):
        try:
            score = float(eval_fn(point))
        except Exception as exc:  # a failing point must not kill the search
            failures.append((point, f"{type(exc).__name__}: {exc}"))
            continue
        scored.append((order, point, score))
    if not scored:
        return SearchResult(best=None, best_score=float("-inf"),
                            leaderboard=[], failures=failures)
    # best score wins; grid order breaks ties
    leaderboard = [(p, s) for _, p, s in
                   sorted(scored, key=lambda t: (-t[2], t[0]))]
    best_point, best_score = leaderboard[0]
    return SearchResult(best=best_point, best_score=best_score,
                        leaderboard=leaderboard, failures=failures)
