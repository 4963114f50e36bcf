"""Stratified cross-validation, confusion counts, the five metrics, ROC/AUC.

All out-of-fold predictions are pooled into a single confusion matrix, one
metrics report and one ROC curve per algorithm, so every row contributes
exactly once.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import NamedTuple

import numpy as np

from . import classifiers
from .errors import (DimensionMismatch, Empty, SingleClassData, TooFewPerClass,
                     check_int, check_labels)
from .features import LabeledDataset, write_csv


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts wrt one designated positive class."""

    tp: int
    fn: int
    tn: int
    fp: int

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.tn + self.fp


@dataclass(frozen=True)
class MetricsReport:
    """Accuracy, recall, specificity, precision, F1 — percentages 0..100."""

    acc: float
    rec: float
    spe: float
    pre: float
    f1: float


@dataclass(frozen=True)
class RocCurve:
    """Threshold sweep points (descending thresholds) and trapezoidal AUC."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray
    auc: float

    @property
    def points(self) -> np.ndarray:
        return np.column_stack([self.fpr, self.tpr, self.thresholds])


class CrossValidationResult(NamedTuple):
    confusion: ConfusionMatrix
    metrics: MetricsReport
    roc: RocCurve


def stratified_kfold(labels, k: int, seed: int) -> list[np.ndarray]:
    """Partition indices into k folds with per-class counts differing by <= 1.

    The fold bytes depend on this order: the classes are visited in
    ascending `np.unique(labels)` order, and each draws one permutation of
    its row indices from one `default_rng(seed)`. The first class with fewer
    than k rows raises TooFewPerClass; a k that is not an integer >= 2
    raises ValueError, and no labels at all raise Empty.
    """
    y = np.asarray(labels)
    check_int("k", k, 2)
    if y.size == 0:
        raise Empty("no labels to split into folds")
    folds: list[list[np.ndarray]] = [[] for _ in range(k)]
    rng = np.random.default_rng(seed)
    # np.unique's values without np.unique, which imports numpy.ma (numpy >= 2.3)
    s = np.sort(y, axis=None)
    first = np.ones(s.size, dtype=bool)
    first[1:] = s[1:] != s[:-1]
    for cls in s[first]:
        idx = np.flatnonzero(y == cls)
        if idx.size < k:
            raise TooFewPerClass(f"class {cls} has {idx.size} rows, need >= {k}")
        perm = rng.permutation(idx)
        for f in range(k):
            folds[f].append(perm[f::k])
    return [np.sort(np.concatenate(parts)) for parts in folds]


def confusion(y_true, y_pred, positive=1) -> ConfusionMatrix:
    """Count tp/fn/tn/fp with respect to `positive`."""
    t = np.asarray(y_true)
    p = np.asarray(y_pred)
    if t.shape != p.shape:
        raise DimensionMismatch(f"{t.shape} vs {p.shape}")
    if t.size == 0:
        raise Empty("no elements")
    pos_t = t == positive
    pos_p = p == positive
    return ConfusionMatrix(
        tp=int(np.sum(pos_t & pos_p)),
        fn=int(np.sum(pos_t & ~pos_p)),
        tn=int(np.sum(~pos_t & ~pos_p)),
        fp=int(np.sum(~pos_t & pos_p)),
    )


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """The five standard ratios as percentages; 0 on degenerate denominators."""
    total = cm.total
    if total < 1:
        raise Empty("confusion matrix is empty")

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    acc = (cm.tp + cm.tn) / total
    rec = ratio(cm.tp, cm.tp + cm.fn)
    spe = ratio(cm.tn, cm.tn + cm.fp)
    pre = ratio(cm.tp, cm.tp + cm.fp)
    f1 = ratio(2.0 * pre * rec, pre + rec)
    return MetricsReport(acc=100.0 * acc, rec=100.0 * rec, spe=100.0 * spe,
                         pre=100.0 * pre, f1=100.0 * f1)


def roc(scores, y_true) -> RocCurve:
    """Threshold sweep over the distinct scores, descending; tied scores group.

    AUC is the trapezoidal area, which equals the Mann-Whitney statistic
    with ties counted 1/2.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y_true)
    if s.shape != y.shape:
        raise DimensionMismatch(f"{s.shape} vs {y.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    n_pos = int(np.sum(y == 1))
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassData(f"{n_pos} positive / {n_neg} negative")

    order = np.argsort(-s, kind="stable")
    ss = s[order]
    yy = (y[order] == 1)
    group_end = np.flatnonzero(np.diff(ss) != 0.0)
    group_end = np.append(group_end, ss.size - 1)
    cum_tp = np.cumsum(yy)
    cum_fp = np.cumsum(~yy)
    tpr = np.concatenate([[0.0], cum_tp[group_end] / n_pos])
    fpr = np.concatenate([[0.0], cum_fp[group_end] / n_neg])
    thresholds = np.concatenate([[np.inf], ss[group_end]])
    auc = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1])) / 2.0)
    return RocCurve(fpr=fpr, tpr=tpr, thresholds=thresholds, auc=auc)


def cross_validate(config, data, k: int = 5, seed: int = 0,
                   positive=1) -> CrossValidationResult:
    """Fit on each fold complement, score the fold, pool everything.

    Each fold is scored once; its hard labels are `score >= 0.5`, which is
    how `classifiers.predict` is defined. For `positive=0` the pooled labels,
    hard labels and scores are then flipped once, so a 0.5 score still predicts 1.
    `positive` must be the integer 0 or 1, and every label 0 or 1 (else ValueError).
    """
    check_int("positive", positive, 0, 1)
    X, y = np.asarray(data.features, dtype=np.float64), check_labels(data.labels)
    folds = stratified_kfold(y, k, seed)

    y_true_parts, score_parts = [], []
    for fold in folds:
        train_mask = np.ones(y.size, dtype=bool)
        train_mask[fold] = False
        model = classifiers.fit(config, LabeledDataset(X[train_mask], y[train_mask]))
        y_true_parts.append(y[fold])
        score_parts.append(classifiers.score(model, X[fold]))

    y_true = np.concatenate(y_true_parts)
    s = np.concatenate(score_parts)
    y_pred = (s >= 0.5).astype(np.int64)
    if positive == 0:
        y_true, y_pred, s = 1 - y_true, 1 - y_pred, 1.0 - s

    cm = confusion(y_true, y_pred)
    return CrossValidationResult(cm, metrics(cm), roc(s, y_true))


# --- report files -------------------------------------------------------------

def write_metrics_csv(path, rows) -> None:
    """rows: iterable of (algorithm, MetricsReport, auc). 2-dec %, 4-dec AUC."""
    write_csv(path, ["algorithm", "acc", "rec", "spe", "pre", "f1", "auc"],
              ([name] + [f"{v:.2f}" for v in astuple(rep)] + [f"{auc:.4f}"]
               for name, rep, auc in rows))


def write_roc_csv(path, curve: RocCurve) -> None:
    write_csv(path, ["fpr", "tpr", "threshold"],
              ([f"{v:.10g}" for v in row] for row in curve.points))


def format_confusion_block(name: str, cm: ConfusionMatrix) -> str:
    """Human-readable block used in the evaluation report."""
    return (f"[{name}]\n"
            f"              pred 1    pred 0\n"
            f"  true 1  {cm.tp:>8d}  {cm.fn:>8d}\n"
            f"  true 0  {cm.fp:>8d}  {cm.tn:>8d}\n"
            f"  tp={cm.tp} fn={cm.fn} tn={cm.tn} fp={cm.fp}\n")


def rank_rows(rows):
    """Sort (algorithm, MetricsReport, auc) rows: accuracy desc, name asc."""
    return sorted(rows, key=lambda r: (-r[1].acc, r[0]))


def format_summary(rows) -> str:
    """Ranked plain-text table over the pooled CV metrics."""
    out = [f"{'algorithm':<14} {'acc':>7} {'rec':>7} {'spe':>7} {'pre':>7} "
           f"{'f1':>7} {'auc':>7}"]
    for name, rep, auc in rank_rows(rows):
        out.append(f"{name:<14} {rep.acc:>7.2f} {rep.rec:>7.2f} {rep.spe:>7.2f} "
                   f"{rep.pre:>7.2f} {rep.f1:>7.2f} {auc:>7.4f}")
    return "\n".join(out) + "\n"
