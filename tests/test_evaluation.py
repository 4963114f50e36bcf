import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from emdclf import classifiers, evaluation
from emdclf.classifiers import TrainConfig, fit, predict, score
from emdclf.errors import (DimensionMismatch, Empty, SingleClassData,
                           TooFewPerClass)
from emdclf.evaluation import (ConfusionMatrix, confusion, cross_validate,
                               format_summary, metrics, rank_rows, roc,
                               stratified_kfold, write_metrics_csv, write_roc_csv)
from emdclf.features import LabeledDataset

from conftest import two_gaussians


def mann_whitney_auc(scores, labels):
    """O(n^2) pair counting, ties worth one half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def reference_kfold(labels, k, seed):
    """stratified_kfold as first written, on np.unique: the folds, or the
    class that is too small for k."""
    y = np.asarray(labels)
    folds = [[] for _ in range(k)]
    rng = np.random.default_rng(seed)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        if idx.size < k:
            return cls
        perm = rng.permutation(idx)
        for f in range(k):
            folds[f].append(perm[f::k])
    return [np.sort(np.concatenate(parts)) for parts in folds]


@st.composite
def labelled_rows(draw):
    """(labels, k, seed): 1..5 classes of ints (negative ones included),
    floats without NaN or strings, each with at least k rows, in a drawn
    order; `short` takes one class down to 1..k-1 rows."""
    values = draw(st.sampled_from([
        st.integers(-2**63, 2**63 - 1),
        st.floats(allow_nan=False),
        st.text(max_size=4),
    ]))
    classes = draw(st.lists(values, min_size=1, max_size=5, unique_by=repr))  # 0.0 and -0.0 both
    k = draw(st.integers(2, 5))
    counts = [draw(st.integers(k, 3 * k)) for _ in classes]
    if draw(st.booleans()):  # short
        counts[draw(st.integers(0, len(classes) - 1))] = draw(st.integers(1, k - 1))
    rows = [c for c, n in zip(classes, counts) for _ in range(n)]
    labels = np.asarray(draw(st.permutations(rows)), dtype=np.asarray(classes).dtype)
    return labels, k, draw(st.integers(0, 2**32 - 1))


class TestStratifiedKfoldMatchesUnique:
    """Classes come out in np.unique's values and order, so every class
    draws the same permutation and every fold has the same bytes."""

    @given(labelled_rows())
    @example((np.array([1.0, -0.0, 1.0, 0.0, 1.0]), 3, 0))  # one class of two zeros, short
    def test_same_folds_or_same_short_class(self, case):
        labels, k, seed = case
        expected = reference_kfold(labels, k, seed)
        if isinstance(expected, list):
            folds = stratified_kfold(labels, k, seed)
            assert len(folds) == k
            assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                       for a, b in zip(folds, expected))
        else:
            with pytest.raises(TooFewPerClass) as err:
                stratified_kfold(labels, k, seed)
            named = re.fullmatch(r"class (.*) has \d+ rows, need >= \d+", str(err.value), re.S)[1]
            # compared as a value: np.unique names either zero of a 0.0/-0.0 class
            assert labels.dtype.type(named) == expected


class TestStratifiedKfold:
    def test_balanced_ten_rows(self):
        labels = np.array([0] * 5 + [1] * 5)
        folds = stratified_kfold(labels, 5, seed=0)
        for fold in folds:
            assert len(fold) == 2
            assert sorted(labels[fold]) == [0, 1]

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(20, 200))
            labels = rng.integers(0, 2, size=n)
            labels[:10] = [0, 1] * 5
            k = int(rng.integers(2, 6))
            folds = stratified_kfold(labels, k, seed=int(rng.integers(0, 1000)))
            merged = np.concatenate(folds)
            assert len(merged) == n
            assert len(np.unique(merged)) == n
            for cls in (0, 1):
                counts = [int((labels[f] == cls).sum()) for f in folds]
                assert max(counts) - min(counts) <= 1

    def test_seed_determinism(self):
        labels = np.array([0, 1] * 50)
        a = stratified_kfold(labels, 5, seed=42)
        b = stratified_kfold(labels, 5, seed=42)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = stratified_kfold(labels, 5, seed=43)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_too_few_per_class(self):
        with pytest.raises(TooFewPerClass):
            stratified_kfold(np.array([0, 0, 0, 1, 1]), 3, seed=0)

    @pytest.mark.parametrize("k", [1, 2.0, 2.5])
    def test_k_below_two_rejected(self, k):
        with pytest.raises(ValueError):
            stratified_kfold(np.array([0, 1, 0, 1]), k, seed=0)

    def test_no_labels_rejected(self):
        with pytest.raises(Empty):
            stratified_kfold([], 2, seed=0)


class TestConfusion:
    def test_perfect(self):
        cm = confusion([1, 1, 0], [1, 1, 0])
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 1, 0, 0)

    def test_complement(self):
        y = np.array([1, 0, 1, 0])
        cm = confusion(y, 1 - y)
        assert cm.tp == 0 and cm.tn == 0
        assert cm.fn == 2 and cm.fp == 2

    def test_positive_zero(self):
        cm = confusion([1, 1, 0], [1, 0, 0], positive=0)
        assert (cm.tp, cm.fn, cm.tn, cm.fp) == (1, 0, 1, 1)

    def test_matches_recount_loop(self):
        rng = np.random.default_rng(1)
        y_true = rng.integers(0, 2, size=1000)
        y_pred = rng.integers(0, 2, size=1000)
        cm = confusion(y_true, y_pred)
        tp = fn = tn = fp = 0
        for t, p in zip(y_true, y_pred):
            if t == 1 and p == 1:
                tp += 1
            elif t == 1 and p == 0:
                fn += 1
            elif t == 0 and p == 0:
                tn += 1
            else:
                fp += 1
        assert (cm.tp, cm.fn, cm.tn, cm.fp) == (tp, fn, tn, fp)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            confusion([1, 0], [1])

    def test_empty(self):
        with pytest.raises(Empty):
            confusion([], [])


class TestMetrics:
    def test_reference_counts(self):
        # 1187-signal confusion with 56 errors per class
        rep = metrics(ConfusionMatrix(tp=536, fn=56, tn=539, fp=56))
        assert f"{rep.acc:.2f}" == "90.56"
        assert f"{rep.rec:.2f}" == "90.54"
        assert f"{rep.spe:.2f}" == "90.59"
        assert f"{rep.pre:.2f}" == "90.54"
        assert f"{rep.f1:.2f}" == "90.54"

    def test_perfect(self):
        rep = metrics(ConfusionMatrix(tp=5, fn=0, tn=5, fp=0))
        assert (rep.acc, rep.rec, rep.spe, rep.pre, rep.f1) == (100.0,) * 5

    def test_all_wrong(self):
        rep = metrics(ConfusionMatrix(tp=0, fn=3, tn=0, fp=3))
        assert (rep.acc, rep.rec, rep.spe, rep.pre, rep.f1) == (0.0,) * 5

    def test_harmonic_mean_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            cm = ConfusionMatrix(*(int(v) for v in rng.integers(0, 500, size=4)))
            if cm.total == 0:
                continue
            rep = metrics(cm)
            assert rep.acc == pytest.approx(100.0 * (cm.tp + cm.tn) / cm.total)
            if rep.pre + rep.rec > 0:
                assert rep.f1 == pytest.approx(
                    2 * rep.pre * rep.rec / (rep.pre + rep.rec), abs=1e-12)

    def test_empty_matrix(self):
        with pytest.raises(Empty):
            metrics(ConfusionMatrix(0, 0, 0, 0))


class TestRoc:
    def test_perfect_separation(self):
        curve = roc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert curve.auc == 1.0
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0

    def test_all_tied_scores(self):
        curve = roc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert np.array_equal(curve.fpr, [0.0, 1.0])
        assert np.array_equal(curve.tpr, [0.0, 1.0])
        assert curve.auc == 0.5

    def test_matches_mann_whitney(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = 500
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            scores = np.round(rng.random(n), 2)  # force plenty of ties
            curve = roc(scores, labels)
            assert curve.auc == pytest.approx(mann_whitney_auc(scores, labels),
                                              abs=1e-12)

    def test_monotone_curve(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 2, size=300)
        labels[:2] = [0, 1]
        curve = roc(rng.random(300), labels)
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 2, size=200)
        labels[:2] = [0, 1]
        scores = rng.random(200)
        a = roc(scores, labels)
        b = roc(2.0 * scores + 1.0, labels)
        assert np.array_equal(a.fpr, b.fpr)
        assert np.array_equal(a.tpr, b.tpr)
        assert a.auc == pytest.approx(b.auc, abs=1e-15)

    def test_reversed_scores_flip_auc(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 2, size=200)
        labels[:2] = [0, 1]
        scores = rng.random(200)
        assert roc(-scores, labels).auc == pytest.approx(1.0 - roc(scores, labels).auc,
                                                         abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassData):
            roc([0.1, 0.9], [1, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            roc([0.1, 0.2], [1])

    def test_non_finite_score_rejected(self):
        with pytest.raises(ValueError, match="scores must be finite"):
            roc([np.nan, 0.2], [0, 1])

    @pytest.mark.parametrize("stray", [2, 0.5])
    def test_labels_other_than_zero_or_one_rejected(self, stray):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            roc([0.2, 0.8, 0.5, 0.4], [0, 1, stray, 1])


class TestCrossValidate:
    def test_pooled_totals(self, gaussian_data):
        result = cross_validate(TrainConfig("lda"), gaussian_data, k=5, seed=42)
        cm = result.confusion
        assert cm.total == len(gaussian_data)
        assert cm.tp + cm.fn == int((gaussian_data.labels == 1).sum())
        assert cm.tn + cm.fp == int((gaussian_data.labels == 0).sum())

    def test_deterministic(self, gaussian_data):
        config = TrainConfig("bagged_trees", n_trees=5, seed=1)
        a = cross_validate(config, gaussian_data, k=5, seed=7)
        b = cross_validate(config, gaussian_data, k=5, seed=7)
        assert a.confusion == b.confusion
        assert np.array_equal(a.roc.thresholds, b.roc.thresholds)

    @pytest.mark.parametrize("positive", [2, -1, "0", 1.0, None])
    def test_positive_must_be_zero_or_one(self, gaussian_data, positive):
        with pytest.raises(ValueError, match=r"positive must be an integer in \[0, 1\]"):
            cross_validate(TrainConfig("lda"), gaussian_data, k=5, seed=42, positive=positive)

    @pytest.mark.parametrize("n_rows, n_labels", [(10, 12), (12, 10)])
    def test_rows_and_labels_of_different_lengths_rejected(self, monkeypatch, n_rows, n_labels):
        data = SimpleNamespace(features=np.zeros((n_rows, 3)), labels=np.arange(n_labels) % 2)
        monkeypatch.setattr(evaluation, "stratified_kfold", None)  # any fold drawn would raise
        with pytest.raises(ValueError, match="labels must parallel the feature rows"):
            cross_validate(TrainConfig("lda"), data, k=2, seed=0)

    def test_positive_zero_swaps_recall_and_specificity(self, gaussian_data):
        a = cross_validate(TrainConfig("lda"), gaussian_data, k=5, seed=42, positive=1)
        b = cross_validate(TrainConfig("lda"), gaussian_data, k=5, seed=42, positive=0)
        assert a.metrics.rec == pytest.approx(b.metrics.spe)
        assert a.metrics.spe == pytest.approx(b.metrics.rec)
        assert a.metrics.acc == pytest.approx(b.metrics.acc)

    def test_each_fold_scored_once(self, monkeypatch):
        data = two_gaussians(seed=17, n_per_class=40, offset=0.3)
        config = TrainConfig("knn", knn_k=10)
        folds = stratified_kfold(data.labels, 5, seed=3)
        y_true, y_pred, s = [], [], []
        for fold in folds:
            train = np.ones(len(data), dtype=bool)
            train[fold] = False
            model = fit(config, LabeledDataset(data.features[train], data.labels[train]))
            y_true.append(data.labels[fold])
            y_pred.append(predict(model, data.features[fold]))
            s.append(score(model, data.features[fold]))
        y_true, y_pred, s = map(np.concatenate, (y_true, y_pred, s))
        assert np.any(np.isin(s, [0.45, 0.55]))  # the data has kNN vote ties

        calls = []

        def counting_score(model, x):
            calls.append(len(x))
            return score(model, x)

        monkeypatch.setattr(classifiers, "predict", None)  # any call would raise
        monkeypatch.setattr(classifiers, "score", counting_score)
        result = cross_validate(config, data, k=5, seed=3)
        assert calls == [len(fold) for fold in folds]
        assert result.confusion == confusion(y_true, y_pred)
        expected = roc(s, y_true)
        assert np.array_equal(result.roc.points, expected.points)
        assert result.roc.auc == expected.auc

    def test_positive_zero_flips_after_thresholding(self, monkeypatch):
        data = two_gaussians(seed=17, n_per_class=40, offset=0.3)
        config = TrainConfig("bagged_trees", n_trees=4, seed=1)
        folds = stratified_kfold(data.labels, 5, seed=3)
        y_true, y_pred, s = [], [], []
        for fold in folds:
            train = np.ones(len(data), dtype=bool)
            train[fold] = False
            model = fit(config, LabeledDataset(data.features[train], data.labels[train]))
            y_true.append(data.labels[fold])
            y_pred.append(predict(model, data.features[fold]))
            s.append(score(model, data.features[fold]))
        y_true, y_pred, s = map(np.concatenate, (y_true, y_pred, s))
        # four trees split 2-2: a 0.5 score predicts label 1, the negative class here
        assert np.any(s == 0.5)

        monkeypatch.setattr(classifiers, "predict", None)  # any call would raise
        result = cross_validate(config, data, k=5, seed=3, positive=0)
        assert result.confusion == confusion(y_true, y_pred, positive=0)
        expected = roc(1.0 - s, 1 - y_true)
        assert np.array_equal(result.roc.points, expected.points)
        assert result.roc.auc == expected.auc


class TestReportHelpers:
    def rows(self):
        rep_hi = metrics(ConfusionMatrix(9, 1, 9, 1))
        rep_lo = metrics(ConfusionMatrix(6, 4, 6, 4))
        return [("beta", rep_lo, 0.61), ("alpha", rep_hi, 0.95), ("gamma", rep_lo, 0.60)]

    def test_ranked_by_accuracy_then_name(self):
        ranked = rank_rows(self.rows())
        assert [r[0] for r in ranked] == ["alpha", "beta", "gamma"]

    def test_metrics_csv_format(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, rank_rows(self.rows()))
        lines = path.read_text().splitlines()
        assert lines[0] == "algorithm,acc,rec,spe,pre,f1,auc"
        assert lines[1] == "alpha,90.00,90.00,90.00,90.00,90.00,0.9500"

    def test_roc_csv_bytes_equal_savetxt(self, tmp_path):
        # the former writer was np.savetxt with "%.10g" cells
        rng = np.random.default_rng(4)
        for k in (0, 1, 2, 7, 40):
            y = np.r_[0, 1, rng.integers(0, 2, k)]
            curve = roc(rng.standard_normal(y.size) * 10.0 ** rng.integers(-12, 12, y.size), y)
            write_roc_csv(tmp_path / "now.csv", curve)
            with open(tmp_path / "former.csv", "w", newline="") as fh:
                np.savetxt(fh, curve.points, fmt="%.10g", delimiter=",",
                           header="fpr,tpr,threshold", comments="")
            assert (tmp_path / "now.csv").read_bytes() == (tmp_path / "former.csv").read_bytes()

    def test_summary_contains_all_rows(self):
        text = format_summary(self.rows())
        for name in ("alpha", "beta", "gamma"):
            assert name in text
