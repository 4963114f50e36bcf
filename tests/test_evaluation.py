import numpy as np
import pytest

from emdclf import classifiers
from emdclf.classifiers import TrainConfig, fit, predict, score
from emdclf.errors import (Empty, EmptyMatrix, LengthMismatch,
                           SingleClassLabels, TooFewPerClass)
from emdclf.evaluation import (ConfusionMatrix, confusion, cross_validate,
                               format_summary, metrics, rank_rows, roc,
                               stratified_kfold, write_metrics_csv)
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

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            stratified_kfold(np.array([0, 1, 0, 1]), 1, seed=0)


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
        with pytest.raises(LengthMismatch):
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
        with pytest.raises(EmptyMatrix):
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
        with pytest.raises(SingleClassLabels):
            roc([0.1, 0.9], [1, 1])


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

    def test_positive_zero_swaps_recall_and_specificity(self, gaussian_data):
        a = cross_validate(TrainConfig("lda"), gaussian_data, k=5, seed=42, positive=1)
        b = cross_validate(TrainConfig("lda"), gaussian_data, k=5, seed=42, positive=0)
        assert a.metrics.rec == pytest.approx(b.metrics.spe)
        assert a.metrics.spe == pytest.approx(b.metrics.rec)
        assert a.metrics.acc == pytest.approx(b.metrics.acc)

    def test_each_fold_scored_once(self, monkeypatch):
        data = two_gaussians(seed=17, n_per_class=40, offset=0.3)
        config = TrainConfig("knn", k=10)
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

    def test_summary_contains_all_rows(self):
        text = format_summary(self.rows())
        for name in ("alpha", "beta", "gamma"):
            assert name in text
