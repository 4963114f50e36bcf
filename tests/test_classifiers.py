import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emdclf.classifiers import (ALGORITHMS, TrainConfig, TrainedModel, fit,
                                logreg_gradient, logreg_objective,
                                model_from_json, model_to_json, predict, score)
from emdclf.errors import (DimensionMismatch, NonFiniteFeature, SingleClassData)
from emdclf.evaluation import cross_validate
from emdclf.features import LabeledDataset

from conftest import two_gaussians


def dataset(X, y):
    return LabeledDataset(np.asarray(X, float), np.asarray(y))


DROP = object()  # marks a model-blob key to delete


def _split(feature, left, right):
    """A bagged-trees split node; a None child is left out."""
    node = {"feature": feature, "threshold": 0.0, "left": left, "right": right}
    return {k: v for k, v in node.items() if v is not None}


def _without_feature_dim(blob):
    return {k: v for k, v in blob.items() if k != "feature_dim"}


def _not_an_object(blob):
    return [1]


def _fractional_feature_dim(blob):
    return {**blob, "feature_dim": 2.5}


class TestTrainConfig:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            TrainConfig("perceptron")

    @pytest.mark.parametrize("kwargs", [dict(k=0), dict(c=0.0), dict(lam=-1.0),
                                        dict(n_trees=0), dict(seed=-1)])
    def test_invalid_hyperparameters(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig("knn", **kwargs)


class TestFitValidation:
    def test_single_class(self):
        with pytest.raises(SingleClassData):
            fit(TrainConfig("knn"), dataset([[0.0], [1.0]], [1, 1]))

    def test_nonfinite(self):
        with pytest.raises(NonFiniteFeature):
            fit(TrainConfig("knn"), dataset([[0.0], [np.nan], [1.0], [2.0]], [0, 0, 1, 1]))

    def test_lda_needs_two_rows_per_class(self):
        with pytest.raises(SingleClassData):
            fit(TrainConfig("lda"), dataset([[0.0], [0.1], [1.0]], [0, 0, 1]))

    def test_predict_dimension_mismatch(self):
        model = fit(TrainConfig("knn"), dataset([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 0, 1, 1]))
        with pytest.raises(DimensionMismatch):
            predict(model, [1.0, 2.0, 3.0])

    def test_predict_nonfinite_query(self):
        model = fit(TrainConfig("knn"), dataset([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 0, 1, 1]))
        with pytest.raises(NonFiniteFeature):
            score(model, [np.inf, 0.0])


class TestKnn:
    def test_nearest_point(self):
        model = fit(TrainConfig("knn", k=1), dataset([[0, 0], [10, 10]], [0, 1]))
        assert predict(model, [1.0, 1.0]) == 0

    def test_three_neighbour_majority(self):
        model = fit(TrainConfig("knn", k=3),
                    dataset([[0, 0], [0.1, 0], [10, 10]], [0, 0, 1]))
        assert predict(model, [5.0, 5.0]) == 0

    def test_vote_fraction_score(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((10, 2))
        y = np.array([1] * 7 + [0] * 3)
        model = fit(TrainConfig("knn", k=10), dataset(X, y))
        # all ten rows are the neighbourhood; 7 of 10 are labeled 1
        assert score(model, [0.0, 0.0]) == pytest.approx(0.7)

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((200, 5))
        y = rng.integers(0, 2, size=200)
        y[:2] = [0, 1]
        queries = rng.standard_normal((50, 5))
        ties = 0
        for k in (1, 3, 10):
            model = fit(TrainConfig("knn", k=k), dataset(X, y))
            got = predict(model, queries)
            got_scores = score(model, queries)
            for q, label, s in zip(queries, got, got_scores):
                d = np.sqrt(((X - q) ** 2).sum(axis=1))  # true Euclidean oracle
                order = np.argsort(d, kind="stable")[:k]
                ones = int(y[order].sum())
                if ones * 2 == k:
                    expected = int(y[order[0]])
                    expected_score = (ones + (0.5 if expected == 1 else -0.5)) / k
                    ties += 1
                else:
                    expected = int(ones * 2 > k)
                    expected_score = ones / k
                assert label == expected
                assert s == expected_score
        assert ties > 0  # the tie branch of the oracle was exercised

    @pytest.mark.parametrize("k", [2, 10])
    def test_vote_tie_leans_to_nearest_neighbour(self, k):
        # rows 0..k-1 on a line, labels alternate 0, 1, ...: every query sees a tie
        X = np.arange(k, dtype=float)[:, None]
        y = np.array([0, 1] * (k // 2))
        model = fit(TrainConfig("knn", k=k), dataset(X, y))
        assert score(model, [-1.0]) == (k // 2 - 0.5) / k  # nearest is row 0, label 0
        assert predict(model, [-1.0]) == 0
        assert score(model, [float(k)]) == (k // 2 + 0.5) / k  # nearest is labelled 1
        assert predict(model, [float(k)]) == 1

    def test_squared_distance_ranking_equals_euclidean(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((100, 4))
        q = rng.standard_normal(4)
        d2 = ((X - q) ** 2).sum(axis=1)
        d = np.sqrt(d2)
        assert np.array_equal(np.argsort(d2, kind="stable"),
                              np.argsort(d, kind="stable"))


class TestLda:
    def analytic_dataset(self):
        # per-class deviations +-e1, +-e2 give a diagonal pooled covariance
        dev = np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]])
        X = np.vstack([dev + [-1.0, 0.0], dev + [1.0, 0.0]])
        y = np.array([0] * 4 + [1] * 4)
        return dataset(X, y)

    def test_symmetric_case_boundary(self):
        model = fit(TrainConfig("lda"), self.analytic_dataset())
        w, b = model.params["w"], model.params["b"]
        assert w[1] == pytest.approx(0.0, abs=1e-12)
        assert w[0] > 0
        assert abs(-b / w[0]) <= 1e-9  # boundary at x1 = 0

    def test_posterior_at_midpoint(self):
        model = fit(TrainConfig("lda"), self.analytic_dataset())
        assert score(model, [0.0, 0.0]) == pytest.approx(0.5, abs=1e-12)
        assert score(model, [5.0, 0.0]) > 0.99

    def test_affine_invariant_predictions(self):
        data = two_gaussians(seed=3, n_per_class=50)
        rng = np.random.default_rng(4)
        A = np.array([[1.5, 0.3], [-0.2, 0.8]])
        shift = rng.standard_normal(2)
        base = fit(TrainConfig("lda"), data)
        mapped = fit(TrainConfig("lda"), LabeledDataset(data.features @ A.T + shift,
                                                        data.labels))
        queries = rng.standard_normal((100, 2)) * 2.0
        assert np.array_equal(predict(base, queries),
                              predict(mapped, queries @ A.T + shift))


class TestLogreg:
    def random_dataset(self, seed, n=40, d=3):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        y = (rng.random(n) < 0.5).astype(int)
        y[:2] = [0, 1]
        return X, y

    def test_gradient_norm_at_convergence(self):
        for seed in range(5):
            X, y = self.random_dataset(seed)
            model = fit(TrainConfig("logreg"), dataset(X, y))
            g = logreg_gradient(model.params["w"], model.params["b"],
                                X, y.astype(float), 1e-4)
            assert np.linalg.norm(g) <= 1e-8

    def test_gradient_matches_finite_differences(self):
        for seed in range(5):
            X, y = self.random_dataset(seed)
            rng = np.random.default_rng(100 + seed)
            w = rng.standard_normal(X.shape[1])
            b = float(rng.standard_normal())
            lam = 1e-4
            yf = y.astype(float)
            analytic = logreg_gradient(w, b, X, yf, lam)
            eps = 1e-6
            fd = np.empty(X.shape[1] + 1)
            for j in range(X.shape[1]):
                wp, wm = w.copy(), w.copy()
                wp[j] += eps
                wm[j] -= eps
                fd[j] = (logreg_objective(wp, b, X, yf, lam)
                         - logreg_objective(wm, b, X, yf, lam)) / (2 * eps)
            fd[-1] = (logreg_objective(w, b + eps, X, yf, lam)
                      - logreg_objective(w, b - eps, X, yf, lam)) / (2 * eps)
            rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
            assert rel <= 1e-4

    def test_midpoint_of_symmetric_clusters(self):
        X = np.array([[-2.0, 0.3], [-2.1, -0.4], [-1.9, 0.1],
                      [2.0, -0.3], [2.1, 0.4], [1.9, -0.1]])
        y = np.array([0, 0, 0, 1, 1, 1])
        model = fit(TrainConfig("logreg"), dataset(X, y))
        assert score(model, [0.0, 0.0]) == pytest.approx(0.5, abs=1e-6)


class TestSvmLinear:
    def test_two_point_max_margin(self):
        model = fit(TrainConfig("svm_linear", c=1000.0),
                    dataset([[-1.0], [1.0]], [0, 1]))
        w, b = model.params["w"], model.params["b"]
        assert abs(-b / w[0]) <= 1e-6              # boundary at 0
        assert abs(w[0]) == pytest.approx(1.0, abs=1e-6)

    def test_separates_clusters(self):
        data = two_gaussians(seed=5, n_per_class=40)
        model = fit(TrainConfig("svm_linear"), data)
        acc = (predict(model, data.features) == data.labels).mean()
        assert acc >= 0.95

    def test_score_consistent_with_predict(self):
        data = two_gaussians(seed=6, n_per_class=30)
        model = fit(TrainConfig("svm_linear"), data)
        queries = data.features
        s = score(model, queries)
        p = predict(model, queries)
        assert np.array_equal(s >= 0.5, p == 1)


class TestBaggedTrees:
    def test_each_tree_pure_on_its_bootstrap(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((60, 4))
        y = rng.integers(0, 2, size=60)
        y[:2] = [0, 1]
        config = TrainConfig("bagged_trees", n_trees=10, seed=11)
        model = fit(config, dataset(X, y))
        from emdclf.classifiers import _tree_predict_one
        for t, tree in enumerate(model.params["trees"]):
            boot = np.random.default_rng([config.seed, t]).integers(0, 60, size=60)
            preds = [_tree_predict_one(tree, row) for row in X[boot]]
            assert np.array_equal(preds, y[boot])

    def test_unanimous_vote_scores_zero_or_one(self):
        data = two_gaussians(seed=8, n_per_class=50)
        model = fit(TrainConfig("bagged_trees", seed=1), data)
        s = score(model, [[-6.0, 0.0], [6.0, 0.0]])
        assert s[0] == 0.0
        assert s[1] == 1.0

    def test_deterministic_given_seed(self):
        data = two_gaussians(seed=9, n_per_class=30)
        m1 = fit(TrainConfig("bagged_trees", seed=21), data)
        m2 = fit(TrainConfig("bagged_trees", seed=21), data)
        assert model_to_json(m1) == model_to_json(m2)
        m3 = fit(TrainConfig("bagged_trees", seed=22), data)
        assert model_to_json(m1) != model_to_json(m3)


class TestScorePredictConsistency:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_threshold_half(self, algorithm, gaussian_data):
        model = fit(TrainConfig(algorithm, seed=3), gaussian_data)
        rng = np.random.default_rng(10)
        queries = rng.standard_normal((200, 2)) * 3.0
        s = np.atleast_1d(score(model, queries))
        p = np.atleast_1d(predict(model, queries))
        assert np.array_equal(s >= 0.5, p == 1)
        assert np.all(s >= 0.0) and np.all(s <= 1.0)

    @pytest.mark.parametrize("algorithm", ["lda", "logreg", "svm_linear"])
    def test_linear_margin_that_rounds_to_half(self, algorithm):
        # sigmoid(-1e-17) rounds to exactly 0.5, yet the margin is negative
        model = TrainedModel(algorithm, 1, {"w": [1.0], "b": 0.0})
        assert score(model, [-1e-17]) < 0.5
        assert predict(model, [-1e-17]) == 0
        assert score(model, [0.0]) == 0.5
        assert predict(model, [0.0]) == 1


@pytest.fixture(scope="module")
def overlapping_models():
    """One model per algorithm, plus even-k kNN, on overlapping classes."""
    data = two_gaussians(seed=16, n_per_class=30, offset=0.5)
    models = {a: fit(TrainConfig(a, n_trees=10, seed=2), data) for a in ALGORITHMS}
    models["knn_k2"] = fit(TrainConfig("knn", k=2), data)
    return models


@pytest.mark.parametrize("name", ALGORITHMS + ("knn_k2",))
@settings(max_examples=40, deadline=None)
@given(queries=arrays(np.float64, st.tuples(st.integers(1, 20), st.just(2)),
                      elements=st.floats(-4.0, 4.0)))
def test_score_predict_contract(overlapping_models, name, queries):
    model = overlapping_models[name]
    s = score(model, queries)
    p = predict(model, queries)
    assert np.all((s >= 0.0) & (s <= 1.0))
    assert np.array_equal(s >= 0.5, p == 1)


class TestDeterminism:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fit_bit_reproducible(self, algorithm):
        data = two_gaussians(seed=12, n_per_class=25)
        m1 = fit(TrainConfig(algorithm, seed=5), data)
        m2 = fit(TrainConfig(algorithm, seed=5), data)
        assert model_to_json(m1) == model_to_json(m2)


class TestSerialization:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_roundtrip_preserves_predictions(self, algorithm):
        data = two_gaussians(seed=13, n_per_class=25)
        model = fit(TrainConfig(algorithm, seed=9), data)
        restored = model_from_json(model_to_json(model))
        assert isinstance(restored, TrainedModel)
        assert restored.feature_dim == model.feature_dim
        rng = np.random.default_rng(14)
        queries = rng.standard_normal((100, 2)) * 3.0
        assert np.array_equal(predict(model, queries), predict(restored, queries))
        assert np.array_equal(np.atleast_1d(score(model, queries)),
                              np.atleast_1d(score(restored, queries)))

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            model_from_json('{"version": 99, "algorithm": "knn", "feature_dim": 1, "params": {}}')

    @pytest.mark.parametrize("algorithm,changes", [
        ("knn", {"k": 0}),
        ("knn", {"X": {"__array__": [[0.0, 1.0, 2.0]] * 10}}),
        ("knn", {"y": {"__array__": [0, 1]}}),
        ("lda", {"w": {"__array__": [1.0, 2.0, 3.0]}}),
        ("bagged_trees", {"trees": [_split(5, {"label": 0}, {"label": 1})]}),
        ("knn", {"y": DROP}),
        ("lda", {"w": DROP}),
        ("knn", _without_feature_dim),
        ("knn", _not_an_object),
        ("lda", _fractional_feature_dim),
        ("bagged_trees", {"trees": []}),
        ("bagged_trees", {"trees": [{"label": 2}]}),
        ("bagged_trees", {"trees": [_split(-1, {"label": 0}, {"label": 1})]}),
        ("bagged_trees", {"trees": [_split(1.0, {"label": 0}, {"label": 1})]}),
        ("bagged_trees", {"trees": [_split(0, {"label": 0}, None)]}),
        ("bagged_trees", {"trees": [_split(0, {"label": 0}, _split(1, {}, {"label": 1}))]}),
        ("bagged_trees", {"trees": [{"feature": 0, "left": {"label": 0},
                                     "right": {"label": 1}}]}),
    ])
    def test_inconsistent_blob_rejected(self, algorithm, changes):
        """`changes` updates the params (DROP deletes a key) or maps the whole blob."""
        model = fit(TrainConfig(algorithm, k=3), two_gaussians(seed=15, n_per_class=5))
        blob = json.loads(model_to_json(model))
        if callable(changes):
            blob = changes(blob)
        else:
            blob["params"].update(changes)
            blob["params"] = {k: v for k, v in blob["params"].items() if v is not DROP}
        with pytest.raises(ValueError):
            model_from_json(json.dumps(blob))


class TestSyntheticBenchmark:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_five_fold_accuracy(self, algorithm, gaussian_data):
        result = cross_validate(TrainConfig(algorithm, seed=42), gaussian_data,
                                k=5, seed=42)
        assert result.metrics.acc >= 93.0
