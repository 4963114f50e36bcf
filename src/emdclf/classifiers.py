"""Five classical binary classifiers behind one fit/predict/score contract.

All of them consume a LabeledDataset (or anything with .features/.labels)
and produce a TrainedModel. Each algorithm has one primitive, `score`: a
confidence for label 1 in [0, 1]. `predict` is defined as `score >= 0.5`,
so hard labels and scores never disagree at the threshold; a kNN vote tie
scores half a vote toward the nearest neighbour's label. Everything is
deterministic given the config (including the bootstrap seed), so repeated
fits are bit-identical.

Algorithms: k-nearest neighbours (squared-Euclidean votes), linear
discriminant analysis (pooled covariance + ridge), logistic regression
(damped Newton, L2), linear soft-margin SVM (dual coordinate descent) and
bagged CART trees (Gini, midpoint thresholds, grown pure).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteFeature, SingleClassData

LDA_RIDGE = 1e-6
LOGREG_TOL = 1e-8
LOGREG_MAX_ITERS = 100
SVM_GAP_TOL = 1e-6
SVM_MAX_EPOCHS = 1000


@dataclass(frozen=True)
class TrainConfig:
    """Algorithm choice plus the per-algorithm hyperparameters."""

    algorithm: str
    k: int = 10                 # knn neighbours
    c: float = 1.0              # svm soft-margin weight
    lam: float = 1e-4           # logreg L2 strength
    n_trees: int = 30           # bagging ensemble size
    seed: int = 0               # bootstrap RNG seed

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.c <= 0:
            raise ValueError("c must be > 0")
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass
class TrainedModel:
    """Fitted parameters of one algorithm; immutable once built."""

    algorithm: str
    feature_dim: int
    params: dict


def _validate_training(data):
    X = np.asarray(data.features, dtype=np.float64)
    y = np.asarray(data.labels, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DimensionMismatch("features must be (n, d) with parallel labels")
    if not np.all(np.isfinite(X)):
        raise NonFiniteFeature("training features contain NaN/Inf")
    n1 = int((y == 1).sum())
    n0 = y.size - n1
    if n0 == 0 or n1 == 0:
        raise SingleClassData(f"need both classes, got {n0} / {n1} rows")
    return X, y


def fit(config: TrainConfig, data) -> TrainedModel:
    """Train one model. Raises SingleClassData / NonFiniteFeature on bad input."""
    X, y = _validate_training(data)
    params = _IMPL[config.algorithm][0](config, X, y)
    return TrainedModel(config.algorithm, X.shape[1], params)


def _as_matrix(model: TrainedModel, x):
    X = np.asarray(x, dtype=np.float64)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    if X.ndim != 2 or X.shape[1] != model.feature_dim:
        raise DimensionMismatch(
            f"expected {model.feature_dim} features, got shape {np.shape(x)}")
    if not np.all(np.isfinite(X)):
        raise NonFiniteFeature("query features contain NaN/Inf")
    return X, single


def predict(model: TrainedModel, x):
    """Hard 0/1 label(s) for a feature row or an (n, d) batch: score >= 0.5."""
    labels = (np.asarray(score(model, x)) >= 0.5).astype(np.int64)
    return int(labels) if labels.ndim == 0 else labels


def score(model: TrainedModel, x):
    """Confidence for label 1 in [0, 1]; `predict` is score >= 0.5.

    kNN scores the vote fraction, and a vote tie adds half a vote toward the
    nearest neighbour's label (0.45 or 0.55 at k=10), which keeps ranking
    monotone. Linear models score the sigmoid of the margin, held below 0.5
    where a negative margin rounds to 0.5. Bagged trees score the vote fraction.
    """
    X, single = _as_matrix(model, x)
    s = _IMPL[model.algorithm][1](model.params, X)
    return float(s[0]) if single else s


# --- knn ----------------------------------------------------------------------

def _fit_knn(config, X, y):
    return {"X": X.copy(), "y": y.copy(), "k": int(config.k)}


def _knn_score(params, X):
    T, yt = params["X"], params["y"]
    k = min(params["k"], T.shape[0])
    # squared distances rank the same as true Euclidean ones
    d2 = (T * T).sum(axis=1)[:, None] - 2.0 * (T @ X.T) + (X * X).sum(axis=1)[None, :]
    order = np.argsort(d2, axis=0, kind="stable")[:k, :]  # stable: index breaks distance ties
    votes = yt[order]
    ones = votes.sum(axis=0)
    # vote tie: half a vote toward the nearest neighbour's label
    return (ones + np.where(2 * ones == k, votes[0] - 0.5, 0.0)) / k


# --- lda ----------------------------------------------------------------------

def _fit_lda(config, X, y):
    d = X.shape[1]
    if int((y == 0).sum()) < 2 or int((y == 1).sum()) < 2:
        raise SingleClassData("pooled covariance needs >= 2 rows per class")
    mu0 = X[y == 0].mean(axis=0)
    mu1 = X[y == 1].mean(axis=0)
    c0 = X[y == 0] - mu0
    c1 = X[y == 1] - mu1
    cov = (c0.T @ c0 + c1.T @ c1) / (X.shape[0] - 2)
    cov = cov + (LDA_RIDGE * np.trace(cov) / d) * np.eye(d)
    w = np.linalg.solve(cov, mu1 - mu0)
    prior1 = (y == 1).mean()
    b = -0.5 * (mu1 + mu0) @ w + np.log(prior1 / (1.0 - prior1))
    return {"w": w, "b": float(b)}


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _linear_score(params, X):
    z = X @ params["w"] + params["b"]
    s = _sigmoid(z)
    # sigmoid rounds to exactly 0.5 for tiny negative z; keep those below 0.5
    s[(z < 0.0) & (s == 0.5)] = np.nextafter(0.5, 0.0)
    return s


# --- logistic regression --------------------------------------------------------

def logreg_objective(w, b, X, y, lam):
    """Regularized negative log-likelihood (weights penalized, bias not)."""
    z = X @ w + b
    nll = float(np.sum(np.logaddexp(0.0, z) - y * z))
    return nll + 0.5 * lam * float(w @ w)


def logreg_gradient(w, b, X, y, lam):
    """Gradient of logreg_objective wrt (w, b), concatenated."""
    p = _sigmoid(X @ w + b)
    r = p - y
    return np.concatenate([X.T @ r + lam * w, [r.sum()]])


def _fit_logreg(config, X, y):
    n, d = X.shape
    lam = config.lam
    yf = y.astype(np.float64)
    w = np.zeros(d)
    b = 0.0
    f = logreg_objective(w, b, X, yf, lam)
    for _ in range(LOGREG_MAX_ITERS):
        g = logreg_gradient(w, b, X, yf, lam)
        if np.linalg.norm(g) <= LOGREG_TOL:
            break
        p = _sigmoid(X @ w + b)
        r = p * (1.0 - p)
        H = np.empty((d + 1, d + 1))
        Xr = X * r[:, None]
        H[:d, :d] = X.T @ Xr + lam * np.eye(d)
        H[:d, d] = Xr.sum(axis=0)
        H[d, :d] = H[:d, d]
        H[d, d] = r.sum()
        step = np.linalg.solve(H, g)
        # damped: halve until the objective actually decreases
        t = 1.0
        gs = float(g @ step)
        for _ in range(60):
            w_new = w - t * step[:d]
            b_new = b - t * step[d]
            f_new = logreg_objective(w_new, b_new, X, yf, lam)
            if f_new <= f - 1e-4 * t * gs:
                break
            t *= 0.5
        w, b, f = w_new, b_new, f_new
    return {"w": w, "b": float(b)}


# --- linear svm -----------------------------------------------------------------

def svm_objective(w_aug, Xa, yy, c):
    """Primal value: 0.5 ||w||^2 + C * sum hinge (bias inside the augmented w)."""
    margins = 1.0 - yy * (Xa @ w_aug)
    return 0.5 * float(w_aug @ w_aug) + c * float(np.clip(margins, 0.0, None).sum())


def _fit_svm(config, X, y):
    n = X.shape[0]
    c = config.c
    # Coordinate descent stalls when columns differ in scale by orders of
    # magnitude, so optimize on standardized columns and fold the affine map
    # back into the returned raw-space weights.
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0.0] = 1.0
    Xa = np.hstack([(X - mu) / sd, np.ones((n, 1))])  # bias as a constant feature
    yy = (2 * y - 1).astype(np.float64)
    qii = (Xa * Xa).sum(axis=1)
    alpha = np.zeros(n)
    w = np.zeros(Xa.shape[1])
    for _ in range(SVM_MAX_EPOCHS):
        changed = 0.0
        for i in range(n):  # deterministic cyclic order, never shuffled
            g = yy[i] * (w @ Xa[i]) - 1.0
            a_old = alpha[i]
            a_new = min(max(a_old - g / qii[i], 0.0), c)
            if a_new != a_old:
                w += (a_new - a_old) * yy[i] * Xa[i]
                alpha[i] = a_new
                changed = max(changed, abs(a_new - a_old))
        dual = alpha.sum() - 0.5 * float(w @ w)
        if svm_objective(w, Xa, yy, c) - dual <= SVM_GAP_TOL:
            break
        if changed == 0.0:
            break
    w_raw = w[:-1] / sd
    b_raw = float(w[-1] - (w[:-1] * mu / sd).sum())
    return {"w": w_raw, "b": b_raw}


# --- bagged CART trees ------------------------------------------------------------

def _gini_best_split(X, y):
    """(feature, midpoint threshold) minimizing weighted Gini, or (None, None)."""
    n = y.size
    total_pos = int(y.sum())
    best = (np.inf, None, None)
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xo = X[order, j]
        yo = y[order]
        boundaries = np.flatnonzero(xo[1:] != xo[:-1])  # split after these positions
        if boundaries.size == 0:
            continue
        cpos = np.cumsum(yo)
        nl = boundaries + 1.0
        nr = n - nl
        pl = cpos[boundaries]
        pr = total_pos - pl
        gini_l = 1.0 - (pl / nl) ** 2 - ((nl - pl) / nl) ** 2
        gini_r = 1.0 - (pr / nr) ** 2 - ((nr - pr) / nr) ** 2
        weighted = (nl * gini_l + nr * gini_r) / n
        i = int(np.argmin(weighted))  # first minimum: lowest threshold wins
        if weighted[i] < best[0]:
            thr = 0.5 * (xo[boundaries[i]] + xo[boundaries[i] + 1])
            best = (weighted[i], j, thr)
    return best[1], best[2]


def _grow_tree(X, y):
    # Iterative build; pure growth can get deep on bootstrap duplicates.
    root: dict = {}
    stack = [(np.arange(y.size), root)]
    while stack:
        idx, node = stack.pop()
        yy = y[idx]
        if (yy == yy[0]).all():
            node["label"] = int(yy[0])
            continue
        feat, thr = _gini_best_split(X[idx], yy)
        if feat is None:
            counts = np.bincount(yy, minlength=2)
            node["label"] = 1 if counts[1] >= counts[0] else 0
            continue
        node["feature"] = int(feat)
        node["threshold"] = float(thr)
        node["left"] = {}
        node["right"] = {}
        mask = X[idx, feat] <= thr
        stack.append((idx[mask], node["left"]))
        stack.append((idx[~mask], node["right"]))
    return root


def _tree_predict_one(node, row):
    while "label" not in node:
        node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
    return node["label"]


def _fit_bagged_trees(config, X, y):
    n = X.shape[0]
    trees = []
    for t in range(config.n_trees):
        rng = np.random.default_rng([config.seed, t])  # per-tree stream from (seed, index)
        idx = rng.integers(0, n, size=n)
        trees.append(_grow_tree(X[idx], y[idx]))
    return {"trees": trees, "n_trees": config.n_trees}


def _bagged_score(params, X):
    votes = np.empty((len(params["trees"]), X.shape[0]), dtype=np.int64)
    for t, tree in enumerate(params["trees"]):
        votes[t] = [_tree_predict_one(tree, row) for row in X]
    return votes.mean(axis=0)  # a tied vote scores 0.5, so it predicts label 1


# name -> (fit, score); this order is the report's block order
_IMPL = {
    "knn": (_fit_knn, _knn_score),
    "lda": (_fit_lda, _linear_score),
    "logreg": (_fit_logreg, _linear_score),
    "svm_linear": (_fit_svm, _linear_score),
    "bagged_trees": (_fit_bagged_trees, _bagged_score),
}
ALGORITHMS = tuple(_IMPL)


# --- serialization -----------------------------------------------------------------

_FORMAT_VERSION = 1


def _encode(obj):
    if not isinstance(obj, (np.ndarray, np.generic)):
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    return {"__array__": obj.tolist()} if isinstance(obj, np.ndarray) else obj.item()


def _decode(obj):
    return np.asarray(obj["__array__"]) if obj.keys() == {"__array__"} else obj


def _trees_fit(trees, d) -> bool:
    stack, ok = list(trees), len(trees) > 0  # iterative: pure-grown trees can be deep
    while ok and stack:
        node = stack.pop()
        if "label" in node:
            ok = type(node["label"]) is int and node["label"] in (0, 1)
        else:
            ok = (type(node["feature"]) is int and 0 <= node["feature"] < d
                  and isinstance(node["threshold"], (int, float)))
            stack += [node["left"], node["right"]]
    return ok


def model_to_json(model: TrainedModel) -> str:
    """Versioned JSON blob; floats keep full precision via repr round-trip."""
    blob = {"version": _FORMAT_VERSION, "algorithm": model.algorithm,
            "feature_dim": model.feature_dim, "params": model.params}
    return json.dumps(blob, default=_encode)


def model_from_json(text: str) -> TrainedModel:
    """Rebuild a model from `model_to_json` output.

    Raises ValueError unless the text is a JSON object of this version and a
    known algorithm, every key is present with the right type, `feature_dim`
    d is an integer >= 1 and the params fit d: kNN needs an integer k >= 1,
    X of shape (n, d) and n labels; linear models need w of shape (d,);
    bagged_trees needs >= 1 tree of 0/1 leaves and of splits on an integer
    feature in [0, d) with a numeric threshold and both children.
    """
    try:
        blob = json.loads(text, object_hook=_decode)
        algorithm, version = blob.get("algorithm"), blob.get("version")
        if version != _FORMAT_VERSION or algorithm not in ALGORITHMS:
            raise ValueError(f"unsupported {algorithm!r} blob version {version!r}")
        d, params = blob["feature_dim"], blob["params"]
        if algorithm == "knn":
            X, y, k = params["X"], params["y"], params["k"]
            ok = type(k) is int and k >= 1 and np.ndim(y) == 1 and np.shape(X) == (len(y), d)
        elif algorithm == "bagged_trees":
            ok = _trees_fit(params["trees"], d)
        else:
            ok = np.shape(params["w"]) == (d,)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed model blob: {exc!r}") from exc
    if not (ok and type(d) is int and d >= 1):
        raise ValueError(f"{algorithm} blob params are invalid for feature_dim {d!r}")
    return TrainedModel(algorithm, d, params)
