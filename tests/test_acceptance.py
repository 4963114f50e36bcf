"""Acceptance gate: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import numpy as np
import pytest

from emdclf import emd
from emdclf.classifiers import (TrainConfig, fit, logreg_gradient,
                                logreg_objective, predict)
from emdclf.cli import RunConfig, run_evaluate, run_extract
from emdclf.evaluation import ConfusionMatrix, confusion, cross_validate, metrics, roc
from emdclf.features import LabeledDataset
from emdclf.signal import Signal
from emdclf.synthetic import generate_corpus

from conftest import two_gaussians
from test_emd import natural_spline_oracle
from test_evaluation import mann_whitney_auc

ALGORITHMS = ("knn", "lda", "logreg", "svm_linear", "bagged_trees")


@pytest.fixture(scope="module")
def noise_decompositions():
    """100 random 4096-sample signals, decomposed once for criteria 2 and 3."""
    rng = np.random.default_rng(20260101)
    out = []
    for i in range(100):
        x = rng.standard_normal(4096)
        out.append((x, emd.decompose(Signal(x, 1000, f"noise{i}"))))
    return out


def test_criterion_1_metric_reproduction():
    cm = ConfusionMatrix(tp=536, fn=56, tn=539, fp=56)
    start = time.perf_counter()
    rep = metrics(cm)
    elapsed = time.perf_counter() - start
    rounded = (f"{rep.acc:.2f}", f"{rep.rec:.2f}", f"{rep.spe:.2f}",
               f"{rep.pre:.2f}", f"{rep.f1:.2f}")
    assert rounded == ("90.56", "90.54", "90.59", "90.54", "90.54")
    assert elapsed < 1e-3
    print(f"\ncriterion 1 PASS: acc/rec/spe/pre/f1 = {'/'.join(rounded)} "
          f"in {elapsed * 1e6:.0f} us")


def test_criterion_2_reconstruction(noise_decompositions):
    start = time.perf_counter()
    worst = 0.0
    for x, dec in noise_decompositions:
        err = float(np.abs(dec.reconstruction() - x).max())
        worst = max(worst, err)
    assert worst <= 1e-8
    print(f"criterion 2 PASS: worst reconstruction error {worst:.3e} "
          f"over 100 signals ({time.perf_counter() - start:.1f}s checking)")


def test_criterion_3_imf_validity(noise_decompositions):
    n_imfs = 0
    worst_ratio = 0.0
    for _, dec in noise_decompositions:
        for imf in dec.imfs:
            check = emd.is_imf(imf)
            assert abs(check.zero_crossings - (check.n_maxima + check.n_minima)) <= 1
            assert check.envelope_ratio <= 0.05
            assert check.passed
            worst_ratio = max(worst_ratio, check.envelope_ratio)
            n_imfs += 1
    assert n_imfs > 0
    print(f"criterion 3 PASS: {n_imfs} modes all valid, "
          f"worst envelope ratio {worst_ratio:.4f}")


def test_criterion_4_tone_separation():
    t = np.arange(1000) / 1000.0
    fast = np.sin(2 * np.pi * 50 * t)
    slow = np.sin(2 * np.pi * 5 * t)
    dec = emd.decompose(Signal(fast + slow, 1000, "twotone"))
    assert len(dec.imfs) >= 2
    lo, hi = 50, 950
    r1 = float(np.corrcoef(dec.imfs[0][lo:hi], fast[lo:hi])[0, 1])
    r2 = float(np.corrcoef(dec.imfs[1][lo:hi], slow[lo:hi])[0, 1])
    assert r1 >= 0.95
    assert r2 >= 0.95
    print(f"criterion 4 PASS: corr(imf1, 50Hz) = {r1:.6f}, "
          f"corr(imf2, 5Hz) = {r2:.6f}")


def test_criterion_5_oracle_equivalences():
    rng = np.random.default_rng(55)

    # knn vs exhaustive scan: 200 rows x 50 queries
    X = rng.standard_normal((200, 7))
    y = rng.integers(0, 2, size=200)
    y[:2] = [0, 1]
    queries = rng.standard_normal((50, 7))
    model = fit(TrainConfig("knn", knn_k=10), LabeledDataset(X, y))
    got = predict(model, queries)
    knn_mismatches = 0
    for q, label in zip(queries, got):
        d = np.sqrt(((X - q) ** 2).sum(axis=1))
        order = np.argsort(d, kind="stable")[:10]
        ones = int(y[order].sum())
        expected = int(y[order[0]]) if ones == 5 else int(ones > 5)
        knn_mismatches += label != expected
    assert knn_mismatches == 0

    # spline vs dense tridiagonal oracle, 8 random knots
    worst_spline = 0.0
    for _ in range(20):
        xk = np.sort(rng.choice(np.arange(-8, 72), size=8, replace=False))
        yk = rng.standard_normal(8)
        env = emd.spline_envelope(xk, yk, 64)
        oracle = natural_spline_oracle(xk, yk, np.arange(64, dtype=float))
        worst_spline = max(worst_spline, float(np.abs(env - oracle).max()))
    assert worst_spline <= 1e-9

    # AUC vs pairwise Mann-Whitney
    labels = rng.integers(0, 2, size=500)
    labels[:2] = [0, 1]
    scores = np.round(rng.random(500), 2)
    auc = roc(scores, labels).auc
    auc_err = abs(auc - mann_whitney_auc(scores, labels))
    assert auc_err <= 1e-12

    # confusion vs recount loop
    y_true = rng.integers(0, 2, size=1000)
    y_pred = rng.integers(0, 2, size=1000)
    cm = confusion(y_true, y_pred)
    counts = [0, 0, 0, 0]
    for tv, pv in zip(y_true, y_pred):
        if tv == 1 and pv == 1:
            counts[0] += 1
        elif tv == 1:
            counts[1] += 1
        elif pv == 0:
            counts[2] += 1
        else:
            counts[3] += 1
    assert (cm.tp, cm.fn, cm.tn, cm.fp) == tuple(counts)

    print(f"criterion 5 PASS: knn mismatches 0/50, spline max dev "
          f"{worst_spline:.2e}, auc dev {auc_err:.2e}, confusion exact")


def test_criterion_6_solver_checks():
    rng = np.random.default_rng(66)

    # logreg: gradient norm at the optimum and finite-difference agreement
    X = rng.standard_normal((50, 4))
    y = rng.integers(0, 2, size=50)
    y[:2] = [0, 1]
    model = fit(TrainConfig("logreg"), LabeledDataset(X, y))
    grad_norm = float(np.linalg.norm(
        logreg_gradient(model.params["w"], model.params["b"], X, y.astype(float), 1e-4)))
    assert grad_norm <= 1e-8

    w0 = rng.standard_normal(4)
    b0 = float(rng.standard_normal())
    analytic = logreg_gradient(w0, b0, X, y.astype(float), 1e-4)
    eps = 1e-6
    fd = np.empty(5)
    for j in range(4):
        wp, wm = w0.copy(), w0.copy()
        wp[j] += eps
        wm[j] -= eps
        fd[j] = (logreg_objective(wp, b0, X, y.astype(float), 1e-4)
                 - logreg_objective(wm, b0, X, y.astype(float), 1e-4)) / (2 * eps)
    fd[4] = (logreg_objective(w0, b0 + eps, X, y.astype(float), 1e-4)
             - logreg_objective(w0, b0 - eps, X, y.astype(float), 1e-4)) / (2 * eps)
    fd_rel = float(np.linalg.norm(analytic - fd) / np.linalg.norm(fd))
    assert fd_rel <= 1e-4

    # svm: two-point boundary
    svm = fit(TrainConfig("svm_linear", svm_c=1000.0),
              LabeledDataset(np.array([[-1.0], [1.0]]), np.array([0, 1])))
    svm_boundary = -svm.params["b"] / svm.params["w"][0]
    assert abs(svm_boundary) <= 1e-6

    # lda: symmetric analytic case, boundary on the x1 = 0 axis
    dev = np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]])
    X2 = np.vstack([dev + [-1.0, 0.0], dev + [1.0, 0.0]])
    lda = fit(TrainConfig("lda"), LabeledDataset(X2, np.array([0] * 4 + [1] * 4)))
    lda_boundary = -lda.params["b"] / lda.params["w"][0]
    assert abs(lda_boundary) <= 1e-9
    assert abs(lda.params["w"][1]) <= 1e-12

    print(f"criterion 6 PASS: logreg |grad| {grad_norm:.2e}, fd rel {fd_rel:.2e}, "
          f"svm boundary {svm_boundary:.2e}, lda boundary {lda_boundary:.2e}")


def test_criterion_7_synthetic_classification():
    data = two_gaussians(seed=42, n_per_class=200, dim=2, offset=2.0)
    start = time.perf_counter()
    accs = {}
    for name in ALGORITHMS:
        result = cross_validate(TrainConfig(name, seed=42), data, k=5, seed=42)
        accs[name] = result.metrics.acc
    elapsed = time.perf_counter() - start
    for name, acc in accs.items():
        assert acc >= 93.0, f"{name} at {acc:.2f}%"
    assert elapsed < 30.0
    summary = ", ".join(f"{n} {a:.1f}%" for n, a in accs.items())
    print(f"criterion 7 PASS ({elapsed:.1f}s): {summary}")


def test_criterion_8_end_to_end(tmp_path):
    manifest = generate_corpus(tmp_path / "corpus", n_per_class=60, seed=7)
    report_files = ("features.csv", "errors.csv", "metrics.csv", "confusion.txt",
                    "summary.txt") + tuple(f"roc_{n}.csv" for n in ALGORITHMS)

    def run(out_name):
        config = RunConfig(manifest=manifest, out_dir=tmp_path / out_name,
                           folds=5, seed=42)
        cache = run_extract(config)
        ranked = run_evaluate(config, cache)
        return config.out_dir, ranked

    start = time.perf_counter()
    out1, ranked1 = run("run1")
    out2, ranked2 = run("run2")
    elapsed = time.perf_counter() - start

    best_name, best_metrics, _ = ranked1[0]
    assert best_metrics.acc >= 85.0
    for name in report_files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    print(f"criterion 8 PASS ({elapsed:.1f}s): best {best_name} "
          f"{best_metrics.acc:.2f}%, {len(report_files)} report files byte-identical")


def test_criterion_9_external_corpus_not_asserted(tmp_path):
    # The published 90.56% on the external 1187-signal corpus is not
    # reproducible here (exact features, split and hyperparameters are
    # unknown and the audio is not bundled). This gate only checks that the
    # report format carries the same metric columns, so a user who supplies
    # that corpus can compare numbers directly.
    manifest = generate_corpus(tmp_path / "c", n_per_class=5, seed=1, n_samples=900)
    config = RunConfig(manifest=manifest, out_dir=tmp_path / "o", folds=2, seed=0)
    run_evaluate(config, run_extract(config))
    header = (config.out_dir / "metrics.csv").read_text().splitlines()[0]
    assert header == "algorithm,acc,rec,spe,pre,f1,auc"
    print("criterion 9 PASS: external-corpus accuracy intentionally not "
          "asserted; report columns (acc,rec,spe,pre,f1,auc) allow direct comparison")
