"""Byte-level pin of the batch outputs on a small seeded corpus.

The corpus (seed 3, 8 files per class, 2000 samples) exercises both early
stops of `decompose`: in tone_000 the fifth sift hits the iteration cap
without passing the mode test, and in tone_004 the residual runs out of
extrema after three modes. A refactor must leave every digest and count
below as it is. The serializers are pinned too: the `decompose` dump of
both early-stop files, the one-mode dump of a 2^16-sample recording (its
spline solves run over thousands of knots) and the model blob of every
algorithm.

`features.csv`, both `DUMP_SHA256` entries and `LONG_DUMP_SHA256` were
re-pinned once, on purpose, and nothing else with them: the spline came to
evaluate each piece in Horner form and the shape moments to use products in
place of `pow`, which moves mode and feature values in their last bits. The
sift counts, the model blobs and every other report file kept their bytes.
`test_features.py` holds the features to the former kernel and moments
within 1e-10 of each column's largest magnitude.

The pins were made with numpy 2.4.6. The spline solve is LAPACK's dgtsv
from numpy's OpenBLAS 0.3.31, whose bits equal those of scipy 1.17.1's,
which made the pins before it.

The model blobs do not depend on the kernel OpenBLAS selects for the CPU:
no fit or score calls BLAS or LAPACK, so the blobs and the pooled scores
are the same under SkylakeX, Haswell, Sandybridge and Prescott, which
`test_fits_do_not_depend_on_blas_kernel` checks. The `lda`, `logreg` and
`svm_linear` blobs were re-pinned once, on purpose, when the fits stopped
calling BLAS and LAPACK; before that they moved in their last bits under
another kernel. `logreg` still depends on numpy's own CPU dispatch: its
blob moves when numpy's AVX-512 loops are disabled, most likely through the
dispatched `exp` and `logaddexp` of its sigmoid and objective. The scores of
all three linear models pass through that `exp` as well.
"""

import hashlib
import os
import platform
import subprocess
import sys
from glob import glob
from pathlib import Path

import numpy as np
import pytest

from emdclf import emd
from emdclf.classifiers import ALGORITHMS, TrainConfig, fit, model_to_json
from emdclf.cli import RunConfig, load_manifest, run_evaluate, run_extract
from emdclf.signal import decode_wav, encode_wav, z_normalize
from emdclf.synthetic import generate_corpus, noise_burst

from conftest import two_gaussians

REPORT_SHA256 = {
    "confusion.txt": "df4fd68da428ca95ff478b1e1e34502089352222c311189751ec250b38ea0c68",
    "errors.csv": "de5418525a5dc0d4b6d7c88f36bf039c5d4d998a6ba76837e39bb27a5f7f12f1",
    "features.csv": "caee2cb70413de0a694f240f61097f265cb7c83d7c16cab0268cea6423088dbd",
    "metrics.csv": "0fe9f7bd400693a055f456e9cab1c6271888c6efe77c3854a4c055c53f6e269d",
    "roc_bagged_trees.csv": "94c4489ab65279e06a9445fe26a6095ad84077c59d66ac5feae95ef2fbac660d",
    "roc_knn.csv": "fecb2368bccd6534ddc16afaf4e3e0635729dafe3a8b4cb5e0ac076a95c262b1",
    "roc_lda.csv": "01ba2ade895295582fa125d1f6c2aae35c18e6c8cb648aff6b2fcab4f7596482",
    "roc_logreg.csv": "29bbd55d1e22006359b870e2a7fad19b71b7aecc355f700c29c0610e918282ae",
    "roc_svm_linear.csv": "2a8407a6490b258ff6a4229dafa923ee967761addf7837b30ceeb23c6479157e",
    "summary.txt": "a670347772b6054f68dd0d5b425c89a04aa842e6ceeb1c12b33f8328eed42ea6",
}

SIFT_COUNTS = {
    "noise_000.wav": [10, 5, 8, 6, 4],
    "noise_001.wav": [14, 12, 4, 5, 6],
    "noise_002.wav": [18, 5, 13, 13, 3],
    "noise_003.wav": [8, 7, 5, 5, 4],
    "noise_004.wav": [15, 8, 4, 4, 4],
    "noise_005.wav": [14, 8, 7, 2, 5],
    "noise_006.wav": [7, 8, 4, 5, 7],
    "noise_007.wav": [14, 11, 5, 5, 2],
    "tone_000.wav": [20, 15, 1, 4],
    "tone_001.wav": [8, 1, 5, 9, 7],
    "tone_002.wav": [29, 10, 3, 14, 2],
    "tone_003.wav": [37, 15, 3, 5, 2],
    "tone_004.wav": [2, 2, 8],
    "tone_005.wav": [25, 13, 1, 3, 4],
    "tone_006.wav": [35, 20, 3, 7, 5],
    "tone_007.wav": [35, 6, 1, 12, 3],
}

# tone_000 has 4 modes (empty imf5 column), tone_004 has 3
DUMP_SHA256 = {
    "tone_000.wav": "a4c0dfa0e06edc406f2d02de0762d12fe16e4162af8defc86e48a5c854141d43",
    "tone_004.wav": "a56d0394188b5bffeb5ca96f3c515ab8c3cecbe4b83defb64d22b8874c3d3bef",
}

# decompose(max_imfs=1) dump of noise_burst(default_rng([7, 0]), 2**16, 8000)
# after a pcm16 round trip and z-scoring: one mode after 62 sifts
LONG_DUMP_SHA256 = "16f427075a2c1e0eecbb56fb6922a68f2b7a1e84879fcb83f62c481f313c14f6"

# model_to_json of TrainConfig(algorithm, seed=9) on two_gaussians(seed=13, n_per_class=25)
BLOB_SHA256 = {
    "knn": "33c3f2daaffa7545c992c982bfa75e7e69358eeaa972c72eaf9d0be3ff6694da",
    "lda": "dae6c39127c14ccb508f309845a09b72ad06b28ec5d07cf3e6c702c451dccf6b",
    "logreg": "e750c9545749ef6cca1a678ce509e6005710e170c0f7cea3c8485f39522ee6f1",
    "svm_linear": "438c973d415b2276b4846fc3a011ef94adbac1580399f1b2594d6bec90e9fccc",
    "bagged_trees": "61b20730915cda4d7fe7504c9c3c63039a54e32f94ebbb640fd233cab0ffa70e",
}


@pytest.fixture(scope="module")
def golden_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return generate_corpus(root / "corpus", n_per_class=8, seed=3, n_samples=2000)


@pytest.fixture(scope="module")
def golden_run(golden_manifest):
    config = RunConfig(manifest=golden_manifest,
                       out_dir=golden_manifest.parent.parent / "out")
    run_evaluate(config, run_extract(config))
    decs = {}
    for entry in load_manifest(golden_manifest):
        sig = z_normalize(decode_wav(entry.path.read_bytes(), source_id=entry.path.name))
        decs[entry.path.name] = emd.decompose(sig)
    return config.out_dir, decs


def test_report_files_byte_identical(golden_run):
    out, _ = golden_run
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    assert digests == REPORT_SHA256


def test_sift_counts_per_file(golden_run):
    _, decs = golden_run
    assert {name: dec.sift_counts for name, dec in decs.items()} == SIFT_COUNTS


def test_corpus_reaches_both_early_stops(golden_run):
    _, decs = golden_run
    capped = decs["tone_000.wav"].residual
    assert emd.sift(capped)[1] == emd.MAX_SIFT_ITERS
    ext = emd.find_local_extrema(decs["tone_004.wav"].residual)
    assert min(ext.maxima_idx.size, ext.minima_idx.size) < 2


@pytest.mark.parametrize("name", sorted(DUMP_SHA256))
def test_decomposition_dump_bytes(golden_manifest, tmp_path, name):
    wav = golden_manifest.parent / name
    sig = z_normalize(decode_wav(wav.read_bytes(), source_id=name))
    dec = emd.decompose(sig)
    path = tmp_path / "dump.csv"
    emd.write_decomposition_csv(path, sig, dec)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DUMP_SHA256[name]


def test_long_recording_dump_bytes(tmp_path):
    x = noise_burst(np.random.default_rng([7, 0]), 2**16, 8000)
    sig = z_normalize(decode_wav(encode_wav(x, 8000, fmt="pcm16"), source_id="long"))
    dec = emd.decompose(sig, max_imfs=1)
    assert dec.sift_counts == [62]
    path = tmp_path / "dump.csv"
    emd.write_decomposition_csv(path, sig, dec)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LONG_DUMP_SHA256


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_model_blob_bytes(algorithm):
    model = fit(TrainConfig(algorithm, seed=9), two_gaussians(seed=13, n_per_class=25))
    digest = hashlib.sha256(model_to_json(model).encode()).hexdigest()
    assert digest == BLOB_SHA256[algorithm]


# Prints a digest of each algorithm's blob fit (as pinned above) and of its
# pooled five-fold scores on 45 overlapping features, where every product
# runs over 45 or more terms.
_FITS = """
import hashlib
import numpy as np
from conftest import two_gaussians
from emdclf.classifiers import ALGORITHMS, TrainConfig, fit, model_to_json, score
from emdclf.evaluation import stratified_kfold
from emdclf.features import LabeledDataset

wide = two_gaussians(seed=5, n_per_class=40, dim=45, offset=0.3)
for name in ALGORITHMS:
    config = TrainConfig(name, seed=9)
    blob = model_to_json(fit(config, two_gaussians(seed=13, n_per_class=25)))
    print(name, "blob", hashlib.sha256(blob.encode()).hexdigest())
    parts = []
    for fold in stratified_kfold(wide.labels, 5, 0):
        train = np.ones(wide.labels.size, dtype=bool)
        train[fold] = False
        model = fit(config, LabeledDataset(wide.features[train], wide.labels[train]))
        parts.append(score(model, wide.features[fold]))
    print(name, "scores", hashlib.sha256(np.concatenate(parts).tobytes()).hexdigest())
"""

_CPU_ENV = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")

# OPENBLAS_CORETYPE only selects a kernel in numpy's own OpenBLAS (found as
# emd._load_gtsv finds it), and Prescott runs on any x86-64 CPU
needs_openblas_x86 = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64")
    or not glob(np.__path__[0] + ".libs/*openblas64_*"),
    reason="needs x86-64 and the OpenBLAS in numpy's wheel")


def _fit_digests(**cpu_env):
    """{(algorithm, "blob" or "scores"): digest} from a fresh process whose
    kernel and dispatch settings are `cpu_env` and nothing inherited."""
    env = {k: v for k, v in os.environ.items() if k not in _CPU_ENV}
    env.update(cpu_env)
    tests = Path(__file__).parent
    env["PYTHONPATH"] = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    out = subprocess.run([sys.executable, "-c", _FITS], env=env, capture_output=True,
                         text=True, check=True, timeout=300).stdout
    return {tuple(line.split()[:2]): line.split()[2] for line in out.splitlines()}


@pytest.fixture(scope="module")
def default_digests():
    return _fit_digests()


@needs_openblas_x86
def test_fits_do_not_depend_on_blas_kernel(default_digests):
    assert len(default_digests) == 2 * len(ALGORITHMS)
    assert _fit_digests(OPENBLAS_CORETYPE="Prescott") == default_digests


@needs_openblas_x86
def test_fits_do_not_depend_on_numpy_dispatch(default_digests):
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__
    lowered = _fit_digests(NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__))
    # logreg's fit and every linear model's score call numpy's dispatched exp
    exp_free = [("lda", "blob"), ("svm_linear", "blob"), ("knn", "blob"), ("knn", "scores"),
                ("bagged_trees", "blob"), ("bagged_trees", "scores")]
    assert [lowered[key] for key in exp_free] == [default_digests[key] for key in exp_free]
