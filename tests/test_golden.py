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

The pins were made with numpy 2.4.6 and scipy 1.17.1 on OpenBLAS's SkylakeX
kernel. Under `OPENBLAS_CORETYPE=Haswell` the `lda`, `logreg` and
`svm_linear` blob pins fail: their fitted weights move in the last bits (at
most 2.8e-15 relative). Every report pin, dump pin and sift count holds.
Given the same inputs, these calls return other bits under Haswell than
under SkylakeX: LDA's `np.linalg.solve`, logreg's `np.linalg.solve` and its
gradient's `X.T @ r`, and the SVM's `w @ Xa[i]`. With those four computed
by numpy reductions and a plain elimination, the three blobs are the same
under both kernels. Under Prescott and Sandybridge the other products move
too (LDA's `c0.T @ c0`, logreg's `X @ w` and `X.T @ Xr`); with every product,
dot and solve in the three fits replaced, all four kernels give the same blobs.
"""

import hashlib

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
    "lda": "0589d17e7e67a2b43d5c4c31347939ff245598722bd33e79612fd06ffdb8a8c0",
    "logreg": "53e8e03ed7712881ad0f92ca40531aee528e1c11428a30ea6a0e0d76c813112e",
    "svm_linear": "6c2c9823c261bc89c51e4c73abbcd0ebeff1c4267f58fbe5e52bf7c54f29add2",
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
