"""The workloads: inputs made from the seed, one pass, output checks.

Each workload is built in a fresh directory from ``(seed, file index)``
streams, so one seed always gives the same bytes. Building it is the
benchmark's set-up; ``run`` is one pass of the user's path over those inputs,
and every pass over the same inputs must write the same output bytes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from emdclf import cli, emd, features, signal, synthetic
from emdclf.classifiers import ALGORITHMS

import layers
from spans import Tracer

RATE = 8000


@dataclass
class PassResult:
    wall_s: float
    item_s: list[float]       # latency of each item: a file, or the whole pass
    attempted: int
    failed: int


@dataclass
class Checks:
    """Contract checks on the outputs, plus facts the report prints."""

    problems: list[str] = field(default_factory=list)
    decoded: int = 0
    zero_mode: int = 0
    aucs: list[float] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def decomposition(self, source, x, imfs, residual) -> None:
        """Reconstruction within 1e-9 * max|x|, and every mode passes is_imf."""
        self.decoded += 1
        self.zero_mode += not imfs
        total = residual + sum(imfs) if imfs else residual
        err = float(np.abs(total - x).max())
        if err > 1e-9 * float(np.abs(x).max()):
            self.fail(f"{source}: reconstruction error {err:.3g}")
        for k, imf in enumerate(imfs):
            if not emd.is_imf(imf):
                self.fail(f"{source}: stored mode {k + 1} fails is_imf")

    def on_decompose(self, counts, args, kwargs, dec) -> None:
        sig = args[0]
        self.decomposition(sig.source_id, sig.samples, dec.imfs, dec.residual)

    def feature_cache(self, path, rows: int) -> None:
        """45 finite features for each of `rows` decoded files."""
        data = features.read_feature_cache(path)
        if data.features.shape != (rows, features.N_FEATURES):
            self.fail(f"{path.name}: shape {data.features.shape}, "
                      f"want ({rows}, {features.N_FEATURES})")
        elif not np.isfinite(data.features).all():
            self.fail(f"{path.name}: non-finite feature values")

    def metrics_csv(self, path) -> None:
        """One metrics.csv row per algorithm, AUC within [0, 1]."""
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if sorted(r["algorithm"] for r in rows) != sorted(ALGORITHMS):
            self.fail(f"{path}: rows {[r['algorithm'] for r in rows]}")
        for r in rows:
            auc = float(r["auc"])
            if not 0.0 <= auc <= 1.0:
                self.fail(f"{path}: {r['algorithm']} AUC {auc}")
            self.aucs.append(auc)


def digest(out: Path) -> str:
    """SHA-256 over the relative path and contents of every output file."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


class CorpusPipeline:
    """extract then evaluate on the default synthetic corpus (120 short WAVs)."""

    per_class, n_samples = 60, 4000

    def __init__(self, root: Path, seed: int):
        self.manifest = synthetic.generate_corpus(
            root, n_per_class=self.per_class, seed=seed,
            n_samples=self.n_samples, rate=RATE)
        self.files = 2 * self.per_class
        self.samples = self.files * self.n_samples

    def run(self, out: Path, tracer: Tracer | None = None,
            checks: Checks | None = None) -> PassResult:
        # Untraced, a probe wraps only the two per-file calls that bound a
        # file's latency, and decompose when the pass is to be checked.
        probe = tracer or Tracer(layers.MODULES)
        with contextlib.nullcontext() if tracer else probe:
            if tracer is None:
                probe.wrap(signal.decode_wav, "signal.decode_wav")
                probe.wrap(features.extract_feature_vector,
                           "features.extract_feature_vector")
                if checks is not None:
                    probe.wrap(emd.decompose, "emd.decompose", checks.on_decompose)
            config = cli.RunConfig(manifest=self.manifest, out_dir=out)
            start = time.perf_counter()
            cache = cli.run_extract(config)
            cli.run_evaluate(config, cache)
            wall_s = time.perf_counter() - start
        items, begun = [], None
        for name, s, e, _ in probe.spans:
            if name == "signal.decode_wav":
                begun = s
            elif name == "features.extract_feature_vector" and begun is not None:
                items.append(e - begun)
                begun = None
        with open(out / "errors.csv", newline="") as fh:
            failed = sum(1 for _ in fh) - 1
        return PassResult(wall_s, items, self.files, failed)

    def verify(self, out: Path, checks: Checks) -> None:
        checks.feature_cache(out / "features.csv", checks.decoded)
        checks.metrics_csv(out / "metrics.csv")


class LongDecompose:
    """The decompose command on a few long recordings, one dump per file.

    Run with ``--max-imfs 1``: one sift per file. With the default of five,
    a long file takes one sift (the first one hits the iteration cap) or up
    to five, and the pass time moved by a quarter between seeds; one sift
    per file keeps the per-sample work this workload is for. An item is the
    whole pass: per-file times split between capped and converged sifts.
    """

    recordings = (("noise", 2 ** 16), ("tone_in_noise", 2 ** 16)) * 3
    tone_weight = 0.15

    def __init__(self, root: Path, seed: int):
        root.mkdir(parents=True, exist_ok=True)
        self.wavs = []
        for i, (kind, n) in enumerate(self.recordings):
            rng = np.random.default_rng([seed, i])
            x = synthetic.noise_burst(rng, n, RATE)
            if kind == "tone_in_noise":
                w = self.tone_weight
                x = w * synthetic.tone_burst(rng, n, RATE) + (1.0 - w) * x
                x = 0.7 * x / np.abs(x).max()
            wav = root / f"{kind}_{i}.wav"
            wav.write_bytes(signal.encode_wav(x, RATE, fmt="pcm16"))
            self.wavs.append(wav)
        self.files = len(self.wavs)
        self.samples = sum(n for _, n in self.recordings)

    def run(self, out: Path, tracer: Tracer | None = None,
            checks: Checks | None = None) -> PassResult:
        out.mkdir(parents=True, exist_ok=True)
        failed = 0
        start = time.perf_counter()
        for wav in self.wavs:
            with contextlib.redirect_stdout(io.StringIO()):
                failed += 0 != cli.main(["decompose", "--wav", str(wav), "--max-imfs", "1",
                                         "--out", str(out / (wav.stem + ".csv"))])
        wall_s = time.perf_counter() - start
        return PassResult(wall_s, [wall_s], self.files, failed)

    def verify(self, out: Path, checks: Checks) -> None:
        for wav in self.wavs:
            path = out / (wav.stem + ".csv")
            with open(path) as fh:
                fh.readline()
                cols = list(zip(*(line.rstrip("\n").split(",") for line in fh)))
            x = np.array(cols[1], dtype=float)
            imfs = [np.array(c, dtype=float) for c in cols[2:-1] if c[0] != ""]
            checks.decomposition(path.name, x, imfs, np.array(cols[-1], dtype=float))
            expected = signal.z_normalize(signal.decode_wav(wav.read_bytes())).samples
            if not np.array_equal(x, expected):
                checks.fail(f"{path.name}: input column differs from the WAV")


WORKLOADS = {
    "corpus_pipeline": CorpusPipeline,
    "long_decompose": LongDecompose,
}
