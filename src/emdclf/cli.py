"""Batch front-end: manifest -> decomposition -> features -> comparison report.

Commands
--------
extract    --manifest M --out DIR [--max-imfs 5]
evaluate   --cache F --out DIR [--folds 5] [--seed 42] [--positive 1]
           [--knn-k 10] [--svm-c 1.0] [--trees 30] [--logreg-lambda 1e-4]
decompose  --wav F --out CSV [--max-imfs 5]
version

Exit codes: 0 ok, 2 missing input file, manifest/config problem or a path that cannot
be read or written, 3 audio/extraction failure, 4 evaluation data problem, 1 anything
unexpected. Failures print `error: <Class>: <message>`; argparse's print usage (exit 2).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

from numpy.linalg import LinAlgError

from . import __version__
from .classifiers import ALGORITHMS, TrainConfig
from .emd import DEFAULT_MAX_IMFS, decompose, write_decomposition_csv
from .errors import (CacheFormatError, DegenerateSignal, EmptyAudio, Error,
                     MalformedWav, ManifestFormatError, MissingFile,
                     NoUsableAudio, SingleClassData, TooFewPerClass,
                     UnsupportedEncoding, check_int)
from .evaluation import (cross_validate, format_confusion_block, format_summary,
                         rank_rows, write_metrics_csv, write_roc_csv)
from .features import (N_BLOCKS, LabeledDataset, extract_feature_vector,
                       read_feature_cache, read_labeled_csv, write_csv,
                       write_feature_cache)
from .signal import decode_wav, z_normalize

_FAILURES = (Error, ValueError, OSError)
_EXIT_CODES = (  # first match wins: LinAlgError is a ValueError
    ((SingleClassData, TooFewPerClass, CacheFormatError, LinAlgError), 4),
    ((MissingFile, ManifestFormatError, ValueError, OSError), 2),
    ((MalformedWav, UnsupportedEncoding, EmptyAudio, DegenerateSignal, NoUsableAudio), 3),
)


@dataclass(frozen=True)
class ManifestEntry:
    path: Path
    label: int
    name: str  # the manifest's path cell, as written


@dataclass
class RunConfig:
    """Every CLI setting, checked on construction; all randomness flows from `seed`."""

    manifest: Path | None = None
    out_dir: Path = Path(".")
    max_imfs: int = DEFAULT_MAX_IMFS
    folds: int = 5
    seed: int = 42
    positive: int = 1
    knn_k: int = TrainConfig.knn_k
    svm_c: float = TrainConfig.svm_c
    n_trees: int = TrainConfig.n_trees
    logreg_lambda: float = TrainConfig.logreg_lambda

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        if self.manifest is not None:
            self.manifest = Path(self.manifest)
        check_int("folds", self.folds, 2)
        check_int("max_imfs", self.max_imfs, 1, 10)
        check_int("positive", self.positive, 0, 1)
        self.train_configs()  # TrainConfig checks knn_k, svm_c, ... under these names

    def train_configs(self) -> list[TrainConfig]:
        """One TrainConfig per algorithm, in ALGORITHMS order."""
        settings = {f.name: getattr(self, f.name) for f in fields(TrainConfig)
                    if f.name != "algorithm"}
        return [TrainConfig(algorithm=name, **settings) for name in ALGORITHMS]


def _existing(path) -> Path:
    """`path` as a Path; raises MissingFile unless it names a file."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    return path


def load_manifest(path) -> list[ManifestEntry]:
    """Read `path,label` rows; relative paths resolve against the manifest dir."""
    path = _existing(path)
    entries, first_line = [], {}
    for line_no, (cell, label) in read_labeled_csv(path, ["path", "label"], ManifestFormatError):
        if not cell:
            raise ManifestFormatError(f"line {line_no}: empty path")
        entries.append(ManifestEntry(path.parent / cell, int(label), cell))
        seen = first_line.setdefault(entries[-1].path.resolve(), line_no)
        if seen != line_no:
            raise ManifestFormatError(
                f"line {line_no}: {cell} names the same file as line {seen}")
    return entries


def _decompose_file(path, max_imfs: int, name: str):
    """Decode -> z-normalize -> decompose one WAV, named `name`; returns (signal, dec)."""
    sig = z_normalize(decode_wav(_existing(path).read_bytes(), source_id=name))
    return sig, decompose(sig, max_imfs=max_imfs)


def run_extract(config: RunConfig) -> Path:
    """Decode -> z-normalize -> decompose -> features for every manifest row.

    Per-file failures go to errors.csv and the run continues; if every file
    fails, an old features.csv is deleted and NoUsableAudio raised. Returns the cache path.
    """
    entries = load_manifest(config.manifest)
    config.out_dir.mkdir(parents=True, exist_ok=True)

    max_imfs = min(config.max_imfs, N_BLOCKS)  # features read no later mode
    rows, labels, ids, failures = [], [], [], []
    for entry in entries:
        try:
            sig, dec = _decompose_file(entry.path, max_imfs, entry.name)
            rows.append(extract_feature_vector(dec, sig.sample_rate_hz).values)
            labels.append(entry.label)
            ids.append(entry.name)
        except _FAILURES as exc:
            failures.append((entry.name, f"{type(exc).__name__}: {exc}"))

    errors_path = config.out_dir / "errors.csv"
    write_csv(errors_path, ["path", "error"], failures)

    cache_path = config.out_dir / "features.csv"
    if not rows:
        cache_path.unlink(missing_ok=True)
        raise NoUsableAudio(f"all {len(entries)} files failed; see {errors_path}")
    write_feature_cache(cache_path, LabeledDataset(rows, labels, ids))
    return cache_path


def run_evaluate(config: RunConfig, cache_path) -> list:
    """Cross-validate all five algorithms on one cache with shared folds.

    Writes metrics.csv, roc_<algorithm>.csv x5, confusion.txt and summary.txt
    into the output directory; returns the ranked (name, metrics, auc) rows.
    Nothing is created unless every algorithm's cross-validation completes.
    """
    data = read_feature_cache(_existing(cache_path))
    results = {tc.algorithm: cross_validate(tc, data, k=config.folds, seed=config.seed,
                                            positive=config.positive)
               for tc in config.train_configs()}

    config.out_dir.mkdir(parents=True, exist_ok=True)
    for name, result in results.items():
        write_roc_csv(config.out_dir / f"roc_{name}.csv", result.roc)
    ranked = rank_rows([(name, r.metrics, r.roc.auc) for name, r in results.items()])
    write_metrics_csv(config.out_dir / "metrics.csv", ranked)
    (config.out_dir / "confusion.txt").write_text(
        "\n".join(format_confusion_block(name, r.confusion) for name, r in results.items()))
    (config.out_dir / "summary.txt").write_text(format_summary(ranked))
    return ranked


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="emdclf",
                                     description="Mode-decomposition audio classifier toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    # an absent flag stays off the namespace, so RunConfig supplies its default
    command = partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p = command("extract", help="decode WAVs and write the feature cache")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", dest="out_dir", metavar="OUT", required=True)
    p.add_argument("--max-imfs", type=int)

    p = command("evaluate", help="cross-validate the five classifiers")
    p.add_argument("--cache", required=True, type=Path)
    p.add_argument("--out", dest="out_dir", metavar="OUT", required=True)
    p.add_argument("--folds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--positive", metavar="{0,1}", type=int)
    p.add_argument("--knn-k", type=int)
    p.add_argument("--svm-c", type=float)
    p.add_argument("--trees", dest="n_trees", metavar="TREES", type=int)
    p.add_argument("--logreg-lambda", type=float)

    p = command("decompose", help="dump one decomposition as CSV")
    p.add_argument("--wav", required=True)
    p.add_argument("--out", dest="dump", metavar="OUT", required=True, type=Path)
    p.add_argument("--max-imfs", type=int)

    command("version", help="print the toolkit version")
    return parser


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    # what is left after the command and the non-config paths is RunConfig's
    command, cache, wav, dump = (args.pop(key, None)
                                 for key in ("command", "cache", "wav", "dump"))
    try:
        config = RunConfig(**args)
        if command == "version":
            print(__version__)
        elif command == "extract":
            print(f"wrote {run_extract(config)}")
        elif command == "evaluate":
            print(format_summary(run_evaluate(config, cache)), end="")
        elif command == "decompose":
            sig, dec = _decompose_file(wav, config.max_imfs, wav)
            write_decomposition_csv(dump, sig, dec)
            print(f"wrote {dump} ({len(dec.imfs)} modes)")
    except _FAILURES as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return next((code for types, code in _EXIT_CODES if isinstance(exc, types)), 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
