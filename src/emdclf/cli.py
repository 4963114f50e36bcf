"""Batch front-end: manifest -> decomposition -> features -> comparison report.

Commands
--------
extract    --manifest M --out DIR [--max-imfs 5]
evaluate   --cache F --out DIR [--folds 5] [--seed 42] [--positive 1]
           [--knn-k 10] [--svm-c 1.0] [--trees 30] [--logreg-lambda 1e-4]
decompose  --wav F --out CSV [--max-imfs 5]
version

Exit codes: 0 ok, 2 manifest/config problem, 3 audio/extraction failure,
4 evaluation data problem, 1 anything unexpected.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .classifiers import ALGORITHMS, TrainConfig
from .emd import DEFAULT_MAX_IMFS, decompose, write_decomposition_csv
from .errors import (BadHeader, BadLabel, CacheFormatError, DegenerateSignal,
                     EmptyAudio, EmptyManifest, Error, MalformedWav,
                     MissingFile, NoUsableAudio, SingleClassData,
                     TooFewPerClass, UnsupportedEncoding)
from .evaluation import (cross_validate, format_confusion_block, format_summary,
                         rank_rows, write_metrics_csv, write_roc_csv)
from .features import LabeledDataset, extract_feature_vector, read_feature_cache, \
    write_feature_cache
from .signal import decode_wav, z_normalize

_EXIT_CODES = (
    ((MissingFile, BadHeader, BadLabel, EmptyManifest), 2),
    ((MalformedWav, UnsupportedEncoding, EmptyAudio, DegenerateSignal,
      NoUsableAudio), 3),
    ((SingleClassData, TooFewPerClass, CacheFormatError), 4),
)


@dataclass(frozen=True)
class ManifestEntry:
    path: Path
    label: int


@dataclass
class RunConfig:
    """Everything one batch run needs; all randomness flows from `seed`."""

    manifest: Path | None = None
    out_dir: Path = Path(".")
    max_imfs: int = DEFAULT_MAX_IMFS
    folds: int = 5
    seed: int = 42
    positive: int = 1
    knn_k: int = 10
    svm_c: float = 1.0
    n_trees: int = 30
    logreg_lambda: float = 1e-4

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if not 1 <= self.max_imfs <= 10:
            raise ValueError("max-imfs must be in [1, 10]")
        if self.positive not in (0, 1):
            raise ValueError("positive must be 0 or 1")


def load_manifest(path) -> list[ManifestEntry]:
    """Read `path,label` rows; relative paths resolve against the manifest dir."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    base = path.parent
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise BadHeader("manifest is empty") from None
        if header != ["path", "label"]:
            raise BadHeader(f"expected 'path,label', got {','.join(header)!r}")
        entries = []
        for line_no, rec in enumerate(reader, start=2):
            if len(rec) != 2:
                raise BadHeader(f"line {line_no}: expected 2 fields")
            raw_path, raw_label = rec
            if not raw_path:
                raise BadHeader(f"line {line_no}: empty path")
            if raw_label not in ("0", "1"):
                raise BadLabel(f"line {line_no}: {raw_label!r}")
            p = Path(raw_path)
            if not p.is_absolute():
                p = base / p
            entries.append(ManifestEntry(p, int(raw_label)))
    if not entries:
        raise EmptyManifest(str(path))
    return entries


def run_extract(config: RunConfig) -> Path:
    """Decode -> z-normalize -> decompose -> features for every manifest row.

    Per-file failures go to errors.csv and the run continues; raises
    NoUsableAudio only when nothing succeeds. Returns the cache path.
    """
    entries = load_manifest(config.manifest)
    config.out_dir.mkdir(parents=True, exist_ok=True)

    vectors, labels, failures = [], [], []
    for entry in entries:
        try:
            if not entry.path.is_file():
                raise MissingFile(str(entry.path))
            sig = decode_wav(entry.path.read_bytes(), source_id=entry.path.name)
            sig = z_normalize(sig)
            dec = decompose(sig, max_imfs=config.max_imfs)
            vectors.append(extract_feature_vector(dec, sig.sample_rate_hz))
            labels.append(entry.label)
        except (Error, ValueError) as exc:
            failures.append((entry.path.name, f"{type(exc).__name__}: {exc}"))

    errors_path = config.out_dir / "errors.csv"
    with open(errors_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["path", "error"])
        writer.writerows(failures)

    if not vectors:
        raise NoUsableAudio(f"all {len(entries)} files failed; see {errors_path}")

    cache_path = config.out_dir / "features.csv"
    write_feature_cache(cache_path, LabeledDataset.from_feature_vectors(vectors, labels))
    return cache_path


def _train_configs(config: RunConfig) -> list[TrainConfig]:
    return [TrainConfig(algorithm=name, k=config.knn_k, c=config.svm_c,
                        lam=config.logreg_lambda, n_trees=config.n_trees,
                        seed=config.seed)
            for name in ALGORITHMS]


def run_evaluate(config: RunConfig, cache_path) -> list:
    """Cross-validate all five algorithms on one cache with shared folds.

    Writes metrics.csv, roc_<algorithm>.csv x5, confusion.txt and summary.txt
    into the output directory; returns the ranked (name, metrics, auc) rows.
    """
    data = read_feature_cache(cache_path)
    config.out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    blocks = []
    for train_config in _train_configs(config):
        result = cross_validate(train_config, data, k=config.folds,
                                seed=config.seed, positive=config.positive)
        rows.append((train_config.algorithm, result.metrics, result.roc.auc))
        blocks.append(format_confusion_block(train_config.algorithm, result.confusion))
        write_roc_csv(config.out_dir / f"roc_{train_config.algorithm}.csv", result.roc)

    ranked = rank_rows(rows)
    write_metrics_csv(config.out_dir / "metrics.csv", ranked)
    (config.out_dir / "confusion.txt").write_text("\n".join(blocks))
    (config.out_dir / "summary.txt").write_text(format_summary(rows))
    return ranked


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="emdclf",
                                     description="Mode-decomposition audio classifier toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="decode WAVs and write the feature cache")
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--max-imfs", type=int, default=RunConfig.max_imfs)

    p = sub.add_parser("evaluate", help="cross-validate the five classifiers")
    p.add_argument("--cache", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--folds", type=int, default=RunConfig.folds)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--positive", type=int, default=RunConfig.positive, choices=(0, 1))
    p.add_argument("--knn-k", type=int, default=RunConfig.knn_k)
    p.add_argument("--svm-c", type=float, default=RunConfig.svm_c)
    p.add_argument("--trees", type=int, default=RunConfig.n_trees)
    p.add_argument("--logreg-lambda", type=float, default=RunConfig.logreg_lambda)

    p = sub.add_parser("decompose", help="dump one decomposition as CSV")
    p.add_argument("--wav", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--max-imfs", type=int, default=RunConfig.max_imfs)

    sub.add_parser("version", help="print the toolkit version")
    return parser


def _exit_code(exc: Exception) -> int:
    for types, code in _EXIT_CODES:
        if isinstance(exc, types):
            return code
    return 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "version":
            print(__version__)
        elif args.command == "extract":
            config = RunConfig(manifest=args.manifest, out_dir=args.out,
                               max_imfs=args.max_imfs)
            cache = run_extract(config)
            print(f"wrote {cache}")
        elif args.command == "evaluate":
            config = RunConfig(out_dir=args.out, folds=args.folds, seed=args.seed,
                               positive=args.positive, knn_k=args.knn_k,
                               svm_c=args.svm_c, n_trees=args.trees,
                               logreg_lambda=args.logreg_lambda)
            run_evaluate(config, args.cache)
            print((config.out_dir / "summary.txt").read_text(), end="")
        elif args.command == "decompose":
            config = RunConfig(max_imfs=args.max_imfs)
            if not args.wav.is_file():
                raise MissingFile(str(args.wav))
            sig = z_normalize(decode_wav(args.wav.read_bytes(), source_id=args.wav.name))
            dec = decompose(sig, max_imfs=config.max_imfs)
            write_decomposition_csv(args.out, sig, dec)
            print(f"wrote {args.out} ({len(dec.imfs)} modes)")
    except Error as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
