"""Batch front-end: manifest -> decomposition -> features -> comparison report.

Commands
--------
extract    --manifest M --out DIR [--max-imfs 5]
evaluate   --cache F --out DIR [--folds 5] [--seed 42] [--positive 1]
           [--knn-k 10] [--svm-c 1.0] [--trees 30] [--logreg-lambda 1e-4]
decompose  --wav F --out CSV [--max-imfs 5]
version

Exit codes: 0 ok, 2 missing input file or manifest/config problem,
3 audio/extraction failure, 4 evaluation data problem, 1 anything unexpected.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass
from functools import partial
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
    """Every CLI setting, checked on construction; all randomness flows from `seed`."""

    manifest: Path | None = None
    out_dir: Path = Path(".")
    max_imfs: int = DEFAULT_MAX_IMFS
    folds: int = 5
    seed: int = 42
    positive: int = 1
    knn_k: int = TrainConfig.k
    svm_c: float = TrainConfig.c
    n_trees: int = TrainConfig.n_trees
    logreg_lambda: float = TrainConfig.lam

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if not 1 <= self.max_imfs <= 10:
            raise ValueError("max-imfs must be in [1, 10]")
        if self.positive not in (0, 1):
            raise ValueError("positive must be 0 or 1")
        self.train_configs()  # TrainConfig checks k, c, lambda, trees and seed

    def train_configs(self) -> list[TrainConfig]:
        """One TrainConfig per algorithm, in ALGORITHMS order."""
        return [TrainConfig(algorithm=name, k=self.knn_k, c=self.svm_c,
                            lam=self.logreg_lambda, n_trees=self.n_trees,
                            seed=self.seed)
                for name in ALGORITHMS]


def _existing(path) -> Path:
    """`path` as a Path; raises MissingFile unless it names a file."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    return path


def load_manifest(path) -> list[ManifestEntry]:
    """Read `path,label` rows; relative paths resolve against the manifest dir."""
    path = _existing(path)
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


def _decompose_file(path: Path, max_imfs: int):
    """Decode -> z-normalize -> decompose one WAV; returns (signal, decomposition)."""
    sig = z_normalize(decode_wav(_existing(path).read_bytes(), source_id=path.name))
    return sig, decompose(sig, max_imfs=max_imfs)


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
            sig, dec = _decompose_file(entry.path, config.max_imfs)
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


def run_evaluate(config: RunConfig, cache_path) -> list:
    """Cross-validate all five algorithms on one cache with shared folds.

    Writes metrics.csv, roc_<algorithm>.csv x5, confusion.txt and summary.txt
    into the output directory; returns the ranked (name, metrics, auc) rows.
    A missing cache raises MissingFile before anything is read or created.
    """
    data = read_feature_cache(_existing(cache_path))
    config.out_dir.mkdir(parents=True, exist_ok=True)

    rows, blocks = [], []
    for train_config in config.train_configs():
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
    # an absent flag stays off the namespace, so RunConfig supplies its default
    command = partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p = command("extract", help="decode WAVs and write the feature cache")
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--out", dest="out_dir", metavar="OUT", required=True, type=Path)
    p.add_argument("--max-imfs", type=int)

    p = command("evaluate", help="cross-validate the five classifiers")
    p.add_argument("--cache", required=True, type=Path)
    p.add_argument("--out", dest="out_dir", metavar="OUT", required=True, type=Path)
    p.add_argument("--folds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--positive", metavar="{0,1}", type=int)
    p.add_argument("--knn-k", type=int)
    p.add_argument("--svm-c", type=float)
    p.add_argument("--trees", dest="n_trees", metavar="TREES", type=int)
    p.add_argument("--logreg-lambda", type=float)

    p = command("decompose", help="dump one decomposition as CSV")
    p.add_argument("--wav", required=True, type=Path)
    p.add_argument("--out", dest="dump", metavar="OUT", required=True, type=Path)
    p.add_argument("--max-imfs", type=int)

    command("version", help="print the toolkit version")
    return parser


def _exit_code(exc: Exception) -> int:
    for types, code in _EXIT_CODES:
        if isinstance(exc, types):
            return code
    return 1


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
            run_evaluate(config, cache)
            print((config.out_dir / "summary.txt").read_text(), end="")
        elif command == "decompose":
            sig, dec = _decompose_file(wav, config.max_imfs)
            write_decomposition_csv(dump, sig, dec)
            print(f"wrote {dump} ({len(dec.imfs)} modes)")
    except Error as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
