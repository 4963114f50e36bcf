"""Fixed 45-column feature vector: 9 descriptors for each of 5 modes.

Per-mode block order: mean absolute value, sample std, RMS, skewness, excess
kurtosis, zero-crossing rate (per second), Shannon entropy (bits, 64-bin
amplitude histogram), Hjorth mobility, Hjorth complexity. Modes the
decomposition did not produce contribute all-zero blocks.

This module also owns the CSV format: `write_csv` writes every table the
pipeline writes, and `read_labeled_csv` checks the manifest and the cache.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .emd import DEFAULT_MAX_IMFS, ImfDecomposition, count_zero_crossings
from .errors import CacheFormatError, TooShort, check_labels
from .signal import _unit_scaled

FEATURE_NAMES = ("mean_abs", "std", "rms", "skewness", "kurtosis",
                 "zcr_hz", "entropy_bits", "hjorth_mobility", "hjorth_complexity")
N_BLOCKS = DEFAULT_MAX_IMFS  # one block per mode of the default decomposition
N_FEATURES = N_BLOCKS * len(FEATURE_NAMES)  # 45
ENTROPY_BINS = 64


@dataclass(frozen=True)
class FeatureVector:
    """One row of exactly 45 finite feature values."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.shape != (N_FEATURES,):
            raise ValueError(f"feature vector must have exactly {N_FEATURES} values")
        if not np.all(np.isfinite(values)):
            raise ValueError("feature values must be finite")


@dataclass
class LabeledDataset:
    """Feature rows with parallel labels, each 0 or 1 (else ValueError, before any cast)."""

    features: np.ndarray          # (n, d)
    labels: np.ndarray            # (n,)
    source_ids: list[str] | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = check_labels(self.labels)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must parallel the feature rows")
        if self.source_ids is not None and len(self.source_ids) != len(self.labels):
            raise ValueError("source_ids must parallel the feature rows")

    def __len__(self) -> int:
        return self.labels.size


def zero_crossing_rate(samples, sample_rate_hz) -> float:
    """Crossings per second: count (emd convention) * rate / (n - 1)."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 2:
        raise TooShort(f"need >= 2 samples, got {x.size}")
    if not sample_rate_hz > 0:  # NaN fails
        raise ValueError("sample rate must be positive")
    return count_zero_crossings(x) * sample_rate_hz / (x.size - 1)


def shannon_entropy(samples) -> float:
    """Entropy in bits of the `ENTROPY_BINS`-bin amplitude histogram over
    [min, max]. A finite range too narrow (a few ulps) or too wide (its span
    overflows) for finite bin edges is binned after mapping it onto [0, 1]."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 2:
        raise TooShort(f"need >= 2 samples, got {x.size}")
    lo, hi = x.min(), x.max()
    if lo == hi:
        return 0.0
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing span raises
            counts, _ = np.histogram(x, bins=ENTROPY_BINS, range=(lo, hi))
    except ValueError:
        if not np.isfinite((lo, hi)).all():
            raise
        x = _unit_scaled(x)[0]
        counts, _ = np.histogram((x - x.min()) / np.ptp(x), bins=ENTROPY_BINS, range=(0.0, 1.0))
    p = counts[counts > 0] / x.size
    return float(-(p * np.log2(p)).sum())


def hjorth(samples):
    """(activity, mobility, complexity) with 0 fallbacks for flat inputs.

    activity = population variance; mobility = sqrt(var(dx)/var(x));
    complexity = mobility(dx)/mobility(x), dx the first difference.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 3:
        raise TooShort(f"need >= 3 samples, got {x.size}")
    if x.min() == x.max():
        return 0.0, 0.0, 0.0
    var_x = float(np.var(x))
    dx = np.diff(x)
    var_dx = float(np.var(dx))
    mobility = np.sqrt(var_dx / var_x) if var_x > 0 else 0.0
    ddx = np.diff(dx)
    mobility_dx = np.sqrt(float(np.var(ddx)) / var_dx) if var_dx > 0 else 0.0
    complexity = mobility_dx / mobility if mobility > 0 else 0.0
    return var_x, float(mobility), float(complexity)


def _shape_moments(x: np.ndarray) -> tuple[float, float]:
    """(skewness, excess kurtosis), both 0 for a flat input."""
    if x.min() == x.max():
        return 0.0, 0.0
    x, e = _unit_scaled(x)  # the mean's sum may overflow
    c = x - x.mean()
    peak = np.abs(c).max()
    if e or not 2.0**-200 < peak < 2.0**200:  # c**4 may under- or overflow: scale c exactly
        c = np.ldexp(c, -np.frexp(peak)[1])
    c2 = c * c
    m2 = np.mean(c2)
    return float(np.mean(c2 * c) / m2**1.5), float(np.mean(c2 * c2) / (m2 * m2) - 3.0)


def _block(x: np.ndarray, sample_rate_hz) -> np.ndarray:
    # every square and sum is taken of x scaled by a power of two; only the
    # first three features depend on scale, and they are scaled back exactly
    x, e = _unit_scaled(x)
    _, mobility, complexity = hjorth(x)
    skewness, kurtosis = _shape_moments(x)
    return np.array([
        np.ldexp(np.mean(np.abs(x)), e),
        np.ldexp(np.std(x, ddof=1), e),
        np.ldexp(np.sqrt(np.mean(x * x)), e),
        skewness,
        kurtosis,
        zero_crossing_rate(x, sample_rate_hz),
        shannon_entropy(x),
        mobility,
        complexity,
    ])


def extract_feature_vector(dec: ImfDecomposition, sample_rate_hz) -> FeatureVector:
    """45 features from a decomposition; absent modes give zero blocks."""
    width = len(FEATURE_NAMES)
    values = np.zeros(N_FEATURES)
    for b in range(min(N_BLOCKS, len(dec.imfs))):
        values[b * width:(b + 1) * width] = _block(dec.imfs[b], sample_rate_hz)
    return FeatureVector(values)


# --- CSV tables ---------------------------------------------------------------

def write_csv(path, header, rows) -> None:
    """Write `header` then `rows` as CSV with LF line endings."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_labeled_csv(path, header, error):
    """Yield (line_no, cells) per row of a CSV whose last column is a 0/1 label.

    Raises `error` for an empty file, another header, a row of the wrong width, any
    other label, a header with no data rows after it, or a line that csv rejects. Rows
    come one at a time, so a caller's own check on a row still finds the first bad line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader, [])
            if found != header:
                raise error(f"line 1: expected {','.join(header)!r}, got {','.join(found)!r}")
            for line_no, cells in enumerate(reader, start=2):
                if len(cells) != len(header):
                    raise error(f"line {line_no}: expected {len(header)} fields, got {len(cells)}")
                if cells[-1] not in ("0", "1"):
                    raise error(f"line {line_no}: label {cells[-1]!r} is not 0 or 1")
                yield line_no, cells
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise error(f"line {reader.line_num}: {exc}") from None
        if reader.line_num == 1:  # the header was the only line
            raise error("no data rows")


CACHE_HEADER = ["source_id"] + [f"f{i + 1}" for i in range(N_FEATURES)] + ["label"]


def write_feature_cache(path, dataset: LabeledDataset) -> None:
    """CSV with 17-significant-digit floats so values round-trip exactly."""
    ids = dataset.source_ids or [""] * len(dataset)
    write_csv(path, CACHE_HEADER,
              ([sid] + [f"{v:.17g}" for v in row] + [str(int(label))]
               for sid, row, label in zip(ids, dataset.features, dataset.labels)))


def read_feature_cache(path) -> LabeledDataset:
    """Load a cache; raises CacheFormatError naming the first malformed line."""
    ids, rows, labels = [], [], []
    for line_no, cells in read_labeled_csv(path, CACHE_HEADER, CacheFormatError):
        try:
            values = [float(v) for v in cells[1:-1]]
        except ValueError:
            raise CacheFormatError(f"line {line_no}: non-numeric value") from None
        if not np.isfinite(values).all():
            raise CacheFormatError(f"line {line_no}: non-finite value")
        ids.append(cells[0])
        rows.append(values)
        labels.append(int(cells[-1]))
    return LabeledDataset(np.asarray(rows), np.asarray(labels), ids)
