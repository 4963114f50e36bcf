"""Exception hierarchy for the whole toolkit, and its shared argument rules.

Everything raised on purpose derives from :class:`Error`, so callers (and the
command line front-end, which maps error classes to stable exit codes) can
catch one base type. `check_int` and `check_labels` are the shared argument rules.
"""

from numbers import Integral

import numpy as np


class Error(Exception):
    """Base class for all toolkit errors."""


# --- audio / signal ---------------------------------------------------------

class MalformedWav(Error):
    """Input bytes are not a readable RIFF/WAVE container."""


class UnsupportedEncoding(Error):
    """WAV uses a codec, bit depth or channel count we do not decode."""


class EmptyAudio(Error):
    """Decoded audio has fewer than 2 frames."""


class DegenerateSignal(Error):
    """Constant signal: a sample standard deviation of at most 1e-12 of the
    peak amplitude, so the z-score is undefined."""


# --- decomposition ----------------------------------------------------------

class TooShort(Error):
    """Sequence (or spline knot set) is shorter than the operation requires."""


# --- classifiers ------------------------------------------------------------

class SingleClassData(Error):
    """Training data lacks 2 rows of each class, or ROC labels lack a class."""


class DimensionMismatch(Error):
    """Feature row length differs from the model's, or parallel sequences differ."""


class NonFiniteFeature(Error):
    """NaN or infinity in a feature row."""


# --- evaluation -------------------------------------------------------------

class TooFewPerClass(Error):
    """A class has fewer members than the requested fold count."""


class Empty(Error):
    """No elements to evaluate, or a confusion matrix with zero total count."""


# --- batch front-end --------------------------------------------------------

class MissingFile(Error):
    """Referenced file does not exist."""


class ManifestFormatError(Error):
    """Manifest is not `path,label` CSV: a wrong header or row width, a label not 0 or 1,
    an empty path, a file an earlier row names, no data rows, or a field over 131,072 chars."""


class NoUsableAudio(Error):
    """Every file in the corpus failed to process."""


class CacheFormatError(Error):
    """Feature cache CSV does not match the documented format."""


# --- shared argument rules --------------------------------------------------

def check_int(name: str, value, low=0, high=np.inf) -> None:
    """Raise ValueError unless `value` is a `numbers.Integral` in [low, high]."""
    if not (isinstance(value, Integral) and low <= value <= high):
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")


def check_labels(labels) -> np.ndarray:
    """`labels` as int64; ValueError unless each is 0 or 1, checked before the cast."""
    y = np.asarray(labels)
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("labels must be 0 or 1")
    return y.astype(np.int64, copy=False)
