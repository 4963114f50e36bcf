"""Envelope-mean sifting into intrinsic mode functions.

The decomposition follows the classic recipe: find local extrema, draw a
cubic envelope through the maxima and another through the minima, subtract
the envelope mean, repeat until the result behaves like a single oscillatory
mode, then peel it off the running residual. Up to five modes are extracted
by default.

Conventions fixed here (and relied on by the tests):

* extrema are strict neighbours; a plateau flanked by strictly smaller
  (larger) values counts once, at its floor midpoint; endpoints never count
* envelopes are natural cubic splines fitted after mirroring the two nearest
  extrema of each kind about both signal endpoints
* a zero crossing is a pair of consecutive samples with strictly opposite
  nonzero signs; zero samples inherit the previous nonzero sign
* a candidate is accepted as a mode when |crossings - extrema| <= 1 and the
  envelope mean stays within 5% of the peak amplitude
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import InsufficientExtrema, InsufficientKnots, TooShort
from .signal import Signal

#: envelope-mean symmetry bound, relative to peak amplitude
SYMMETRY_TOL = 0.05
#: hard cap on sifting iterations per mode
MAX_SIFT_ITERS = 100
#: default number of modes to extract
DEFAULT_MAX_IMFS = 5
#: rows of the decomposition dump formatted per write
_DUMP_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class ExtremaSet:
    """Sample indices of the local maxima and minima of one signal."""

    maxima_idx: np.ndarray
    minima_idx: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "maxima_idx", np.asarray(self.maxima_idx, dtype=np.intp))
        object.__setattr__(self, "minima_idx", np.asarray(self.minima_idx, dtype=np.intp))


@dataclass(frozen=True)
class ImfCheck:
    """Outcome of the mode test, with the counts that went into it."""

    passed: bool
    zero_crossings: int
    n_maxima: int
    n_minima: int
    envelope_ratio: float  # max |envelope mean| / max |signal|, NaN if no envelope

    def __bool__(self) -> bool:
        return self.passed


@dataclass
class ImfDecomposition:
    """Ordered modes plus final residual; imfs + residual reconstruct the input."""

    imfs: list[np.ndarray]
    residual: np.ndarray
    sift_counts: list[int] = field(default_factory=list)
    source_id: str = ""

    def reconstruction(self) -> np.ndarray:
        out = self.residual.copy()
        for imf in self.imfs:
            out += imf
        return out


def find_local_extrema(samples) -> ExtremaSet:
    """Locate strict local maxima and minima.

    Parameters
    ----------
    samples : array_like
        Real sequence, length >= 3.

    Returns
    -------
    ExtremaSet
        Strictly increasing index lists. A plateau (run of equal values
        flanked by strictly smaller/larger ones) yields its midpoint index,
        rounded down. Endpoints are never extrema.

    Notes
    -----
    A sequence with no zero step has no plateau, so its extrema are the
    turns of the step sign and are found without the plateau bookkeeping;
    both ways give the same indices.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 3:
        raise TooShort(f"need >= 3 samples, got {x.size}")
    d = np.diff(x)
    if d.all():  # no zero step, so no plateau: an extremum is a turn of the step sign
        up, down = d[:-1] > 0.0, d[1:] < 0.0
        return ExtremaSet(np.flatnonzero(up & down) + 1, np.flatnonzero(~(up | down)) + 1)
    nz = np.flatnonzero(d != 0.0)
    if nz.size < 2:
        return ExtremaSet(np.empty(0, np.intp), np.empty(0, np.intp))
    a, b = nz[:-1], nz[1:]
    rising = d[a] > 0.0
    falling = d[b] < 0.0
    mid = (a + 1 + b) // 2
    return ExtremaSet(mid[rising & falling], mid[~rising & ~falling])


def spline_envelope(knot_idx, knot_val, n: int) -> np.ndarray:
    """Natural cubic spline through the knots, sampled at positions 0..n-1.

    Parameters
    ----------
    knot_idx : array_like
        Strictly increasing knot positions. May extend beyond [0, n-1]; the
        curve is only evaluated on the integer grid 0..n-1 (end pieces
        extrapolate when a knot range does not cover the grid).
    knot_val : array_like
        Knot values, same length.
    n : int
        Output length.

    Returns
    -------
    ndarray
        Spline values at 0..n-1. Second derivative is zero at the first and
        last knot (natural boundary).

    Raises
    ------
    ValueError
        When the knot arrays differ in length, when `n` is negative, when a
        knot is NaN or the knot span overflows, when the knots are not
        strictly increasing, when a slope between neighbouring knots is
        infinite, or when the system for the interior second derivatives
        (three or more knots) holds an inf or a NaN.

    Notes
    -----
    Piece k, from knot x[k] to x[k+1] = x[k] + h, is evaluated in Horner
    form ``((d*u + c)*u + b)*u + y[k]`` in ``u = t - x[k]``, from the second
    derivatives M: ``b = (y[k+1] - y[k])/h - h*(2*M[k] + M[k+1])/6``,
    ``c = M[k]/2``, ``d = (M[k+1] - M[k])/(6*h)``. It agrees with the
    two-sided cube form to rounding: the tests allow 1e-12 of the larger of
    that form's and the knot values' largest magnitude, plus the smallest
    normal float.
    """
    xk = np.asarray(knot_idx, dtype=np.float64)
    yk = np.asarray(knot_val, dtype=np.float64)
    if xk.size < 2:
        raise InsufficientKnots(f"need >= 2 knots, got {xk.size}")
    if xk.size != yk.size:
        raise ValueError("knot index/value lengths differ")
    if n < 0:
        raise ValueError(f"output length must be >= 0, got {n}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        h = np.diff(xk)
        span = xk[-1] - xk[0]
        # tridiagonal system for the interior second derivatives (three or more knots)
        diag = (h[:-1] + h[1:]) / 3.0
        off = h[1:-1] / 6.0
        slope = np.diff(yk) / h
        rhs = slope[1:] - slope[:-1]
    if not span < np.inf:  # also true for a NaN end knot
        raise ValueError("array must not contain infs or NaNs")
    if np.any(h <= 0):
        raise ValueError("knot indices must be strictly increasing")
    if np.isinf(slope).any():  # an infinite knot value, or finite ones too far apart
        raise ValueError("array must not contain infs or NaNs")

    m = xk.size
    M = np.zeros(m)  # second derivatives, natural ends stay zero
    if m > 2:
        if not (np.isfinite(diag).all() and np.isfinite(rhs).all()):
            raise ValueError("array must not contain infs or NaNs")
        if m == 3:  # one unknown; gtsv rejects empty off-diagonals
            M[1] = rhs[0] / diag[0]
        else:
            _, _, _, M[1:-1], info = dgtsv(off, diag, off, rhs)
            if info != 0:
                raise np.linalg.LinAlgError("singular spline system")

    # Grid point t lies on piece i, between knots i and i + 1, where knot i
    # is the last knot <= t; the end pieces also take the points beyond the
    # outer knots. So piece k >= 1 starts at the first integer >= knot k, and
    # the piece of t is the number of those starts at or before t.
    starts = np.clip(np.ceil(xk[1:-1]), 0, n).astype(np.intp)
    i = np.bincount(starts, minlength=n + 1)[:n].cumsum()
    # Horner form, evaluated in place; g holds each piece's first knot, then
    # each gathered coefficient in turn (mode="clip" lets take write into g
    # directly; every index is in range).
    b = slope - h * (2.0 * M[:-1] + M[1:]) / 6.0
    d = np.diff(M) / (6.0 * h)
    g = xk[:-1].take(i)
    u = np.arange(n, dtype=np.float64)
    u -= g
    out = d.take(i)
    for coef in (M[:-1] / 2.0, b, yk[:-1]):
        out *= u
        out += coef.take(i, out=g, mode="clip")
    return out


def _mirrored_knots(idx: np.ndarray, vals: np.ndarray, n: int):
    # Reflect the two nearest extrema about each endpoint to tame end swing.
    left_i = np.array([-idx[1], -idx[0]], dtype=np.float64)
    left_v = np.array([vals[1], vals[0]])
    right_i = np.array([2 * (n - 1) - idx[-1], 2 * (n - 1) - idx[-2]], dtype=np.float64)
    right_v = np.array([vals[-1], vals[-2]])
    return (np.concatenate([left_i, idx.astype(np.float64), right_i]),
            np.concatenate([left_v, vals, right_v]))


def mean_envelope(samples) -> np.ndarray:
    """Average of the maxima spline and the minima spline.

    Needs at least 2 maxima and 2 minima; raises InsufficientExtrema
    otherwise.
    """
    check, envelope = _check_candidate(np.asarray(samples, dtype=np.float64))
    if envelope is None:
        raise InsufficientExtrema(f"{check.n_maxima} maxima / {check.n_minima} minima")
    return envelope


def count_zero_crossings(samples) -> int:
    """Count sign flips between consecutive samples.

    Only strictly opposite nonzero signs count; zero samples inherit the
    previous nonzero sign (leading zeros have none and never pair).
    """
    x = np.asarray(samples, dtype=np.float64)
    neg = x < 0.0
    if (neg | (x > 0.0)).all():  # no zero and no NaN: every sign is strict
        return int(np.count_nonzero(neg[1:] != neg[:-1]))
    s = np.sign(x)
    s = s[s != 0.0]  # dropping zeros pairs each sign with the previous nonzero one
    return int(np.count_nonzero(s[1:] * s[:-1] < 0.0))


def _check_candidate(x: np.ndarray):
    """Mode test plus the envelope mean it computed (None when unavailable).

    The only place that finds extrema, counts zero crossings and builds the
    envelopes; every other caller reads its result.
    """
    ext = find_local_extrema(x)
    n_max, n_min = ext.maxima_idx.size, ext.minima_idx.size
    crossings = count_zero_crossings(x)
    envelope = None
    ratio = float("nan")
    if n_max >= 2 and n_min >= 2:
        n = x.size
        upper = spline_envelope(*_mirrored_knots(ext.maxima_idx, x[ext.maxima_idx], n), n)
        lower = spline_envelope(*_mirrored_knots(ext.minima_idx, x[ext.minima_idx], n), n)
        envelope = 0.5 * (upper + lower)
        peak = np.abs(x).max()
        ratio = float(np.abs(envelope).max() / peak) if peak > 0 else float("inf")
    passed = (abs(crossings - (n_max + n_min)) <= 1
              and n_max >= 2 and n_min >= 2
              and ratio <= SYMMETRY_TOL)
    return ImfCheck(passed, crossings, n_max, n_min, ratio), envelope


def is_imf(samples) -> ImfCheck:
    """Test whether a sequence already behaves like a single mode.

    True iff (a) zero crossings and extrema counts differ by at most one and
    (b) there are >= 2 maxima and >= 2 minima whose envelope mean stays
    within SYMMETRY_TOL of the peak amplitude. The returned object is truthy
    exactly when the test passes and carries the diagnostic counts.
    """
    return _check_candidate(np.asarray(samples, dtype=np.float64))[0]


def sift(samples, max_iters: int = MAX_SIFT_ITERS):
    """Extract one mode candidate by repeated envelope-mean subtraction.

    Parameters
    ----------
    samples : array_like
        Sequence with >= 2 maxima and >= 2 minima (InsufficientExtrema
        otherwise).
    max_iters : int
        Cap on subtraction steps.

    Returns
    -------
    (ndarray, int, ImfCheck)
        The candidate as a new array (equal to the input if it already
        passes the mode test), the number of subtractions performed, and
        the mode test of the returned candidate, equal to ``is_imf`` of it.
        Sifting stops when the candidate passes, when it has too few
        extrema for an envelope, or after `max_iters` subtractions.
    """
    h = np.array(samples, dtype=np.float64)
    check, envelope = _check_candidate(h)
    if envelope is None:
        raise InsufficientExtrema(f"{check.n_maxima} maxima / {check.n_minima} minima")
    iters = 0
    while not check and envelope is not None and iters < max_iters:
        h = h - envelope
        iters += 1
        check, envelope = _check_candidate(h)
    return h, iters, check


def decompose(signal: Signal, max_imfs: int = DEFAULT_MAX_IMFS) -> ImfDecomposition:
    """Peel off up to `max_imfs` modes from a signal.

    Stops early when the residual runs out of extrema, or when a sift hits
    the iteration cap without passing the mode test (that candidate is
    discarded so every stored mode genuinely passes). The stored modes plus
    the residual always sum back to the input.
    """
    residual = signal.samples.copy()
    imfs: list[np.ndarray] = []
    counts: list[int] = []
    while len(imfs) < max_imfs and residual.size >= 3:
        try:
            h, iters, check = sift(residual)
        except InsufficientExtrema:
            break
        if not check:
            break
        imfs.append(h)
        counts.append(iters)
        residual = residual - h
    return ImfDecomposition(imfs=imfs, residual=residual, sift_counts=counts,
                            source_id=signal.source_id)


def write_decomposition_csv(path_or_file, signal: Signal, dec: ImfDecomposition) -> None:
    """Debug dump: columns t, input, imf1..imf5, residual (empty for absent modes).

    Takes a path or an open text handle and writes the rows into it in
    blocks of ``_DUMP_BLOCK_ROWS``, each value as ``%.17g``; a path is opened
    with ``newline=""`` so every platform writes LF line endings.
    """
    n_cols = max(DEFAULT_MAX_IMFS, len(dec.imfs))
    header = "t,input," + ",".join(f"imf{i + 1}" for i in range(n_cols)) + ",residual"
    t = np.arange(signal.samples.size) / signal.sample_rate_hz
    table = np.column_stack([t, signal.samples, *dec.imfs, dec.residual])
    cells = ["%.17g"] * (2 + len(dec.imfs)) + [""] * (n_cols - len(dec.imfs)) + ["%.17g"]
    row_fmt = ",".join(cells) + "\n"
    is_handle = hasattr(path_or_file, "write")
    with nullcontext(path_or_file) if is_handle else open(path_or_file, "w", newline="") as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), _DUMP_BLOCK_ROWS):
            block = table[start:start + _DUMP_BLOCK_ROWS]
            fh.write(row_fmt * len(block) % tuple(block.ravel().tolist()))
