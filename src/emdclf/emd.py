"""Envelope-mean sifting into intrinsic mode functions.

The decomposition follows the classic recipe: find local extrema, draw a
cubic envelope through the maxima and another through the minima, subtract
the envelope mean, repeat until the result behaves like a single oscillatory
mode, then peel it off the running residual. Up to five modes are extracted
by default.

Conventions fixed here (and relied on by the tests):

* extrema are strict neighbours; a plateau flanked by strictly smaller
  (larger) values counts once, at its floor midpoint; endpoints never count
* envelopes are natural cubic splines through each kind's extrema and the two
  nearest mirrored about both ends; one solve and one evaluator serve both
  envelopes, drawn in fixed-size blocks of grid points and summed in place
* a zero crossing is a pair of consecutive samples with strictly opposite
  nonzero signs; zero samples inherit the previous nonzero sign
* a candidate is accepted as a mode when |crossings - extrema| <= 1 and the
  envelope mean stays within 5% of the peak amplitude
* the spline system is solved by LAPACK's dgtsv from numpy's own OpenBLAS;
  scipy's wrapper of it, with the same bytes, only where numpy lacks it
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from glob import glob

import numpy as np

from .errors import InsufficientExtrema, TooShort, check_int
from .signal import Signal

#: envelope-mean symmetry bound, relative to peak amplitude
SYMMETRY_TOL = 0.05
#: hard cap on sifting iterations per mode
MAX_SIFT_ITERS = 100
#: default number of modes to extract
DEFAULT_MAX_IMFS = 5
#: rows of the decomposition dump formatted per write
_DUMP_BLOCK_ROWS = 4096
#: points of the stacked spline grid evaluated at a time (64 KB per float buffer)
_GRID_BLOCK = 8192


@dataclass(frozen=True)
class ExtremaSet:
    """Sample indices (intp arrays) of the local maxima and minima of one signal."""

    maxima_idx: np.ndarray
    minima_idx: np.ndarray


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
        When the knot arrays differ in length, when `n` is not an integer >= 0,
        when a knot is NaN or the knot span overflows, when the knots are not
        strictly increasing, when a slope between neighbouring knots is
        infinite, or when the system for the interior second derivatives
        (three or more knots) holds an inf or a NaN.

    Notes
    -----
    Piece k is evaluated in Horner form ``((d*u + c)*u + b)*u + y[k]`` in
    ``u = t - x[k]``, from h = x[k+1] - x[k] and the second derivatives M:
    ``b = (y[k+1] - y[k])/h - h*(2*M[k] + M[k+1])/6``, ``c = M[k]/2``,
    ``d = (M[k+1] - M[k])/(6*h)``. It agrees with the two-sided cube form to
    rounding (the tests allow 1e-12 of the larger of that form's and the knot
    values' largest magnitude, plus the smallest normal float).
    """
    xk = np.asarray(knot_idx, dtype=np.float64)
    yk = np.asarray(knot_val, dtype=np.float64)
    if xk.size < 2:
        raise TooShort(f"need >= 2 knots, got {xk.size}")
    if xk.size != yk.size:
        raise ValueError("knot index/value lengths differ")
    check_int("output length n", n)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        span, h = xk[-1] - xk[0], np.diff(xk)
    if not span < np.inf:  # also true for a NaN end knot
        raise ValueError("array must not contain infs or NaNs")
    if np.any(h <= 0):
        raise ValueError("knot indices must be strictly increasing")
    return _splines(xk, yk, xk.size, n)


def _load_gtsv(libs: str = np.__path__[0] + ".libs"):
    """LAPACK's dgtsv as ``gtsv(dl, d, du, b) -> info``, solving in place into
    `b`: ``scipy_dgtsv_64_`` of the OpenBLAS that numpy's wheel keeps in `libs`
    and has loaded, or scipy's wrapper of the same routine if that is missing."""
    try:
        fn = ctypes.CDLL(glob(libs + "/*openblas64_*")[0]).scipy_dgtsv_64_
    except (IndexError, OSError, AttributeError):  # no such library, or no such symbol
        from scipy.linalg.lapack import dgtsv

        def scipy_gtsv(dl, d, du, b):
            return dgtsv(dl, d, du, b, overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1)[-1]
        return scipy_gtsv
    i64, f64 = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
    fn.argtypes, fn.restype = [i64, i64, f64, f64, f64, f64, i64, i64], None
    buf = ctypes.c_double.from_buffer  # raises for a non-contiguous or read-only array

    def numpy_gtsv(dl, d, du, b):
        if not (d.size == b.size == dl.size + 1 == du.size + 1
                and dl.dtype == d.dtype == du.dtype == b.dtype == np.float64):
            raise ValueError("gtsv needs float64 arrays of sizes n - 1, n, n - 1 and n")
        n, info = ctypes.c_int64(b.size), ctypes.c_int64()  # per call, so threads can share it
        fn(n, ctypes.c_int64(1), buf(dl), buf(d), buf(du), buf(b), n, info)  # n is also LDB
        return info.value
    return numpy_gtsv


_gtsv = _load_gtsv()  # chosen once, at import


def _splines(xk: np.ndarray, yk: np.ndarray, a: int, n: int) -> np.ndarray:
    """Sum of the natural splines through knots ``:a`` and ``a:`` of one
    stacked array (only the first if ``a`` is its size; a set has >= 3
    knots, and knots a - 1 and a differ), each sampled at 0..n-1. Raises as
    `spline_envelope` documents.

    One `_gtsv` call solves both sets: the rows of knots a - 1 and a, where
    they join, say M = 0 and couple to nothing, so each set is eliminated
    exactly as if alone (the system is diagonally dominant, so it never pivots).
    The joining piece gets a zero slope and is never evaluated.

    Point t of set j is point t + j*n of a stacked grid, evaluated in blocks
    of `_GRID_BLOCK` points. Its piece is the count of piece starts up to it:
    piece k >= 1 starts at ceil(knot k) clipped to [0, n], plus n in the
    second set, and the joining piece and the second set's first piece start
    at n. A block's first-set values go straight into ``out[:n]``; its
    second-set values land just past them and are added in.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        h = np.subtract(xk[1:], xk[:-1])
        diag = h[:-1] + h[1:]
        diag /= 3.0
        off = h[1:-1] / 6.0
        slope = np.subtract(yk[1:], yk[:-1])
        slope /= h
        slope[a - 1:a] = 0.0
        M = np.zeros(xk.size)  # each set's end knots stay zero
        rhs = np.subtract(slope[1:], slope[:-1], out=M[1:-1])  # solved in place into M
    if np.isinf(slope).any() or not (np.isfinite(diag).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    diag[a - 2:a] = 1.0  # the join rows: M = 0, coupled to nothing
    rhs[a - 2:a] = 0.0
    off[a - 3:a] = 0.0
    if rhs.size == 1:  # no off-diagonals to pass to gtsv
        rhs /= diag
    elif rhs.size > 1:
        # off is the superdiagonal; the subdiagonal is a copy, as gtsv zeroes it
        if _gtsv(off.copy(), diag, off, rhs) != 0:
            raise np.linalg.LinAlgError("singular spline system")
    del diag, off  # freed before the coefficients are formed
    b = M[:-1] * 2.0
    b += M[1:]
    b *= h
    b /= 6.0
    slope -= b  # now each piece's linear coefficient
    d = np.subtract(M[1:], M[:-1], out=b)
    h *= 6.0
    d /= h
    del h  # freed before the piece starts take its place
    M /= 2.0
    starts = np.clip(np.ceil(xk[1:-1]), 0, n).astype(np.intp)  # starts[k - 1]: piece k's
    starts[a - 2:a] = n  # the joining piece and the second set's first
    starts[a:] += n
    size = n if a == xk.size else 2 * n
    step = min(size, _GRID_BLOCK) or 1
    out = np.empty(n + min(size - n, step))
    gather = np.empty(step)
    lo = count = 0
    for s in range(0, size, step):
        e = min(s + step, size)
        hi = starts.searchsorted(e)  # starts at the grid's end begin no point
        i = np.bincount(starts[lo:hi] - s, minlength=e - s)
        i[0] += count
        np.add.accumulate(i, out=i)
        lo, count = hi, i[-1]
        k = min(max(n - s, 0), e - s)  # the block's first point of the second set
        u = np.arange(s, e, dtype=np.float64)
        u[k:] -= n
        # Horner in place: g holds each first knot, then each gathered coefficient
        # (mode="clip" lets take write into its out; every index is in range).
        g = gather[:e - s]
        u -= xk.take(i, out=g, mode="clip")
        o = d.take(i, out=out[min(s, n):min(s, n) + e - s], mode="clip")
        for coef in (M, slope, yk):
            o *= u
            o += coef.take(i, out=g, mode="clip")
        out[s + k - n:e - n] += o[k:]
    return out[:n]


def _envelope_mean(x: np.ndarray, ext: ExtremaSet) -> np.ndarray:
    """Mean of the two envelopes of `x`. Each kind's knots are its extrema and
    the two nearest reflected about both ends to tame end swing; both sets go
    into one knot array, maxima first, and `_splines` sums their splines."""
    n = x.size
    mx, mn = ext.maxima_idx, ext.minima_idx
    k = np.concatenate((mx[1::-1], mx, mx[:-3:-1], mn[1::-1], mn, mn[:-3:-1]))
    xk, yk = k.astype(np.float64), x.take(k)
    del k  # the knot positions live on in xk
    a, m, r = mx.size + 4, xk.size, 2.0 * (n - 1)
    mirrored = np.array([0, 1, a - 2, a - 1, a, a + 1, m - 2, m - 1])
    xk[mirrored] = np.array([0.0, 0.0, r, r, 0.0, 0.0, r, r]) - xk[mirrored]
    mean = _splines(xk, yk, a, n)
    mean *= 0.5
    return mean


def mean_envelope(samples) -> np.ndarray:
    """Average of the maxima spline and the minima spline.

    Needs at least 2 maxima and 2 minima; raises InsufficientExtrema
    otherwise, and ValueError when a sample is NaN or infinite.
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
    envelopes; every other caller reads its result. A non-finite knot fails
    the spline, and any other non-finite sample fails the peak's check.
    """
    ext = find_local_extrema(x)
    n_max, n_min = ext.maxima_idx.size, ext.minima_idx.size
    crossings = count_zero_crossings(x)
    envelope = None
    ratio = float("nan")
    if n_max >= 2 and n_min >= 2:
        envelope = _envelope_mean(x, ext)
        peak = np.abs(x).max()  # > 0, as there are extrema
        if not peak < np.inf:  # also true for a NaN
            raise ValueError("samples must be finite")
        ratio = float(np.abs(envelope).max() / peak)
    passed = abs(crossings - (n_max + n_min)) <= 1 and ratio <= SYMMETRY_TOL  # NaN fails
    return ImfCheck(passed, crossings, n_max, n_min, ratio), envelope


def is_imf(samples) -> ImfCheck:
    """Test whether a sequence already behaves like a single mode.

    True iff (a) zero crossings and extrema counts differ by at most one and
    (b) there are >= 2 maxima and >= 2 minima whose envelope mean stays
    within SYMMETRY_TOL of the peak amplitude. The returned object is truthy
    exactly when the test passes and carries the diagnostic counts. With
    both envelopes, a NaN or infinite sample raises ValueError.
    """
    return _check_candidate(np.asarray(samples, dtype=np.float64))[0]


def sift(samples, max_iters: int = MAX_SIFT_ITERS):
    """Extract one mode candidate by repeated envelope-mean subtraction.

    Parameters
    ----------
    samples : array_like
        Sequence of >= 3 samples; with both envelopes, a NaN or infinite
        sample raises ValueError. It is never modified.
    max_iters : int
        Cap on subtraction steps, a non-negative integer (else ValueError).

    Returns
    -------
    (ndarray, int, ImfCheck)
        The candidate as a new array, the number of subtractions performed,
        and the mode test of the returned candidate, equal to ``is_imf`` of
        it. Sifting stops when the candidate passes, when it has too few
        extrema for an envelope, or after `max_iters` subtractions; an input
        that passes or has no envelope comes back equal, after 0 subtractions.

    Notes
    -----
    Each new candidate is written over the envelope it subtracts, so one
    envelope is alive per mode test and no subtraction allocates a new array.
    """
    check_int("max_iters", max_iters)
    h = np.array(samples, dtype=np.float64)
    check, envelope = _check_candidate(h)
    iters = 0
    while not check and envelope is not None and iters < max_iters:
        h = np.subtract(h, envelope, out=envelope)
        del envelope
        iters += 1
        check, envelope = _check_candidate(h)
    del envelope  # freed before the copy below
    # a subtracted candidate is a view of the spline's buffer, which runs past n
    return (h if h.base is None else h.copy()), iters, check


def decompose(signal: Signal, max_imfs: int = DEFAULT_MAX_IMFS) -> ImfDecomposition:
    """Peel off up to `max_imfs` modes from a signal.

    Stops at the first sifted candidate that fails the mode test, whether it
    has too few extrema for an envelope or hit the iteration cap (that
    candidate is discarded so every stored mode genuinely passes). The
    stored modes plus the residual always sum back to the input, which is
    never modified. `max_imfs` is a non-negative integer (else ValueError).
    """
    check_int("max_imfs", max_imfs)
    residual = signal.samples.copy()
    imfs: list[np.ndarray] = []
    counts: list[int] = []
    while len(imfs) < max_imfs and residual.size >= 3:
        h, iters, check = sift(residual)
        if not check:
            break
        imfs.append(h)
        counts.append(iters)
        residual = residual - h
    return ImfDecomposition(imfs=imfs, residual=residual, sift_counts=counts)


def write_decomposition_csv(path, signal: Signal, dec: ImfDecomposition) -> None:
    """Debug dump: columns t, input, imf1..imf5, residual (empty for absent modes).

    Writes `path` in ``_DUMP_BLOCK_ROWS``-row blocks, each value as ``%.17g``, with LF line ends.
    """
    n_cols = max(DEFAULT_MAX_IMFS, len(dec.imfs))
    header = "t,input," + ",".join(f"imf{i + 1}" for i in range(n_cols)) + ",residual"
    t = np.arange(signal.samples.size) / signal.sample_rate_hz
    table = np.column_stack([t, signal.samples, *dec.imfs, dec.residual])
    cells = ["%.17g"] * (2 + len(dec.imfs)) + [""] * (n_cols - len(dec.imfs)) + ["%.17g"]
    row_fmt = ",".join(cells) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), _DUMP_BLOCK_ROWS):
            block = table[start:start + _DUMP_BLOCK_ROWS]
            fh.write(row_fmt * len(block) % tuple(block.ravel().tolist()))
