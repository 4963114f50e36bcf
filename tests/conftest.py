import numpy as np
import pytest
from hypothesis import settings
from scipy.linalg import solve_banded

from emdclf.errors import TooShort
from emdclf.features import LabeledDataset

# CI selects this with --hypothesis-profile=ci: a failure prints the blob
# that reproduces it, and a slow shared runner never trips a deadline.
settings.register_profile("ci", print_blob=True, deadline=None)


def two_gaussians(seed=42, n_per_class=200, dim=2, offset=2.0):
    """Two unit-covariance blobs at -offset*e1 and +offset*e1."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((n_per_class, dim)) + np.eye(dim)[0] * -offset
    x1 = rng.standard_normal((n_per_class, dim)) + np.eye(dim)[0] * offset
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return LabeledDataset(np.vstack([x0, x1]), labels)


@pytest.fixture(scope="session")
def gaussian_data():
    return two_gaussians()


def _parent_spline_envelope(knot_idx, knot_val, n: int) -> np.ndarray:
    """The spline kernel before it called LAPACK's gtsv directly, copied
    verbatim (searchsorted pieces, solve_banded, the two-sided ``**3``
    formula). `emd.spline_envelope` must agree with it to rounding, see
    `assert_agrees_with_parent` in test_emd.py."""
    xk = np.asarray(knot_idx, dtype=np.float64)
    yk = np.asarray(knot_val, dtype=np.float64)
    if xk.size < 2:
        raise TooShort(f"need >= 2 knots, got {xk.size}")
    if xk.size != yk.size:
        raise ValueError("knot index/value lengths differ")
    if np.any(np.diff(xk) <= 0):
        raise ValueError("knot indices must be strictly increasing")

    m = xk.size
    h = np.diff(xk)
    M = np.zeros(m)  # second derivatives, natural ends stay zero
    if m > 2:
        # tridiagonal system for the interior second derivatives
        diag = (h[:-1] + h[1:]) / 3.0
        off = h[1:-1] / 6.0
        rhs = np.diff(yk) / h
        rhs = rhs[1:] - rhs[:-1]
        ab = np.zeros((3, m - 2))
        ab[0, 1:] = off
        ab[1, :] = diag
        ab[2, :-1] = off
        M[1:-1] = solve_banded((1, 1), ab, rhs)

    t = np.arange(n, dtype=np.float64)
    i = np.clip(np.searchsorted(xk, t, side="right") - 1, 0, m - 2)
    hi = h[i]
    left = xk[i + 1] - t
    right = t - xk[i]
    return (M[i] * left**3 / (6.0 * hi)
            + M[i + 1] * right**3 / (6.0 * hi)
            + (yk[i] / hi - M[i] * hi / 6.0) * left
            + (yk[i + 1] / hi - M[i + 1] * hi / 6.0) * right)


def mirrored_knots(idx, vals, n: int):
    """The knots of one envelope, as the mode test places them: the extrema,
    with the two nearest reflected about each end of the grid 0..n-1."""
    left_i = np.array([-idx[1], -idx[0]], dtype=np.float64)
    left_v = np.array([vals[1], vals[0]])
    right_i = np.array([2 * (n - 1) - idx[-1], 2 * (n - 1) - idx[-2]], dtype=np.float64)
    right_v = np.array([vals[-1], vals[-2]])
    return (np.concatenate([left_i, idx.astype(np.float64), right_i]),
            np.concatenate([left_v, vals, right_v]))


def envelope_mean_from(spline, x, ext):
    """Mean of the upper and lower envelope of `x`, each drawn on its own by
    `spline` (a function like `emd.spline_envelope`)."""
    n = x.size
    upper = spline(*mirrored_knots(ext.maxima_idx, x[ext.maxima_idx], n), n)
    lower = spline(*mirrored_knots(ext.minima_idx, x[ext.minima_idx], n), n)
    return 0.5 * (upper + lower)
