import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from emdclf import emd
from emdclf.errors import InsufficientExtrema, InsufficientKnots, TooShort
from emdclf.signal import Signal
from emdclf.synthetic import tone_burst


def zero_crossings_loop(x):
    """The documented rule, one sample at a time: a zero sample inherits the
    previous nonzero sign, leading zeros have none, and a crossing is a pair
    of neighbours whose signs multiply to a negative number."""
    filled, last = [], 0.0
    for v in x:
        if np.sign(v) != 0.0:
            last = np.sign(v)
        filled.append(last)
    return sum(a * b < 0.0 for a, b in zip(filled, filled[1:]))


def brute_force_extrema(x):
    """Neighborhood scan, plateau-aware, independent of the implementation."""
    n = len(x)
    maxima, minima = [], []
    i = 1
    while i < n - 1:
        j = i
        while j + 1 < n and x[j + 1] == x[i]:
            j += 1
        if j == n - 1:
            break  # plateau touches the right endpoint
        mid = (i + j) // 2
        if x[i - 1] < x[i] and x[j + 1] < x[i]:
            maxima.append(mid)
        elif x[i - 1] > x[i] and x[j + 1] > x[i]:
            minima.append(mid)
        i = j + 1
    return maxima, minima


def natural_spline_oracle(xk, yk, t):
    """Dense tridiagonal solve + per-point Horner evaluation."""
    xk = np.asarray(xk, float)
    yk = np.asarray(yk, float)
    m = len(xk)
    h = np.diff(xk)
    M = np.zeros(m)
    if m > 2:
        A = np.zeros((m - 2, m - 2))
        rhs = np.zeros(m - 2)
        for r in range(m - 2):
            i = r + 1
            A[r, r] = (h[i - 1] + h[i]) / 3.0
            if r > 0:
                A[r, r - 1] = h[i - 1] / 6.0
            if r < m - 3:
                A[r, r + 1] = h[i] / 6.0
            rhs[r] = (yk[i + 1] - yk[i]) / h[i] - (yk[i] - yk[i - 1]) / h[i - 1]
        M[1:-1] = np.linalg.solve(A, rhs)
    out = np.empty(len(t))
    for idx, tv in enumerate(t):
        i = min(max(np.searchsorted(xk, tv, side="right") - 1, 0), m - 2)
        hi = h[i]
        a = (xk[i + 1] - tv) / hi
        b = (tv - xk[i]) / hi
        out[idx] = (a * yk[i] + b * yk[i + 1]
                    + ((a**3 - a) * M[i] + (b**3 - b) * M[i + 1]) * hi * hi / 6.0)
    return out


def _parent_spline_envelope(knot_idx, knot_val, n: int) -> np.ndarray:
    """The spline kernel before it called LAPACK's gtsv directly, copied
    verbatim (searchsorted pieces, solve_banded, ``**3``). On integer knots
    `emd.spline_envelope` must reproduce it bit for bit."""
    xk = np.asarray(knot_idx, dtype=np.float64)
    yk = np.asarray(knot_val, dtype=np.float64)
    if xk.size < 2:
        raise InsufficientKnots(f"need >= 2 knots, got {xk.size}")
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


@st.composite
def spline_cases(draw, integer_knots=True):
    """(n, knot positions, knot values): n in 1..300, 2..40 knots (often 3)
    anywhere in [-2n-5, 3n+5], so end pieces also extrapolate, and values
    scaled by 1e-3..1e3. Non-integer knots are integers plus offsets in
    [0, 0.5)."""
    n = draw(st.integers(1, 300))
    lo, hi = -2 * n - 5, 3 * n + 5
    m = draw(st.one_of(st.just(3), st.integers(2, min(40, hi - lo + 1))))
    xk = np.array(sorted(draw(st.lists(st.integers(lo, hi), min_size=m, max_size=m,
                                       unique=True))), dtype=np.float64)
    if not integer_knots:
        xk += draw(st.lists(st.floats(0.0, 0.5, exclude_max=True), min_size=m, max_size=m))
    scale = draw(st.floats(1e-3, 1e3))
    yk = scale * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
    return n, xk, yk


class TestFindLocalExtrema:
    def test_single_peak(self):
        ext = emd.find_local_extrema([0.0, 1.0, 0.0])
        assert list(ext.maxima_idx) == [1]
        assert list(ext.minima_idx) == []

    def test_monotone(self):
        ext = emd.find_local_extrema([0.0, 1.0, 2.0, 3.0])
        assert ext.maxima_idx.size == 0 and ext.minima_idx.size == 0

    def test_sampled_sine(self):
        t = np.linspace(0.0, 1.0, 101)
        ext = emd.find_local_extrema(np.sin(2 * np.pi * t))
        assert list(ext.maxima_idx) == [25]
        assert list(ext.minima_idx) == [75]

    def test_plateau_midpoint_rounds_down(self):
        ext = emd.find_local_extrema([0.0, 2.0, 2.0, 0.0])
        assert list(ext.maxima_idx) == [1]
        ext = emd.find_local_extrema([0.0, 2.0, 2.0, 2.0, 0.0])
        assert list(ext.maxima_idx) == [2]

    def test_endpoint_plateau_not_extremum(self):
        ext = emd.find_local_extrema([3.0, 3.0, 1.0, 2.0])
        assert ext.maxima_idx.size == 0
        assert list(ext.minima_idx) == [2]

    def test_too_short(self):
        with pytest.raises(TooShort):
            emd.find_local_extrema([1.0, 2.0])

    def test_matches_brute_force_on_random_signals(self):
        rng = np.random.default_rng(7)
        for trial in range(1000):
            n = int(rng.integers(3, 120))
            x = rng.standard_normal(n)
            if trial % 3 == 0:  # force some plateaus
                x = np.round(x * 2.0) / 2.0
            ext = emd.find_local_extrema(x)
            bf_max, bf_min = brute_force_extrema(x)
            assert list(ext.maxima_idx) == bf_max
            assert list(ext.minima_idx) == bf_min

    def test_alternation(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            x = rng.standard_normal(200)
            ext = emd.find_local_extrema(x)
            merged = sorted([(i, "M") for i in ext.maxima_idx]
                            + [(i, "m") for i in ext.minima_idx])
            kinds = [k for _, k in merged]
            assert all(a != b for a, b in zip(kinds, kinds[1:]))


class TestSplineEnvelope:
    def test_two_knots_give_line(self):
        env = emd.spline_envelope([2, 7], [1.0, 3.0], 10)
        assert env[5] == pytest.approx(2.2, abs=1e-12)
        assert env[2] == pytest.approx(1.0, abs=1e-12)
        assert env[7] == pytest.approx(3.0, abs=1e-12)

    def test_interpolates_knots(self):
        env = emd.spline_envelope([0, 5, 10], [0.0, 1.0, 0.0], 11)
        assert env[0] == pytest.approx(0.0, abs=1e-10)
        assert env[5] == pytest.approx(1.0, abs=1e-10)
        assert env[10] == pytest.approx(0.0, abs=1e-10)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(2, 12))
            xk = np.sort(rng.choice(np.arange(-10, 60), size=m, replace=False))
            yk = rng.standard_normal(m)
            n = 50
            env = emd.spline_envelope(xk, yk, n)
            oracle = natural_spline_oracle(xk, yk, np.arange(n, dtype=float))
            assert np.abs(env - oracle).max() <= 1e-9

    def test_knot_interpolation_error_bound(self):
        rng = np.random.default_rng(12)
        xk = np.sort(rng.choice(np.arange(0, 100), size=8, replace=False))
        yk = rng.standard_normal(8)
        env = emd.spline_envelope(xk, yk, 100)
        assert np.abs(env[xk] - yk).max() <= 1e-10

    def test_insufficient_knots(self):
        with pytest.raises(InsufficientKnots):
            emd.spline_envelope([3], [1.0], 10)

    def test_unsorted_knots_rejected(self):
        with pytest.raises(ValueError):
            emd.spline_envelope([5, 2], [1.0, 2.0], 10)

    @settings(max_examples=300, deadline=None)
    @given(spline_cases())
    @example((10, np.array([-3.0, 4.0, 12.0]), np.array([0.5, -2.0, 1.0])))
    @example((1, np.array([0.0, 2.0, 5.0]), np.array([1e3, -1e-3, 7.0])))
    @example((7, np.array([-5.0, 20.0]), np.array([1.0, -1.0])))
    def test_integer_knots_bit_identical_to_parent_kernel(self, case):
        n, xk, yk = case
        assert np.array_equal(emd.spline_envelope(xk, yk, n),
                              _parent_spline_envelope(xk, yk, n))

    @settings(max_examples=300, deadline=None)
    @given(spline_cases(integer_knots=False))
    @example((10, np.array([-3.25, 4.5, 12.125]), np.array([0.5, -2.0, 1.0])))
    def test_non_integer_knots_agree_to_rounding(self, case):
        n, xk, yk = case
        env = emd.spline_envelope(xk, yk, n)
        parent = _parent_spline_envelope(xk, yk, n)
        assert np.abs(env - parent).max() <= 1e-12 * np.abs(parent).max()

    @pytest.mark.parametrize("xk, yk, n", [
        ([0, 5, 10, 15], [0.0, np.nan, 0.0, 1.0], 20),
        ([0, 5, 10], [0.0, np.inf, 0.0], 20),
        ([0, 1, 2, 3], [0.0, 1e308, -1e308, 0.0], 4),  # the slopes overflow
        ([-1e308, 0, 1e308], [0.0, 1.0, 0.0], 4),  # the diagonal overflows
    ])
    def test_non_finite_system_raises(self, xk, yk, n):
        # no floating-point warning comes before the error
        with warnings.catch_warnings(), pytest.raises(ValueError, match="infs or NaNs"):
            warnings.simplefilter("error")
            emd.spline_envelope(xk, yk, n)

    def test_two_knots_propagate_nan(self):
        # no system to solve, so nothing is checked: the line is NaN
        env = emd.spline_envelope([0, 5], [0.0, np.nan], 8)
        assert env.shape == (8,) and np.isnan(env).all()


class TestMeanEnvelope:
    def test_sine_envelope_is_small(self):
        t = np.arange(1000) / 1000.0
        x = np.sin(2 * np.pi * 5 * t)  # 5 cycles
        env = emd.mean_envelope(x)
        interior = env[50:950]
        assert np.abs(interior).max() <= 0.05

    def test_shifted_sine_tracks_offset(self):
        t = np.arange(1000) / 1000.0
        env = emd.mean_envelope(np.sin(2 * np.pi * 5 * t) + 5.0)
        interior = env[50:950]
        assert np.abs(interior - 5.0).max() <= 0.1

    def test_upper_envelope_touches_maxima(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(300)
        ext = emd.find_local_extrema(x)
        knots = emd._mirrored_knots(ext.maxima_idx, x[ext.maxima_idx], x.size)
        upper = emd.spline_envelope(*knots, x.size)
        assert np.all(upper[ext.maxima_idx] >= x[ext.maxima_idx] - 1e-10)

    def test_single_extremum_pair_insufficient(self):
        x = np.concatenate([np.linspace(0, 1, 5), np.linspace(1, -1, 9),
                            np.linspace(-1, 0, 5)])
        with pytest.raises(InsufficientExtrema):
            emd.mean_envelope(x)


class TestZeroCrossings:
    def test_alternating(self):
        assert emd.count_zero_crossings([1.0, -1.0, 1.0]) == 2

    def test_zero_inherits_previous_sign(self):
        assert emd.count_zero_crossings([1.0, 0.0, 1.0]) == 0
        assert emd.count_zero_crossings([1.0, 0.0, -1.0]) == 1

    def test_leading_zeros_never_pair(self):
        assert emd.count_zero_crossings([0.0, 0.0, 1.0, -1.0]) == 1

    def test_all_zero(self):
        assert emd.count_zero_crossings([0.0, 0.0, 0.0]) == 0

    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats()),
                    max_size=40))
    def test_matches_sign_fill_loop(self, xs):
        assert emd.count_zero_crossings(xs) == zero_crossings_loop(xs)


class TestIsImf:
    def test_sampled_sine_passes(self):
        t = np.arange(1000) / 1000.0
        check = emd.is_imf(np.sin(2 * np.pi * 5 * t))
        assert check
        assert check.n_maxima == 5 and check.n_minima == 5
        assert check.zero_crossings == 9  # t=0 sample is exactly zero

    def test_offset_sine_fails_crossings(self):
        t = np.arange(1000) / 1000.0
        check = emd.is_imf(np.sin(2 * np.pi * 5 * t) + 5.0)
        assert not check
        assert check.zero_crossings == 0
        assert check.n_maxima + check.n_minima >= 9

    def test_ramp_fails_extrema(self):
        check = emd.is_imf(np.linspace(-1.0, 1.0, 100))
        assert not check
        assert check.n_maxima == 0

    def test_too_short(self):
        with pytest.raises(TooShort):
            emd.is_imf([1.0, -1.0])


class TestSift:
    def test_sine_returned_unchanged(self):
        t = np.arange(1000) / 1000.0
        x = np.sin(2 * np.pi * 5 * t)
        h, iters, _ = emd.sift(x)
        assert iters <= 2
        assert np.array_equal(h, x)
        assert h is not x

    def test_two_tone_extracts_fast_component(self):
        t = np.arange(1000) / 1000.0
        x = np.sin(2 * np.pi * 50 * t) + 0.5 * np.sin(2 * np.pi * 5 * t)
        h, _, _ = emd.sift(x)
        tone = np.sin(2 * np.pi * 50 * t)
        r = np.corrcoef(h[50:950], tone[50:950])[0, 1]
        assert r >= 0.95

    def test_iteration_cap_on_noise(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            x = rng.standard_normal(int(rng.integers(32, 300)))
            try:
                _, iters, _ = emd.sift(x)
            except InsufficientExtrema:
                continue
            assert iters <= 100

    def test_insufficient_extrema(self):
        with pytest.raises(InsufficientExtrema):
            emd.sift(np.linspace(0.0, 1.0, 50))

    @pytest.mark.parametrize("x, max_iters, iters, passed", [
        # converges
        (np.sin(2 * np.pi * 50 * np.arange(1000) / 1000.0)
         + 0.5 * np.sin(2 * np.pi * 5 * np.arange(1000) / 1000.0), 100, 1, True),
        # capped after one subtraction
        (np.random.default_rng(19).standard_normal(300), 1, 1, False),
        # loses its extrema after two subtractions
        (np.random.default_rng(30).standard_normal(8), 100, 2, False),
    ], ids=["converges", "capped", "loses_extrema"])
    def test_returned_check_is_mode_test_of_candidate(self, x, max_iters, iters, passed):
        h, n, check = emd.sift(x, max_iters=max_iters)
        assert (n, check.passed) == (iters, passed)
        # assert_equal treats NaN envelope ratios as equal
        np.testing.assert_equal(astuple(check), astuple(emd.is_imf(h)))


class TestDecompose:
    def test_constant_signal(self):
        sig = Signal(np.full(100, 2.5), 100, "const")
        dec = emd.decompose(sig)
        assert dec.imfs == []
        assert np.array_equal(dec.residual, sig.samples)

    def test_reconstruction_property(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            x = rng.standard_normal(int(rng.integers(16, 800)))
            sig = Signal(x, 1000)
            dec = emd.decompose(sig)
            assert np.abs(dec.reconstruction() - x).max() <= 1e-8

    def test_two_tone_separation(self):
        t = np.arange(1000) / 1000.0
        x = np.sin(2 * np.pi * 50 * t) + np.sin(2 * np.pi * 5 * t)
        dec = emd.decompose(Signal(x, 1000, "two"))
        assert len(dec.imfs) >= 2
        r1 = np.corrcoef(dec.imfs[0][50:950], np.sin(2 * np.pi * 50 * t)[50:950])[0, 1]
        r2 = np.corrcoef(dec.imfs[1][50:950], np.sin(2 * np.pi * 5 * t)[50:950])[0, 1]
        assert r1 >= 0.95
        assert r2 >= 0.95

    def test_every_stored_imf_passes(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            dec = emd.decompose(Signal(rng.standard_normal(600), 1000))
            for imf in dec.imfs:
                assert emd.is_imf(imf)

    def test_first_sift_capped_gives_no_modes(self):
        x = tone_burst(np.random.default_rng([7, 1, 19]))
        _, iters, check = emd.sift(x)
        assert iters == emd.MAX_SIFT_ITERS and not check
        dec = emd.decompose(Signal(x, 8000))
        assert dec.imfs == [] and dec.sift_counts == []
        assert np.array_equal(dec.residual, x)

    def test_at_most_max_imfs(self):
        rng = np.random.default_rng(17)
        dec = emd.decompose(Signal(rng.standard_normal(2048), 1000), max_imfs=3)
        assert len(dec.imfs) <= 3
        assert len(dec.sift_counts) == len(dec.imfs)

    def test_deterministic(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal(512)
        d1 = emd.decompose(Signal(x, 1000))
        d2 = emd.decompose(Signal(x.copy(), 1000))
        assert len(d1.imfs) == len(d2.imfs)
        for a, b in zip(d1.imfs, d2.imfs):
            assert np.array_equal(a, b)
        assert np.array_equal(d1.residual, d2.residual)


class TestDecompositionCsv:
    def test_columns_and_empty_fields(self, tmp_path):
        t = np.arange(200) / 100.0
        sig = Signal(np.sin(2 * np.pi * 3 * t), 100, "s")
        dec = emd.decompose(sig, max_imfs=5)
        path = tmp_path / "dump.csv"
        emd.write_decomposition_csv(path, sig, dec)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,input,imf1,imf2,imf3,imf4,imf5,residual"
        assert len(lines) == 1 + len(sig)
        first = lines[1].split(",")
        assert len(first) == 8
        n_present = len(dec.imfs)
        for cell in first[2 + n_present:7]:
            assert cell == ""
        # round-trip check on a value
        assert float(lines[3].split(",")[1]) == sig.samples[2]
