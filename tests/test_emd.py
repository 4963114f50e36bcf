import _ctypes
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgtsv

from emdclf import emd
from emdclf.errors import TooShort
from emdclf.signal import Signal
from emdclf.synthetic import generate_corpus, tone_burst

from conftest import _parent_spline_envelope, envelope_mean_from, mirrored_knots


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


def _parent_count_zero_crossings(samples):
    """`emd.count_zero_crossings` before its no-zero fast path, verbatim."""
    s = np.sign(np.asarray(samples, dtype=np.float64))
    s = s[s != 0.0]  # dropping zeros pairs each sign with the previous nonzero one
    return int(np.count_nonzero(s[1:] * s[:-1] < 0.0))


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


def extrema_inputs():
    """Continuous values, plateau-heavy quantized values (with -0.0),
    constant runs and length-3 sequences."""
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    levels = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
    return st.one_of(
        st.lists(finite, min_size=3, max_size=200),
        st.lists(levels, min_size=3, max_size=200),
        st.builds(lambda v, n: [v] * n, finite, st.integers(3, 50)),
        st.lists(st.one_of(finite, levels), min_size=3, max_size=3),
    ).map(lambda xs: np.array(xs, dtype=np.float64))


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


def assert_agrees_with_parent(n, xk, yk):
    """The spline tolerance contract: within 1e-12 of the larger of the
    reference's and the knots' largest magnitude, plus the smallest normal
    float. The knot term covers a reference that cancels to 0 (n = 1), the
    float term subnormal knot values."""
    env = emd.spline_envelope(xk, yk, n)
    parent = _parent_spline_envelope(xk, yk, n)
    scale = max(np.abs(parent).max(), np.abs(yk).max())
    assert np.abs(env - parent).max() <= 1e-12 * scale + np.finfo(float).tiny


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


@st.composite
def envelope_signals(draw):
    """Signals of 6..3,000 samples: noise scaled by 1e-3..1e3; a noisy sine
    quantized to a few levels, so extrema are often plateaus; and zigzags
    through exactly 2 maxima and 2 minima at random places."""
    n = draw(st.integers(6, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "quantized", "two_pairs"]))
    if kind == "noise":
        return rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == "quantized":
        t = np.arange(n) * rng.uniform(0.01, 1.0)
        return np.round(rng.integers(1, 5) * (np.sin(t) + 0.3 * rng.standard_normal(n)))
    turns = np.sort(rng.choice(np.arange(1, n - 1), size=4, replace=False))
    peaks = rng.uniform(1.0, 2.0, size=4) * [1, -1, 1, -1] * rng.choice([-1, 1])
    return np.interp(np.arange(n), np.r_[0, turns, n - 1], np.r_[0.0, peaks, 0.0])


def few_step_inputs():
    """Constants and single steps: sequences with 0 or 1 nonzero step."""
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    return st.builds(lambda a, b, i, j: np.array([a] * i + [b] * j), finite, finite,
                     st.integers(1, 30), st.integers(0, 30)).filter(lambda x: x.size >= 3)


def mode_test_inputs():
    return st.one_of(extrema_inputs(), few_step_inputs(), envelope_signals())


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

    def test_matches_brute_force_on_generated_inputs(self):
        zero_step_seen = set()

        @settings(max_examples=400, deadline=None)
        @given(extrema_inputs())
        @example(np.array([0.0, 1.0, 0.0]))
        @example(np.array([0.0, 1.0, 1.0, 0.0]))
        @example(np.array([1.0, -0.0, 0.0, 1.0]))
        def check(x):
            ext = emd.find_local_extrema(x)
            bf_max, bf_min = brute_force_extrema(x)
            assert list(ext.maxima_idx) == bf_max
            assert list(ext.minima_idx) == bf_min
            zero_step_seen.add(bool((np.diff(x) == 0.0).any()))

        check()
        assert zero_step_seen == {False, True}  # both the plateau and the fast case ran

    @settings(max_examples=300, deadline=None)
    @given(mode_test_inputs())
    @example(np.array([2.0, 2.0, 2.0]))
    @example(np.array([1.0, 1.0, 3.0, 3.0]))
    def test_indices_are_intp(self, x):
        ext = emd.find_local_extrema(x)
        assert ext.maxima_idx.dtype == np.intp and ext.minima_idx.dtype == np.intp

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
        with pytest.raises(TooShort):
            emd.spline_envelope([3], [1.0], 10)

    def test_unsorted_knots_rejected(self):
        with pytest.raises(ValueError):
            emd.spline_envelope([5, 2], [1.0, 2.0], 10)

    def test_knot_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="knot index/value lengths differ"):
            emd.spline_envelope([0, 1, 2], [0.0, 1.0], 5)

    @settings(max_examples=300, deadline=None)
    @given(spline_cases())
    @example((10, np.array([-3.0, 4.0, 12.0]), np.array([0.5, -2.0, 1.0])))
    @example((1, np.array([0.0, 2.0, 5.0]), np.array([1e3, -1e-3, 7.0])))
    @example((7, np.array([-5.0, 20.0]), np.array([1.0, -1.0])))
    @example((171, np.array([-346.0, -228.0, 0.0]), np.array([0.0, 0.0, 5.945e-305])))
    @example((17, np.array([0.0, 2.0, 7.0]), np.array([0.0, 0.0, 2.225e-309])))
    def test_integer_knots_agree_to_rounding(self, case):
        assert_agrees_with_parent(*case)

    @settings(max_examples=300, deadline=None)
    @given(spline_cases(integer_knots=False))
    @example((10, np.array([-3.25, 4.5, 12.125]), np.array([0.5, -2.0, 1.0])))
    @example((1, np.array([-1.0, 0.0, 2.05]), np.array([0.0, 0.0, 1.0])))
    def test_non_integer_knots_agree_to_rounding(self, case):
        assert_agrees_with_parent(*case)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_dense_knots_agree_to_rounding(self, data):
        # 2..7 knots inside each chosen unit gap of the grid, so several pieces
        # start at one grid point and the piece index must count every start
        n = data.draw(st.integers(2, 200))
        gaps = data.draw(st.lists(st.integers(0, n - 2), min_size=1, max_size=8, unique=True))
        eighths = st.lists(st.integers(1, 7), min_size=2, max_size=7, unique=True)
        xk = np.sort(np.concatenate([g + np.array(data.draw(eighths)) / 8.0 for g in gaps]))
        yk = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=xk.size,
                                         max_size=xk.size)))
        assert_agrees_with_parent(n, xk, yk)

    @pytest.mark.parametrize("xk, yk, n", [
        ([0, 5, 10, 15], [0.0, np.nan, 0.0, 1.0], 20),
        ([0, 5, 10], [0.0, np.inf, 0.0], 20),
        ([0, 1, 2, 3], [0.0, 1e308, -1e308, 0.0], 4),  # the slopes overflow
        ([-1e308, 0, 1e308], [0.0, 1.0, 0.0], 4),  # the diagonal overflows
        ([-1e308, 1e308, 1.5e308], [0.0, 1.0, 0.0], 4),  # a knot gap overflows
        ([-1e308, 1e308], [0.0, 1.0], 4),  # two knots: no system, the span overflows
        ([0, 1], [-1e308, 1e308], 2),  # two knots: the slope overflows
        ([0, 5], [np.inf, 0.0], 2),  # two knots: an infinite value
    ])
    def test_non_finite_system_raises(self, xk, yk, n):
        # no floating-point warning comes before the error
        with warnings.catch_warnings(), pytest.raises(ValueError, match="infs or NaNs"):
            warnings.simplefilter("error")
            emd.spline_envelope(xk, yk, n)

    @pytest.mark.parametrize("xk, yk", [([0, 5], [0.0, 1.0]),
                                        ([0, 2, 5, 9], [0.0, 1.0, -1.0, 2.0])])
    def test_negative_length_rejected(self, xk, yk):
        for n in (-1, 2.5, 10.0):
            with pytest.raises(ValueError, match="output length"):
                emd.spline_envelope(xk, yk, n)

    def test_zero_length_is_empty(self):
        env = emd.spline_envelope([0, 2, 5, 9], [0.0, 1.0, -1.0, 2.0], 0)
        assert env.shape == (0,)

    def test_two_knots_propagate_nan(self):
        # no system to solve, so nothing is checked: the line is NaN
        env = emd.spline_envelope([0, 5], [0.0, np.nan], 8)
        assert env.shape == (8,) and np.isnan(env).all()


def envelope_mean(x):
    """The envelope mean that the mode test of `x` computes, drawn by the
    stacked two-envelope kernel."""
    return emd._envelope_mean(x, emd.find_local_extrema(x))


class TestMeanEnvelope:
    def test_sine_envelope_is_small(self):
        t = np.arange(1000) / 1000.0
        x = np.sin(2 * np.pi * 5 * t)  # 5 cycles
        env = envelope_mean(x)
        interior = env[50:950]
        assert np.abs(interior).max() <= 0.05

    def test_shifted_sine_tracks_offset(self):
        t = np.arange(1000) / 1000.0
        env = envelope_mean(np.sin(2 * np.pi * 5 * t) + 5.0)
        interior = env[50:950]
        assert np.abs(interior - 5.0).max() <= 0.1

    def test_upper_envelope_touches_maxima(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(300)
        ext = emd.find_local_extrema(x)
        knots = mirrored_knots(ext.maxima_idx, x[ext.maxima_idx], x.size)
        upper = emd.spline_envelope(*knots, x.size)
        assert np.all(upper[ext.maxima_idx] >= x[ext.maxima_idx] - 1e-10)

    @settings(max_examples=200, deadline=None)
    @given(envelope_signals())
    # the step from the last maximum to the first minimum overflows; it
    # joins the two stacked knot sets and belongs to neither envelope
    @example(np.array([0.0, 1e308, 0.0, -1e308, 0.0, 1e308, 0.0, -1e308, 0.0]))
    def test_stacked_envelopes_equal_separate_ones(self, x):
        ext = emd.find_local_extrema(x)
        assume(ext.maxima_idx.size >= 2 and ext.minima_idx.size >= 2)
        expected = envelope_mean_from(emd.spline_envelope, x, ext)
        assert np.array_equal(envelope_mean(x), expected)

    @pytest.mark.parametrize("x", [
        # maxima of 1e308 and -1e308: the upper slope between them overflows
        np.array([0, 1, 0, -1.7, -1, -1.7, 0, 1, 0, -1.7, -1, -1.7, 0]) * 1e308,
        # the same for the lower envelope
        np.array([0, -1, 0, 1.7, 1, 1.7, 0, -1, 0, 1.7, 1, 1.7, 0]) * 1e308,
        # a NaN sample counts as a minimum, so the lower system holds a NaN
        np.array([0.0, 1.0, 0.0, 1.0, np.nan, 1.0, 0.0, 1.0, 0.0]),
    ], ids=["upper_slope_overflows", "lower_slope_overflows", "nan_minimum"])
    def test_non_finite_envelope_raises_without_warning(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="infs or NaNs"):
                envelope_mean_from(emd.spline_envelope, x, emd.find_local_extrema(x))
            for call in (emd.is_imf, emd.sift):
                with pytest.raises(ValueError, match="infs or NaNs"):
                    call(x)

    @pytest.mark.parametrize("index", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_endpoint_raises_without_warning(self, index, value):
        # an endpoint is never a knot, so only the peak amplitude sees it
        x = np.sin(0.7 * np.arange(60))
        x[index] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (emd.is_imf, emd.sift):
                with pytest.raises(ValueError, match="samples must be finite"):
                    call(x)

    def test_single_extremum_pair_insufficient(self):
        x = np.concatenate([np.linspace(0, 1, 5), np.linspace(1, -1, 9),
                            np.linspace(-1, 0, 5)])
        check = emd.is_imf(x)
        assert check.n_maxima == check.n_minima == 1
        assert np.isnan(check.envelope_ratio) and not check
        h, iters, _ = emd.sift(x)
        assert iters == 0 and h.tobytes() == x.tobytes()
        assert emd.decompose(Signal(x, 100)).imfs == []


class TestOneSolve:
    """Both envelopes of a mode test come from one tridiagonal solve."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """The order of every tridiagonal system that `emd` solves."""
        sizes, gtsv = [], emd._gtsv

        def counted(dl, d, du, b):
            sizes.append(d.size)
            return gtsv(dl, d, du, b)

        monkeypatch.setattr(emd, "_gtsv", counted)
        return sizes

    def test_one_solve_per_mode_test_with_envelopes(self, solves, monkeypatch):
        checks, check_candidate = [], emd._check_candidate

        def recorded(x):
            checks.append(check_candidate(x))
            return checks[-1]

        monkeypatch.setattr(emd, "_check_candidate", recorded)
        emd.decompose(Signal(np.random.default_rng(23).standard_normal(1500), 1000))
        emd.is_imf(np.arange(10.0))  # no extrema: no envelope, no solve
        built = [check for check, envelope in checks if envelope is not None]
        assert len(solves) == len(built) < len(checks)
        # each solve spans both knot sets: extrema plus four mirrored knots
        # each, less the two end knots of the stacked array
        assert solves == [c.n_maxima + c.n_minima + 6 for c in built]

    @pytest.mark.parametrize("m, calls", [(2, 0), (3, 0), (4, 1), (5, 1), (40, 1)])
    def test_spline_envelope(self, solves, m, calls):
        emd.spline_envelope(np.arange(m) * 3.0, np.cos(np.arange(m)), 100)
        assert len(solves) == calls

    @settings(max_examples=200, deadline=None)
    @given(spline_cases(integer_knots=False), spline_cases())
    def test_any_two_knot_sets_give_the_sum_of_their_splines(self, first, second):
        # each set lies anywhere about a grid of its own 1..300 points, so the
        # step joining them may go either way and either set may extrapolate
        (n, x1, y1), (_, x2, y2) = first, second
        assume(x1.size >= 3 and x2.size >= 3 and x1[-1] != x2[0])
        expected = emd.spline_envelope(x1, y1, n) + emd.spline_envelope(x2, y2, n)
        got = emd._splines(np.r_[x1, x2], np.r_[y1, y2], x1.size, n)
        assert got.tobytes() == expected.tobytes()


def captured_systems(call, *args):
    """Copies of the (dl, d, du, b) of every system that `call(*args)` solves."""
    systems, gtsv = [], emd._gtsv

    def capture(dl, d, du, b):
        systems.append(tuple(v.copy() for v in (dl, d, du, b)))
        return gtsv(dl, d, du, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(emd, "_gtsv", capture)
        call(*args)
    return systems


def solved(gtsv, system):
    """(info, solution bytes) of `gtsv` on a copy of `system`."""
    dl, d, du, b = (v.copy() for v in system)
    return gtsv(dl, d, du, b), b.tobytes()


def scipy_gtsv(dl, d, du, b):
    return dgtsv(dl, d, du, b, overwrite_d=1, overwrite_b=1)[-1]


@st.composite
def knot_sets(draw):
    """(stacked knots, values, a) for `_splines`: one or two sets of 3..2,000
    knots (a lone set of 3 has one unknown and no system) with integer or
    non-integer spacings, the second set anywhere near the first."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.one_of(st.integers(3, 40), st.integers(3, 2000)),
                          min_size=1, max_size=2))
    spacing = draw(st.sampled_from(["integer", "real"]))
    xs = []
    for m in sizes:
        h = rng.integers(1, 50, m) if spacing == "integer" else rng.uniform(0.01, 50.0, m)
        xs.append(np.cumsum(h, dtype=np.float64) + rng.integers(-100, 100))
    assume(sizes != [3] and (len(xs) == 1 or xs[0][-1] != xs[1][0]))
    xk = np.concatenate(xs)
    return xk, rng.standard_normal(xk.size) * 10.0 ** rng.uniform(-3.0, 3.0), sizes[0]


class TestSolveRoutes:
    """The spline system goes to LAPACK's dgtsv in numpy's OpenBLAS where
    numpy has one, and to scipy's wrapper of the same routine elsewhere; both
    routes give the same bytes."""

    @settings(max_examples=150, deadline=None)
    @given(knot_sets())
    def test_selected_route_matches_scipy_bytes(self, case):
        xk, yk, a = case
        (system,) = captured_systems(emd._splines, xk, yk, a, 50)
        assert solved(emd._gtsv, system) == solved(scipy_gtsv, system)

    def test_long_noise_system_matches_scipy_bytes(self):
        x = np.random.default_rng(5).standard_normal(2**16)
        (system,) = captured_systems(emd.is_imf, x)
        assert system[1].size > 40_000
        assert solved(emd._gtsv, system) == solved(scipy_gtsv, system)

    def test_cli_import_loads_no_scipy(self, tmp_path):
        """A whole extract -> evaluate -> decompose run in a fresh process
        loads no scipy module and, where a bare numpy import does not, no
        numpy.ma module (np.unique on numpy >= 2.3 imports it)."""
        manifest = generate_corpus(tmp_path / "corpus", n_per_class=4, seed=7)
        wav = next((tmp_path / "corpus").glob("*.wav"))
        code = """if True:
            import json, sys
            import numpy
            bare_ma = "numpy.ma" in sys.modules
            from emdclf import cli, emd
            manifest, wav, out = sys.argv[1:]
            for argv in (["extract", "--manifest", manifest, "--out", out],
                         ["evaluate", "--cache", out + "/features.csv", "--out", out, "--folds", "2"],
                         ["decompose", "--wav", wav, "--out", out + "/dump.csv"]):
                assert cli.main(argv) == 0, argv
            loaded = sorted(sys.modules)
            print(json.dumps({"gtsv": emd._gtsv.__name__, "bare_ma": bare_ma,
                              "ma": [m for m in loaded if m.split(".")[:2] == ["numpy", "ma"]],
                              "scipy": [m for m in loaded if m.split(".")[0] == "scipy"]}))
        """
        src = str(Path(emd.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-W", "error", "-c", code, str(manifest), str(wav),
                               str(tmp_path / "out")], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, check=True, timeout=120)
        seen = json.loads(proc.stdout.splitlines()[-1])
        if seen["bare_ma"] and seen["gtsv"] == "scipy_gtsv":
            pytest.skip("import numpy loads numpy.ma, and numpy's OpenBLAS does not export dgtsv here")
        if not seen["bare_ma"]:
            assert seen["ma"] == []
        if seen["gtsv"] != "scipy_gtsv":
            assert (seen["gtsv"], seen["scipy"]) == ("numpy_gtsv", [])

    @pytest.mark.parametrize("missing", ["library", "symbol"])
    def test_fallback_is_scipy_with_the_same_bytes(self, tmp_path, monkeypatch, missing):
        if missing == "symbol":  # a library that links no LAPACK: ctypes' own module
            (tmp_path / "libfake_openblas64_.so").symlink_to(_ctypes.__file__)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1].size)
            return dgtsv(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", counted)
        fallback = emd._load_gtsv(str(tmp_path))
        xk, yk = np.cumsum(np.arange(1.0, 40.0)), np.cos(np.arange(39.0))
        expected = emd._splines(xk, yk, 20, 800)
        monkeypatch.setattr(emd, "_gtsv", fallback)
        assert emd._splines(xk, yk, 20, 800).tobytes() == expected.tobytes()
        assert calls == [37]

    def test_failed_solve_raises(self, monkeypatch):
        monkeypatch.setattr(emd, "_gtsv", lambda dl, d, du, b: 1)
        with pytest.raises(np.linalg.LinAlgError, match="singular spline system"):
            emd.spline_envelope(np.arange(5.0), np.cos(np.arange(5.0)), 10)

    @pytest.mark.parametrize("bad", ["size", "dtype", "strided", "read_only"])
    def test_numpy_route_rejects_bad_arrays(self, bad):
        if emd._gtsv.__name__ != "numpy_gtsv":
            pytest.skip("numpy's OpenBLAS does not export dgtsv here")
        dl, d, du, b = np.full(4, 0.1), np.ones(5), np.full(4, 0.1), np.arange(5.0)
        if bad == "size":
            b = np.arange(6.0)
        elif bad == "dtype":
            d = d.astype(np.float32)
        elif bad == "strided":
            b = np.arange(10.0)[::2]
        else:
            b.flags.writeable = False
        with pytest.raises((ValueError, TypeError)):
            emd._gtsv(dl, d, du, b)

    def test_threads_share_the_solve(self):
        # systems of very different orders, so a size shared between calls shows
        systems = [captured_systems(emd.is_imf, np.random.default_rng(s).standard_normal(m))[0]
                   for s, m in enumerate((20, 3000, 40, 2000, 60, 1000, 100, 500))]
        expected = [solved(emd._gtsv, system) for system in systems]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(lambda: [solved(emd._gtsv, s) for s in systems * 50])
                           for _ in range(4)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(r == expected * 50 for r in results)


def blocked(call, block, *args):
    """`call(*args)` with the stacked spline grid evaluated `block` points at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(emd, "_GRID_BLOCK", block)
        return call(*args)


def block_sizes(n):
    """1, 7, 64 and the sizes about n and 2n that put block edges on or next
    to the set boundary at n."""
    return sorted({b for b in (1, 7, 64, n - 1, n, n + 1, 2 * n - 1) if b >= 1})


def zigzag(n, maxima, minima):
    """A piecewise-linear signal whose only extrema are the given ones."""
    turns = sorted([(i, 1.0) for i in maxima] + [(i, -1.0) for i in minima])
    return np.interp(np.arange(n), [0] + [i for i, _ in turns] + [n - 1],
                     [0.0] + [v for _, v in turns] + [0.0])


class TestGridBlocks:
    """Every block size gives the bytes of a single block (2n <= 8192 here)."""

    @pytest.mark.parametrize("x", [
        # extrema on multiples of 7: with 7-point blocks every start of both
        # sets, and the set boundary at n = 63, lies on a block edge
        zigzag(63, [7, 21, 35, 49], [14, 28, 42, 56]),
        zigzag(64, [7, 21, 35, 49], [14, 28, 42, 56]),
        zigzag(6, [1, 3], [2, 4]),  # the shortest signal with two of each
        np.random.default_rng(21).standard_normal(300),
        np.round(3 * np.sin(np.arange(257) * 0.3)),  # plateaus
    ], ids=["edges_63", "edges_64", "n6", "noise_300", "plateaus_257"])
    def test_mean_envelope(self, x):
        one = envelope_mean(x)
        for block in block_sizes(x.size):
            assert blocked(envelope_mean, block, x).tobytes() == one.tobytes(), block

    @pytest.mark.parametrize("n, xk", [
        (0, [0.0, 2.0, 5.0, 9.0]),
        (1, [-3.0, 0.0, 0.5, 4.0]),
        (2, [0.0, 1.0, 2.0]),
        (2, [-1.0, 0.25, 0.5, 0.75, 3.0]),  # three starts at 1
        (14, [-5.0, 0.0, 7.0, 7.25, 7.5, 14.0, 20.0]),  # starts on 7-point edges, two at 8
        (64, [-2.0, 0.0, 1.0, 63.0, 63.5, 64.0, 64.5, 70.0]),  # clipped to 0 and 64
        (100, list(np.arange(-7.0, 120.0, 7.0))),
    ])
    def test_spline_envelope(self, n, xk):
        yk = np.cos(np.arange(len(xk)) * 1.7)
        one = emd.spline_envelope(xk, yk, n)
        for block in block_sizes(n):
            got = blocked(emd.spline_envelope, block, xk, yk, n)
            assert got.tobytes() == one.tobytes(), block

    @settings(max_examples=100, deadline=None)
    @given(envelope_signals(), st.integers(1, 6000))
    def test_any_block_size(self, x, block):
        ext = emd.find_local_extrema(x)
        assume(ext.maxima_idx.size >= 2 and ext.minima_idx.size >= 2)
        assert blocked(envelope_mean, block, x).tobytes() == envelope_mean(x).tobytes()

    def test_mode_test_memory_is_bounded(self):
        # one mode test on a 2**16-sample iterate: every 2n-length temporary
        # would add 1 MB; numpy reports its buffers to tracemalloc
        x = np.random.default_rng(0).standard_normal(2**16)
        emd._check_candidate(x)  # the first call fills numpy's own caches
        tracemalloc.start()
        try:
            emd._check_candidate(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5_000_000


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

    def test_matches_parent_formula(self):
        strict_seen = set()
        special = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf])
        nonzero = st.floats(allow_nan=False).filter(lambda v: v != 0.0)

        @settings(max_examples=400, deadline=None)
        @given(st.one_of(st.lists(nonzero, max_size=300),
                         st.lists(st.one_of(nonzero, special), max_size=300)))
        @example([])
        @example([-0.0, 1.0, -1.0])
        @example([1.0, np.nan, -1.0])
        @example([np.inf, -np.inf, 5e-324])
        def check(xs):
            x = np.array(xs, dtype=np.float64)
            assert emd.count_zero_crossings(x) == _parent_count_zero_crossings(x)
            strict_seen.add(bool(((x < 0.0) | (x > 0.0)).all()))

        check()
        assert strict_seen == {False, True}  # both the fast and the zero-aware case ran


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

    @settings(max_examples=300, deadline=None)
    @given(mode_test_inputs())
    @example(np.array([0.0, 1.0, 0.0]))  # one maximum, and the counts agree
    @example(np.array([1.0, 1.0, -1.0]))
    def test_ratio_is_nan_exactly_without_both_envelopes(self, x):
        check = emd.is_imf(x)
        if check.n_maxima >= 2 and check.n_minima >= 2:
            assert np.isfinite(check.envelope_ratio)
            assert envelope_mean(x).shape == x.shape
        else:
            assert np.isnan(check.envelope_ratio) and not check.passed
            h, iters, sifted = emd.sift(x)
            np.testing.assert_equal((h, iters, astuple(sifted)), (x, 0, astuple(check)))


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
            _, iters, _ = emd.sift(x)
            assert iters <= 100

    def test_insufficient_extrema(self):
        # no envelope: the input comes back as a copy, unsifted, with its failing test
        x = np.linspace(0.0, 1.0, 50)
        h, iters, check = emd.sift(x)
        assert np.array_equal(h, x) and h is not x
        assert iters == 0 and not check.passed
        np.testing.assert_equal(astuple(check), astuple(emd.is_imf(x)))

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

    def test_input_unchanged(self):
        # the candidate comes back owning exactly its samples
        x = np.random.default_rng(22).standard_normal(500)
        before = x.tobytes()
        h, iters, _ = emd.sift(x)
        assert iters >= 1 and h is not x
        assert h.base is None and h.nbytes == x.nbytes
        assert x.tobytes() == before

    @pytest.mark.parametrize("max_iters", [1.5, 2.0, -1, "3"])
    def test_bad_max_iters_rejected(self, max_iters):
        x = np.random.default_rng(23).standard_normal(300)
        with pytest.raises(ValueError, match="max_iters"):
            emd.sift(x, max_iters=max_iters)

    def test_integer_max_iters_accepted(self):
        x = np.random.default_rng(19).standard_normal(300)
        assert emd.sift(x, max_iters=np.int64(1))[1] == 1
        assert emd.sift(x, max_iters=0)[1] == 0


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

    def test_input_unchanged(self):
        x = np.random.default_rng(24).standard_normal(800)
        before = x.tobytes()
        sig = Signal(x, 1000)
        dec = emd.decompose(sig)
        assert dec.imfs and sum(dec.sift_counts) >= 1
        assert sig.samples.tobytes() == before

    @pytest.mark.parametrize("max_imfs", [2.5, 3.0, -1, "2"])
    def test_bad_max_imfs_rejected(self, max_imfs):
        sig = Signal(np.random.default_rng(25).standard_normal(600), 1000)
        with pytest.raises(ValueError, match="max_imfs"):
            emd.decompose(sig, max_imfs=max_imfs)

    def test_integer_max_imfs_accepted(self):
        sig = Signal(np.random.default_rng(25).standard_normal(600), 1000)
        assert len(emd.decompose(sig, max_imfs=np.int64(1)).imfs) == 1
        assert emd.decompose(sig, max_imfs=0).imfs == []

    def test_deterministic(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal(512)
        d1 = emd.decompose(Signal(x, 1000))
        d2 = emd.decompose(Signal(x.copy(), 1000))
        assert len(d1.imfs) == len(d2.imfs)
        for a, b in zip(d1.imfs, d2.imfs):
            assert np.array_equal(a, b)
        assert np.array_equal(d1.residual, d2.residual)


def _savetxt_dump(fh, signal, dec):
    """The dump writer before block formatting, one ``np.savetxt`` call,
    copied verbatim: the byte reference for `write_decomposition_csv`."""
    n_cols = max(emd.DEFAULT_MAX_IMFS, len(dec.imfs))
    header = "t,input," + ",".join(f"imf{i + 1}" for i in range(n_cols)) + ",residual"
    t = np.arange(signal.samples.size) / signal.sample_rate_hz
    table = np.column_stack([t, signal.samples, *dec.imfs, dec.residual])
    cells = ["%.17g"] * (2 + len(dec.imfs)) + [""] * (n_cols - len(dec.imfs)) + ["%.17g"]
    np.savetxt(fh, table, fmt=",".join(cells), header=header, comments="")


BLOCK = emd._DUMP_BLOCK_ROWS


class TestDecompositionCsv:
    @pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7])
    @pytest.mark.parametrize("n_modes", [0, 1, 5, 7])
    def test_bytes_equal_savetxt_at_block_edges(self, tmp_path, rows, n_modes):
        rng = np.random.default_rng(rows * 10 + n_modes)
        values = rng.standard_normal((n_modes + 2, rows)) * 10.0 ** rng.integers(-300, 300, rows)
        values.flat[:2] = -0.0, 1e-310  # signed zero and a subnormal
        # a stand-in with the two attributes the writer reads: a Signal needs two samples
        signal = SimpleNamespace(samples=values[0], sample_rate_hz=7)
        dec = emd.ImfDecomposition(imfs=list(values[1:-1]), residual=values[-1])
        ref = io.StringIO()
        _savetxt_dump(ref, signal, dec)

        path = tmp_path / "dump.csv"
        emd.write_decomposition_csv(path, signal, dec)
        assert path.read_bytes() == ref.getvalue().encode()
        assert ref.getvalue().count("\n") == rows + 1

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


def _traced_peak(fn):
    """Peak bytes traced during a second call of `fn` (the first fills numpy's caches)."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """Buffers on the decompose path live only until their last use."""

    def test_sift_holds_one_envelope(self):
        # sifting adds less than 1.75 n-length arrays to one mode test's peak:
        # an old envelope kept through the next mode test would add a whole one
        n = 2**16
        x = np.random.default_rng(0).standard_normal(n)
        assert emd.sift(x, max_iters=3)[1] == 3
        one_test = _traced_peak(lambda: emd._check_candidate(x))
        sifting = _traced_peak(lambda: emd.sift(x, max_iters=3))
        assert sifting - one_test < 1.75 * n * 8
