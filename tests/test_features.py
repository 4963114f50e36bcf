import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from emdclf import emd, features
from emdclf.cli import RunConfig, run_extract
from emdclf.emd import ImfDecomposition
from emdclf.errors import CacheFormatError, TooShort
from emdclf.features import (CACHE_HEADER, FEATURE_NAMES, N_FEATURES,
                             FeatureVector, LabeledDataset,
                             extract_feature_vector, hjorth,
                             read_feature_cache, shannon_entropy,
                             write_feature_cache, zero_crossing_rate)
from emdclf.synthetic import generate_corpus

from conftest import _parent_spline_envelope, envelope_mean_from


def entropy_oracle(x, bins=64):
    """Per-sample floor binning, independent of np.histogram."""
    lo, hi = min(x), max(x)
    if lo == hi:
        return 0.0
    counts = [0] * bins
    for v in x:
        b = int((v - lo) / (hi - lo) * bins)
        counts[min(b, bins - 1)] += 1
    h = 0.0
    for c in counts:
        if c:
            p = c / len(x)
            h -= p * math.log2(p)
    return h


def _parent_shape_moments(x):
    """`features._shape_moments` when it raised to powers with libm `pow`,
    verbatim."""
    if x.min() == x.max():
        return 0.0, 0.0
    c = x - x.mean()
    m2 = np.mean(c * c)
    return float(np.mean(c**3) / m2**1.5), float(np.mean(c**4) / (m2 * m2) - 3.0)


def moment_inputs():
    """Integer multiples of a scale (a spread well above underflow), constant
    runs, and near-constant runs: an offset plus tiny integer multiples,
    which at large offsets round to a few distinct values."""
    spread = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=200)
    return st.one_of(
        st.builds(lambda k, s: s * np.array(k, dtype=np.float64), spread,
                  st.floats(1e-6, 1e6)),
        st.builds(lambda v, n: np.full(n, v), st.floats(-1e6, 1e6), st.integers(1, 50)),
        st.builds(lambda v, eps, k: v + eps * np.array(k, dtype=np.float64),
                  st.floats(-1e6, 1e6), st.sampled_from([1e-12, 1e-9, 1e-6]),
                  st.lists(st.integers(-1000, 1000), min_size=2, max_size=200)),
    )


def fake_decomposition(imfs, n):
    return ImfDecomposition(imfs=list(imfs), residual=np.zeros(n))


class TestZeroCrossingRate:
    def test_alternating(self):
        assert zero_crossing_rate([1.0, -1.0, 1.0], 2) == pytest.approx(2.0)

    def test_monotone(self):
        assert zero_crossing_rate([1.0, 2.0, 3.0], 44100) == 0.0

    def test_sampled_sine(self):
        # 5 Hz over 1 s: 9 countable crossings (the t=0 sample is exactly
        # zero and has no previous sign), so 9 * 1000 / 999 per second.
        t = np.arange(1000) / 1000.0
        rate = zero_crossing_rate(np.sin(2 * np.pi * 5 * t), 1000)
        assert rate == pytest.approx(9 * 1000 / 999)

    def test_too_short(self):
        with pytest.raises(TooShort):
            zero_crossing_rate([1.0], 10)

    def test_zero_rate_rejected(self):
        for rate in (0, math.nan):
            with pytest.raises(ValueError, match="sample rate must be positive"):
                zero_crossing_rate([1.0, -1.0, 1.0], rate)


class TestShannonEntropy:
    def test_constant(self):
        assert shannon_entropy(np.full(100, 3.3)) == 0.0

    def test_uniform_64(self):
        x = np.linspace(0.0, 63.0, 64)
        assert shannon_entropy(x) == pytest.approx(6.0, abs=1e-12)

    def test_matches_oracle_on_normal_samples(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(10_000)
        assert shannon_entropy(x) == pytest.approx(entropy_oracle(x), abs=1e-12)

    def test_too_short(self):
        with pytest.raises(TooShort):
            shannon_entropy([1.0])

    @pytest.mark.parametrize("x, expected", [
        # ranges of a few ulps, down to one subnormal step: np.histogram
        # cannot cut them into 64 distinct float edges
        ([128.0, 128.0 + 1e-13, 128.0], entropy_oracle([128.0, 128.0 + 1e-13, 128.0])),
        ([1.0, 1.0 + 2.0**-52, 1.0], entropy_oracle([1.0, 1.0 + 2.0**-52, 1.0])),
        ([0.0, 5e-324, 0.0], entropy_oracle([0.0, 5e-324, 0.0])),
        # the span overflows: the bins are 0, 32 and 63
        ([-1e308, 1e308, 0.0], math.log2(3)),
    ], ids=["ulps_at_128", "one_ulp_at_1", "one_subnormal", "overflowing_span"])
    def test_ranges_without_finite_float_bins(self, x, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert shannon_entropy(x) == pytest.approx(expected, abs=1e-12)

    def test_narrow_range_mode_gets_features(self):
        x = np.array([128.0, 128.0 + 1e-13, 128.0])
        vec = extract_feature_vector(fake_decomposition([x], 3), 1000)
        assert vec.values[6] == pytest.approx(entropy_oracle(x), abs=1e-12)

    @pytest.mark.parametrize("x", [[np.nan, 1.0], [1.0, np.inf], [-np.inf, 0.0, 1.0]],
                             ids=["nan", "inf", "minus_inf"])
    def test_non_finite_range_raises(self, x):
        with pytest.raises(ValueError, match="not finite"):
            shannon_entropy(x)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=80))
    def test_any_finite_input_gives_bits_in_range(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = shannon_entropy(x)
        assert math.isfinite(h) and 0.0 <= h <= 6.0


class TestHjorth:
    def test_ramp_has_zero_mobility(self):
        # dyadic step so the differences are exactly constant
        activity, mobility, complexity = hjorth(np.arange(50) * 0.5)
        assert mobility == 0.0
        assert complexity == 0.0
        assert activity > 0.0

    def test_constant(self):
        assert hjorth(np.full(10, 4.0)) == (0.0, 0.0, 0.0)

    def test_sampled_sine(self):
        t = np.arange(1000) / 1000.0
        _, mobility, complexity = hjorth(np.sin(2 * np.pi * 10 * t))
        assert abs(mobility - 2 * np.pi * 10 / 1000) / (2 * np.pi * 10 / 1000) < 0.02
        assert abs(complexity - 1.0) < 0.02

    def test_too_short(self):
        with pytest.raises(TooShort):
            hjorth([1.0, 2.0])


class TestExtractFeatureVector:
    def test_no_imfs_gives_zeros(self):
        vec = extract_feature_vector(fake_decomposition([], 64), 1000)
        assert vec.values.shape == (N_FEATURES,)
        assert np.array_equal(vec.values, np.zeros(N_FEATURES))

    def test_three_imfs_pad_blocks_four_five(self):
        rng = np.random.default_rng(4)
        imfs = [rng.standard_normal(128) for _ in range(3)]
        vec = extract_feature_vector(fake_decomposition(imfs, 128), 1000)
        assert np.array_equal(vec.values[27:], np.zeros(18))  # entries 28..45
        assert np.any(vec.values[:27] != 0.0)

    def test_blocks_match_standalone_features(self):
        rng = np.random.default_rng(5)
        imfs = [rng.standard_normal(256) for _ in range(4)]
        rate = 500
        vec = extract_feature_vector(fake_decomposition(imfs, 256), rate)
        w = len(FEATURE_NAMES)
        for b, x in enumerate(imfs):
            block = vec.values[b * w:(b + 1) * w]
            c = x - x.mean()
            m2 = np.mean(c * c)
            _, mobility, complexity = hjorth(x)
            expected = [
                np.mean(np.abs(x)),
                np.std(x, ddof=1),
                np.sqrt(np.mean(x * x)),
                np.mean(c**3) / m2**1.5,
                np.mean(c**4) / m2**2 - 3.0,
                zero_crossing_rate(x, rate),
                shannon_entropy(x),
                mobility,
                complexity,
            ]
            assert block == pytest.approx(expected, rel=1e-12)

    def test_scaling_behaviour(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(400)
        rate = 800
        base = extract_feature_vector(fake_decomposition([x], 400), rate).values[:9]
        for c in (0.5, 3.0, 100.0):
            scaled = extract_feature_vector(fake_decomposition([c * x], 400), rate).values[:9]
            # amplitude features scale linearly
            assert scaled[0] == pytest.approx(c * base[0], rel=1e-12)
            assert scaled[1] == pytest.approx(c * base[1], rel=1e-12)
            assert scaled[2] == pytest.approx(c * base[2], rel=1e-12)
            # shape features are scale-free
            assert scaled[5] == pytest.approx(base[5])          # zcr
            assert scaled[6] == pytest.approx(base[6], abs=1e-9)  # entropy
            assert scaled[7] == pytest.approx(base[7], rel=1e-12)  # mobility
            assert scaled[8] == pytest.approx(base[8], rel=1e-12)  # complexity

    def test_fuzz_always_finite(self):
        rng = np.random.default_rng(9)
        for _ in range(10_000):
            n_imfs = int(rng.integers(0, 6))
            n = int(rng.integers(3, 48))
            imfs = []
            for _ in range(n_imfs):
                kind = rng.integers(0, 4)
                if kind == 0:
                    imf = np.full(n, float(rng.normal()))
                elif kind == 1:
                    imf = np.linspace(0, float(rng.normal()), n)
                elif kind == 2:
                    imf = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 6)
                else:
                    imf = np.zeros(n)
                imfs.append(imf)
            vec = extract_feature_vector(fake_decomposition(imfs, n), 1000)
            assert np.all(np.isfinite(vec.values))


class TestShapeMomentOracle:
    @settings(max_examples=400, deadline=None)
    @given(moment_inputs())
    @example(np.array([1.0, 1.0, 1.0 + 2.0**-52]))
    @example(np.array([3.0]))
    def test_products_agree_with_pow(self, x):
        # relative to the terms' magnitude: skewness may cancel to about 0,
        # and kurtosis + 3 is the ratio the moments actually form
        skew, kurt = features._shape_moments(x)
        skew0, kurt0 = _parent_shape_moments(x)
        if x.min() == x.max():
            assert (skew, kurt) == (skew0, kurt0) == (0.0, 0.0)
            return
        c = x - x.mean()
        m2 = np.mean(c * c)
        assert abs(skew - skew0) <= 1e-12 * np.mean(np.abs(c) ** 3) / m2**1.5
        assert abs(kurt - kurt0) <= 1e-12 * (kurt0 + 3.0)

    def test_golden_corpus_features_agree_with_former_kernel(self, tmp_path, monkeypatch):
        # the golden corpus of test_golden.py; the contract is per column,
        # relative to the column's largest magnitude
        manifest = generate_corpus(tmp_path / "corpus", n_per_class=8, seed=3, n_samples=2000)

        def features_of(name):
            config = RunConfig(manifest=manifest, out_dir=tmp_path / name)
            return read_feature_cache(run_extract(config)).features

        now = features_of("now")
        # the mode test builds both envelopes in one kernel; the former one
        # draws each envelope on its own
        monkeypatch.setattr(emd, "_envelope_mean", partial(envelope_mean_from,
                                                           _parent_spline_envelope))
        former_spline = features_of("former_spline")
        monkeypatch.setattr(features, "_shape_moments", _parent_shape_moments)
        former = features_of("former")
        assert now.shape == former.shape == (16, N_FEATURES)
        # each patch took effect on its own
        assert not np.array_equal(now, former_spline)
        assert not np.array_equal(former_spline, former)
        scale = np.abs(former).max(axis=0)
        assert (np.abs(now - former) <= 1e-10 * scale).all()

    @settings(max_examples=200, deadline=None)
    @given(moment_inputs(), st.one_of(st.integers(-700, -300), st.integers(300, 960)))
    @example(np.array([0.0, 1.0, -1.0, 2.0, 0.0]), -565)  # about [0, 1e-170, -1e-170, 2e-170, 0]
    @example(np.array([0.3, -1.2, 0.5, 2.0, -0.7]), -266)  # about 1e-80
    @example(np.array([0.0, 1.0, -1.0, 2.0, 0.0]), 266)  # about 1e80
    @example(np.array([0.3, -1.2, 0.5, 2.0, -0.7]), 994)  # up to about 3e299
    def test_underflowing_moments_equal_rescaled_ones(self, x, e):
        # the fourth powers of x * 2**e under- or overflow (every deviation is
        # below 2**-258, or the largest above 2**258); the moments are those of
        # the input rescaled so that its largest deviation has exponent 0.
        # Nonzero values >= 2**-250 keep every step of x * 2**e normal, and
        # magnitudes up to 1e300 keep its sum finite, so each scaling is exact.
        assume(x.min() != x.max() and (np.abs(x[x != 0]) >= 2.0**-250).all())
        assume(np.frexp(np.abs(x).max())[1] + e <= 996)  # 2**996 < 1e300
        small = np.ldexp(x, e)
        c = small - small.mean()
        rescaled = np.ldexp(small, -np.frexp(np.abs(c).max())[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            moments = features._shape_moments(small)
        assert np.isfinite(moments).all()
        assert moments == features._shape_moments(rescaled)

    def test_overflowing_mode_gives_finite_features(self):
        # a mode far above z-scored scale: its fourth powers overflow
        self._check_finite_amplitude_features(1e80)

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_overflowing_squares_give_finite_features(self, scale):
        # further up, its squares (RMS, std, hjorth's variances) overflow too
        self._check_finite_amplitude_features(scale)

    @staticmethod
    def _check_finite_amplitude_features(scale):
        x = np.array([0.0, 1.0, -1.0, 2.0, 0.0]) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vec = extract_feature_vector(fake_decomposition([x], x.size), 1000)
        assert np.isfinite(vec.values).all()
        assert vec.values[:3] == pytest.approx(np.array([0.8, 1.1401754250991378, 1.0954451150103321])
                                               * scale, rel=1e-15)

    def test_moments_near_the_largest_float(self):
        # the sum in the mean overflows unless the input is scaled first
        x = np.array([1.0, 1.0, 0.0, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            moments = features._shape_moments(x * 1e308)
        assert moments == pytest.approx(features._shape_moments(x), rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(moment_inputs(), st.one_of(st.integers(-700, -300), st.integers(300, 960)))
    @example(np.array([0.0, 1.0, -1.0, 2.0, 0.0]), 531)  # about 1e160
    @example(np.array([0.3, -1.2, 0.5, 2.0, -0.7]), -600)  # about 1e-181
    @example(np.array([0.3, -1.2, 0.5, 2.0, -0.7]), 994)  # up to about 3e299
    def test_block_equals_rescaled_one(self, x, e):
        # the features of x * 2**e are those of x rescaled so that its largest
        # magnitude has exponent 0, with the three amplitude features scaled
        # back by the same power of two; the same bounds as above keep every
        # scaling exact
        assume(x.size >= 3 and (np.abs(x[x != 0]) >= 2.0**-250).all())
        peak = np.frexp(np.abs(x).max())[1]
        assume(peak + e <= 996)

        def block(v):
            try:
                return features._block(v, 1000)
            except ValueError as exc:  # np.histogram finds too small a range for 64 bins
                return str(exc)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = block(np.ldexp(x, e))
        want = block(np.ldexp(x, -peak))
        if isinstance(want, str):
            assert got == want
        else:
            want[:3] = np.ldexp(want[:3], peak + e)
            assert got.tobytes() == want.tobytes()


class TestFeatureVectorType:
    def test_length_enforced(self):
        with pytest.raises(ValueError):
            FeatureVector(np.zeros(44))

    def test_finite_enforced(self):
        bad = np.zeros(N_FEATURES)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            FeatureVector(bad)


class TestFeatureCache:
    def make_dataset(self, n=10):
        rng = np.random.default_rng(10)
        rows = [rng.standard_normal(N_FEATURES) * 10.0 ** rng.integers(-8, 8) for _ in range(n)]
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        return LabeledDataset(rows, labels, [f"file_{i}.wav" for i in range(n)])

    def test_header(self, tmp_path):
        path = tmp_path / "cache.csv"
        write_feature_cache(path, self.make_dataset())
        assert path.read_text().splitlines()[0] == ",".join(CACHE_HEADER)

    def test_lossless_roundtrip(self, tmp_path):
        data = self.make_dataset()
        path = tmp_path / "cache.csv"
        write_feature_cache(path, data)
        back = read_feature_cache(path)
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.labels, data.labels)
        assert back.source_ids == data.source_ids

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "cache.csv"
        path.write_text("id,x,y\n1,2,3\n")
        with pytest.raises(CacheFormatError):
            read_feature_cache(path)

    def test_bad_label_rejected(self, tmp_path):
        data = self.make_dataset(3)
        path = tmp_path / "cache.csv"
        write_feature_cache(path, data)
        text = path.read_text().replace("\n", "\n", 1)
        lines = text.splitlines()
        cells = lines[1].split(",")
        cells[-1] = "positive"
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CacheFormatError):
            read_feature_cache(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "abc", ""])
    def test_malformed_value_rejected(self, tmp_path, cell):
        path = tmp_path / "cache.csv"
        write_feature_cache(path, self.make_dataset(3))
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[7] = cell
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CacheFormatError, match="line 3"):
            read_feature_cache(path)


class TestLabeledDataset:
    def test_parallel_lengths_enforced(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((3, 2)), np.array([0, 1]))

    def test_binary_labels_enforced(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 2)), np.array([0, 2]))
        with pytest.raises(ValueError, match="labels must be 0 or 1"):  # not truncated to 0, 1
            LabeledDataset(np.zeros((2, 2)), [0.5, 1.7])

    def test_one_dimensional_features_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            LabeledDataset(np.zeros(3), np.array([0, 1, 0]))

    def test_source_ids_parallel_enforced(self):
        with pytest.raises(ValueError, match="source_ids"):
            LabeledDataset(np.zeros((2, 2)), np.array([0, 1]), ["a.wav"])
