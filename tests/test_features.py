import math

import numpy as np
import pytest

from emdclf.emd import ImfDecomposition
from emdclf.errors import CacheFormatError, TooShort
from emdclf.features import (CACHE_HEADER, FEATURE_NAMES, N_FEATURES,
                             FeatureVector, LabeledDataset,
                             extract_feature_vector, hjorth,
                             read_feature_cache, shannon_entropy,
                             write_feature_cache, zero_crossing_rate)


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


def fake_decomposition(imfs, n):
    return ImfDecomposition(imfs=list(imfs), residual=np.zeros(n), source_id="fake")


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
        assert vec.source_id == "fake"

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
        vectors = [FeatureVector(rng.standard_normal(N_FEATURES) * 10.0 ** rng.integers(-8, 8),
                                 source_id=f"file_{i}.wav")
                   for i in range(n)]
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        return LabeledDataset.from_feature_vectors(vectors, labels)

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
