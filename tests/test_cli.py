import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emdclf import ALGORITHMS, __version__, emd
from emdclf.cli import (ManifestEntry, RunConfig, load_manifest, main,
                        run_evaluate, run_extract)
from emdclf.errors import (CacheFormatError, DegenerateSignal, ManifestFormatError,
                           MissingFile, NoUsableAudio)
from emdclf.features import N_FEATURES, extract_feature_vector, read_feature_cache
from emdclf.signal import decode_wav, encode_wav, z_normalize
from emdclf.synthetic import generate_corpus

RATE = 8000
REPORT_FILES = ("metrics.csv", "confusion.txt", "summary.txt",
                *(f"roc_{name}.csv" for name in ALGORITHMS))


def small_corpus(root, n_per_class=8, n_samples=1200):
    return generate_corpus(root / "corpus", n_per_class=n_per_class,
                           seed=3, n_samples=n_samples)


class TestLoadManifest:
    def test_rows_in_order(self, tmp_path):
        wav = encode_wav(np.sin(np.linspace(0, 20, 400)), RATE)
        (tmp_path / "a.wav").write_bytes(wav)
        (tmp_path / "b.wav").write_bytes(wav)
        m = tmp_path / "manifest.csv"
        m.write_text("path,label\na.wav,0\nb.wav,1\n")
        entries = load_manifest(m)
        assert [e.path.name for e in entries] == ["a.wav", "b.wav"]
        assert [e.label for e in entries] == [0, 1]
        assert all(e.path.is_absolute() for e in entries)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_manifest(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        m = tmp_path / "manifest.csv"
        m.write_text("file,y\na.wav,0\n")
        with pytest.raises(ManifestFormatError):
            load_manifest(m)

    def test_bad_label(self, tmp_path):
        m = tmp_path / "manifest.csv"
        m.write_text("path,label\na.wav,positive\n")
        with pytest.raises(ManifestFormatError,
                           match="line 2: label 'positive' is not 0 or 1"):
            load_manifest(m)

    def test_empty_manifest(self, tmp_path):
        m = tmp_path / "manifest.csv"
        m.write_text("path,label\n")
        with pytest.raises(ManifestFormatError, match="no data rows"):
            load_manifest(m)

    def test_absolute_path_kept(self, tmp_path):
        wav = tmp_path / "elsewhere" / "a.wav"
        m = tmp_path / "lists" / "manifest.csv"
        m.parent.mkdir()
        m.write_text(f"path,label\n{wav},1\n")
        assert load_manifest(m) == [ManifestEntry(wav, 1, str(wav))]

    def test_empty_file(self, tmp_path):
        m = tmp_path / "manifest.csv"
        m.write_text("")
        with pytest.raises(ManifestFormatError, match="line 1"):
            load_manifest(m)

    def test_wrong_width_names_line(self, tmp_path):
        m = tmp_path / "manifest.csv"
        m.write_text("path,label\na.wav,0\nb.wav,1,extra\n")
        with pytest.raises(ManifestFormatError, match="line 3"):
            load_manifest(m)

    def test_first_bad_line_reported(self, tmp_path):
        m = tmp_path / "manifest.csv"
        m.write_text("path,label\n,0\nb.wav,positive\n")
        with pytest.raises(ManifestFormatError, match="line 2: empty path"):
            load_manifest(m)

    @pytest.mark.parametrize("rows, line, cell, first", [
        ("tone_000.wav,1\nnoise_000.wav,0\ntone_000.wav,1\n", 4, "tone_000.wav", 2),
        ("noise_000.wav,0\ntone_000.wav,1\n./noise_000.wav,0\n", 4, "./noise_000.wav", 2),
    ], ids=["same_cell", "dot_slash"])
    def test_repeated_file_rejected(self, tmp_path, rows, line, cell, first):
        manifest = small_corpus(tmp_path, n_per_class=1)
        manifest.write_text("path,label\n" + rows)
        message = f"line {line}: {cell} names the same file as line {first}"
        with pytest.raises(ManifestFormatError, match=re.escape(message)):
            load_manifest(manifest)
        out = tmp_path / "out"
        assert main(["extract", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert not out.exists()


class TestRunExtract:
    def test_row_counts(self, tmp_path):
        manifest = small_corpus(tmp_path)
        cache = run_extract(RunConfig(manifest=manifest, out_dir=tmp_path / "out"))
        rows = cache.read_text().splitlines()
        assert len(rows) == 1 + 16  # header + 8 per class
        assert len(rows[1].split(",")) == 47  # source_id + 45 features + label

    def test_corrupt_file_goes_to_sidecar(self, tmp_path):
        manifest = small_corpus(tmp_path)
        bad = manifest.parent / "broken.wav"
        bad.write_bytes(b"not audio at all")
        with open(manifest, "a", newline="") as fh:
            fh.write("broken.wav,0\n")
        out = tmp_path / "out"
        cache = run_extract(RunConfig(manifest=manifest, out_dir=out))
        cache_rows = cache.read_text().splitlines()
        sidecar_rows = (out / "errors.csv").read_text().splitlines()
        assert len(cache_rows) - 1 == 16
        assert len(sidecar_rows) - 1 == 1
        assert "broken.wav" in sidecar_rows[1]
        assert "MalformedWav" in sidecar_rows[1]
        # cache rows + sidecar rows == manifest rows
        assert (len(cache_rows) - 1) + (len(sidecar_rows) - 1) == 17

    def test_silent_file_goes_to_sidecar(self, tmp_path):
        manifest = small_corpus(tmp_path)
        silent = manifest.parent / "silent.wav"
        silent.write_bytes(encode_wav(np.zeros(500), RATE))
        with open(manifest, "a", newline="") as fh:
            fh.write("silent.wav,0\n")
        out = tmp_path / "out"
        run_extract(RunConfig(manifest=manifest, out_dir=out))
        assert "DegenerateSignal" in (out / "errors.csv").read_text()

    def test_invalid_signal_goes_to_sidecar(self, tmp_path):
        wav = encode_wav(np.sin(np.linspace(0, 20, 400)), RATE)
        (tmp_path / "a.wav").write_bytes(wav)
        (tmp_path / "zero_rate.wav").write_bytes(encode_wav(np.sin(np.linspace(0, 20, 400)), 0))
        (tmp_path / "c.wav").write_bytes(wav)
        m = tmp_path / "manifest.csv"
        m.write_text("path,label\na.wav,0\nzero_rate.wav,1\nc.wav,1\n")
        out = tmp_path / "out"
        assert main(["extract", "--manifest", str(m), "--out", str(out)]) == 0
        cache_rows = [row.split(",") for row in (out / "features.csv").read_text().splitlines()]
        assert len(cache_rows) - 1 == 2
        # each surviving row keeps its own file's name and label
        assert [row[0] for row in cache_rows[1:]] == ["a.wav", "c.wav"]
        assert [row[-1] for row in cache_rows[1:]] == ["0", "1"]
        sidecar_rows = (out / "errors.csv").read_text().splitlines()
        assert sidecar_rows[1:] == ["zero_rate.wav,MalformedWav: sample rate of 0 Hz"]

    def test_unreadable_file_goes_to_sidecar(self, tmp_path, monkeypatch):
        wav = encode_wav(np.sin(np.linspace(0, 20, 400)), RATE)
        for name in ("a.wav", "locked.wav", "c.wav"):
            (tmp_path / name).write_bytes(wav)
        m = tmp_path / "manifest.csv"
        m.write_text("path,label\na.wav,0\nlocked.wav,1\nc.wav,1\n")
        read_bytes = Path.read_bytes

        def deny_locked(path):
            if path.name == "locked.wav":
                raise PermissionError(13, "Permission denied", str(path))
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", deny_locked)
        out = tmp_path / "out"
        assert main(["extract", "--manifest", str(m), "--out", str(out)]) == 0
        assert len((out / "features.csv").read_text().splitlines()) - 1 == 2
        sidecar_rows = (out / "errors.csv").read_text().splitlines()
        assert len(sidecar_rows) - 1 == 1
        assert sidecar_rows[1].startswith("locked.wav,PermissionError: ")

    def test_all_failures_fatal(self, tmp_path):
        bad = tmp_path / "x.wav"
        bad.write_bytes(b"garbage")
        m = tmp_path / "manifest.csv"
        m.write_text("path,label\nx.wav,0\n")
        with pytest.raises(NoUsableAudio):
            run_extract(RunConfig(manifest=m, out_dir=tmp_path / "out"))

    def test_modes_past_the_feature_blocks_not_decomposed(self, tmp_path, monkeypatch):
        manifest = small_corpus(tmp_path, n_per_class=2)
        calls, sift = [], emd.sift

        def counted_sift(*args, **kwargs):
            calls.append(args)
            return sift(*args, **kwargs)

        monkeypatch.setattr(emd, "sift", counted_sift)
        caches = {}
        for max_imfs in (10, 5):
            calls.clear()
            cache = run_extract(RunConfig(manifest=manifest, max_imfs=max_imfs,
                                          out_dir=tmp_path / f"out{max_imfs}"))
            caches[max_imfs] = (cache.read_bytes(), len(calls))
        assert caches[10] == caches[5]

    def test_rerun_byte_identical(self, tmp_path):
        manifest = small_corpus(tmp_path)
        c1 = run_extract(RunConfig(manifest=manifest, out_dir=tmp_path / "out1"))
        c2 = run_extract(RunConfig(manifest=manifest, out_dir=tmp_path / "out2"))
        assert c1.read_bytes() == c2.read_bytes()

    def test_rows_named_by_manifest_cell(self, tmp_path):
        wav = encode_wav(np.sin(np.linspace(0, 20, 400)), RATE)
        for folder in ("a", "b"):
            (tmp_path / folder).mkdir()
            (tmp_path / folder / "x.wav").write_bytes(wav)
        m = tmp_path / "manifest.csv"
        m.write_text("path,label\na/x.wav,1\nb/x.wav,0\na/y.wav,1\n")
        out = tmp_path / "out"
        assert main(["extract", "--manifest", str(m), "--out", str(out)]) == 0
        cache_rows = (out / "features.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in cache_rows] == ["a/x.wav", "b/x.wav"]
        sidecar_rows = (out / "errors.csv").read_text().splitlines()[1:]
        assert len(sidecar_rows) == 1
        assert sidecar_rows[0].startswith("a/y.wav,MissingFile: ")

    def test_failed_rerun_leaves_no_cache(self, tmp_path):
        wav = tmp_path / "a.wav"
        wav.write_bytes(encode_wav(np.sin(np.linspace(0, 20, 400)), RATE))
        m = tmp_path / "manifest.csv"
        m.write_text("path,label\na.wav,1\n")
        out = tmp_path / "out"
        assert main(["extract", "--manifest", str(m), "--out", str(out)]) == 0
        wav.write_bytes(b"junk")
        assert main(["extract", "--manifest", str(m), "--out", str(out)]) == 3
        assert sorted(p.name for p in out.iterdir()) == ["errors.csv"]
        assert (out / "errors.csv").read_text().splitlines()[1].startswith("a.wav,MalformedWav: ")


@st.composite
def recordings(draw):
    """(samples in [-1, 1], WAV format) of 3..3,000 samples: noise, noise
    quantized to 16-bit PCM steps, a sine with a DC offset, a single spike,
    step plateaus, a chirp and clipped noise."""
    n = draw(st.integers(3, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "pcm16_noise", "offset_sine", "spike",
                                 "steps", "chirp", "clipped"]))
    t = np.arange(n)
    if kind == "noise":
        x = 0.3 * rng.standard_normal(n)
    elif kind == "pcm16_noise":
        x = np.rint(rng.standard_normal(n) * rng.choice([1, 4, 100, 3000])) / 32768.0
    elif kind == "offset_sine":
        x = 0.4 * np.sin(t * rng.uniform(0.01, 3.0)) + rng.uniform(-0.5, 0.5)
    elif kind == "spike":
        x = np.zeros(n)
        x[rng.integers(n)] = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.9)
    elif kind == "steps":
        x = np.repeat(rng.uniform(-0.9, 0.9, n), rng.integers(1, 200, n))[:n]
    elif kind == "chirp":
        x = 0.5 * np.sin(np.pi * rng.uniform(0.01, 1.0) * t * t / n)
    else:
        x = 0.3 * np.clip(rng.standard_normal(n), -rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))
    return x, draw(st.sampled_from(["pcm16", "float32"]))


class TestPerFilePath:
    """The path `run_extract` takes for one file: decode, z-score, decompose,
    then 45 features. Only z-scoring a constant recording may raise (and
    `run_extract` logs that); no step may warn."""

    @settings(max_examples=400, deadline=None)
    @given(recordings())
    def test_contracts_hold(self, recording):
        x, fmt = recording
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                sig = z_normalize(decode_wav(encode_wav(x, RATE, fmt), "rec.wav"))
            except DegenerateSignal:  # a constant recording: run_extract logs it
                return
            dec = emd.decompose(sig)
            vec = extract_feature_vector(dec, sig.sample_rate_hz)
        peak = np.abs(sig.samples).max()
        assert np.abs(dec.reconstruction() - sig.samples).max() <= 1e-9 * peak
        assert all(emd.is_imf(imf) for imf in dec.imfs)
        assert vec.values.shape == (N_FEATURES,) and np.isfinite(vec.values).all()


class TestRunEvaluate:
    def evaluate_once(self, tmp_path, out_name):
        manifest = small_corpus(tmp_path)
        config = RunConfig(manifest=manifest, out_dir=tmp_path / out_name,
                           folds=2, seed=42)
        cache = run_extract(config)
        ranked = run_evaluate(config, cache)
        return config.out_dir, ranked

    def test_report_files_and_shape(self, tmp_path):
        out, ranked = self.evaluate_once(tmp_path, "out")
        assert len(ranked) == 5
        accs = [rep.acc for _, rep, _ in ranked]
        assert accs == sorted(accs, reverse=True)
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "algorithm,acc,rec,spe,pre,f1,auc"
        assert len(lines) == 6
        for name in ("knn", "lda", "logreg", "svm_linear", "bagged_trees"):
            roc_lines = (out / f"roc_{name}.csv").read_text().splitlines()
            assert roc_lines[0] == "fpr,tpr,threshold"
            assert len(roc_lines) >= 3
            assert f"[{name}]" in (out / "confusion.txt").read_text()
        assert (out / "summary.txt").read_text().startswith("algorithm")

    def test_shared_folds_equal_totals(self, tmp_path):
        out, _ = self.evaluate_once(tmp_path, "out")
        totals = set()
        for block in (out / "confusion.txt").read_text().split("\n\n"):
            counts = [int(tok.split("=")[1]) for tok in block.split()
                      if "=" in tok]
            if counts:
                totals.add(sum(counts))
        assert totals == {16}

    def test_rerun_byte_identical(self, tmp_path):
        out1, _ = self.evaluate_once(tmp_path, "o1")
        out2, _ = self.evaluate_once(tmp_path, "o2")
        for name in ("metrics.csv", "confusion.txt", "summary.txt",
                     "roc_knn.csv", "roc_bagged_trees.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestRunConfig:
    def test_folds_below_two_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(folds=1)

    @pytest.mark.parametrize("max_imfs", [0, 11])
    def test_max_imfs_range(self, max_imfs):
        with pytest.raises(ValueError):
            RunConfig(max_imfs=max_imfs)

    def test_positive_must_be_binary(self):
        with pytest.raises(ValueError):
            RunConfig(positive=2)

    @pytest.mark.parametrize("field, value", [
        ("knn_k", 0), ("svm_c", 0), ("n_trees", 0), ("logreg_lambda", -1), ("seed", -1),
    ])
    def test_classifier_settings_checked_on_construction(self, field, value):
        with pytest.raises(ValueError):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("folds", 2.5), ("max_imfs", 2.5), ("positive", 1.0), ("seed", 1.5), ("knn_k", 2.5),
        ("n_trees", 2.5),
    ])
    def test_integer_settings_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match="must be an integer"):
            RunConfig(**{field: value})
        assert getattr(RunConfig(**{field: np.int64(int(value))}), field) == int(value)

    def test_string_paths_accepted(self, tmp_path):
        manifest = small_corpus(tmp_path, n_per_class=4)
        config = RunConfig(manifest=str(manifest), out_dir=str(tmp_path / "out"), folds=2)
        ranked = run_evaluate(config, run_extract(config))
        assert len(ranked) == 5
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
            ["errors.csv", "features.csv", *REPORT_FILES])


@pytest.fixture(scope="module")
def small_cache(tmp_path_factory):
    root = tmp_path_factory.mktemp("cache")
    return run_extract(RunConfig(manifest=small_corpus(root), out_dir=root / "out"))


def report_bytes(out_dir):
    return {name: (out_dir / name).read_bytes() for name in REPORT_FILES}


# every evaluate flag, its RunConfig field and a value other than the default
EVALUATE_FLAGS = [("--folds", "folds", 2), ("--seed", "seed", 1), ("--positive", "positive", 0),
                  ("--knn-k", "knn_k", 3), ("--svm-c", "svm_c", 0.5), ("--trees", "n_trees", 5),
                  ("--logreg-lambda", "logreg_lambda", 1e-3)]


class TestEvaluateFlags:
    def run_main(self, cache, out, *flags):
        assert main(["evaluate", "--cache", str(cache), "--out", str(out), *flags]) == 0
        return report_bytes(out)

    @pytest.mark.parametrize("flags", [EVALUATE_FLAGS] + [[f] for f in EVALUATE_FLAGS],
                             ids=["all"] + [flag for flag, _, _ in EVALUATE_FLAGS])
    def test_flags_reach_their_fields(self, small_cache, tmp_path, flags):
        via_main = self.run_main(small_cache, tmp_path / "main",
                                 *(tok for flag, _, value in flags for tok in (flag, str(value))))
        config = RunConfig(out_dir=tmp_path / "lib", **{field: value for _, field, value in flags})
        run_evaluate(config, small_cache)
        assert via_main == report_bytes(config.out_dir)
        # the flags change the report, so a dropped or mis-mapped flag shows
        assert via_main != self.run_main(small_cache, tmp_path / "defaults")

    @pytest.mark.parametrize("flag, value", [("--knn-k", "0"), ("--seed", "-1"),
                                             ("--svm-c", "nan"), ("--logreg-lambda", "inf")])
    def test_bad_value_exits_before_output(self, small_cache, tmp_path, capsys, flag, value):
        out = tmp_path / "o"
        code = main(["evaluate", "--cache", str(small_cache), "--out", str(out), flag, value])
        assert code == 2
        assert not out.exists()


class TestMainEntry:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_extract_then_evaluate(self, tmp_path, capsys):
        manifest = small_corpus(tmp_path)
        out = tmp_path / "run"
        assert main(["extract", "--manifest", str(manifest), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--cache", str(out / "features.csv"),
                     "--out", str(out), "--folds", "2", "--seed", "1"]) == 0
        text = capsys.readouterr().out
        assert "bagged_trees" in text
        assert text == (out / "summary.txt").read_text()

    def test_decompose_command(self, tmp_path):
        t = np.arange(2000) / RATE
        wav = tmp_path / "tone.wav"
        wav.write_bytes(encode_wav(0.5 * np.sin(2 * np.pi * 440 * t)
                                   + 0.2 * np.sin(2 * np.pi * 40 * t), RATE))
        out = tmp_path / "dump.csv"
        assert main(["decompose", "--wav", str(wav), "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "t,input,imf1,imf2,imf3,imf4,imf5,residual"

    def test_missing_manifest_exit_code(self, tmp_path, capsys):
        code = main(["extract", "--manifest", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)])
        assert code == 2

    def test_all_corrupt_exit_code(self, tmp_path, capsys):
        (tmp_path / "x.wav").write_bytes(b"junk")
        m = tmp_path / "m.csv"
        m.write_text("path,label\nx.wav,1\n")
        assert main(["extract", "--manifest", str(m), "--out", str(tmp_path / "o")]) == 3

    def test_evaluate_single_class_exit_code(self, tmp_path, capsys):
        manifest = small_corpus(tmp_path)
        # keep only the noise rows: one class
        lines = manifest.read_text().splitlines()
        kept = [lines[0]] + [ln for ln in lines[1:] if ln.endswith(",0")]
        manifest.write_text("\n".join(kept) + "\n")
        out = tmp_path / "o"
        assert main(["extract", "--manifest", str(manifest), "--out", str(out)]) == 0
        code = main(["evaluate", "--cache", str(out / "features.csv"),
                     "--out", str(out), "--folds", "2"])
        assert code == 4

    def test_decompose_max_imfs_validated(self, tmp_path, capsys):
        wav = tmp_path / "tone.wav"
        wav.write_bytes(encode_wav(np.sin(np.linspace(0, 20, 400)), RATE))
        out = tmp_path / "d.csv"
        assert main(["decompose", "--wav", str(wav), "--out", str(out),
                     "--max-imfs", "0"]) == 2
        assert not out.exists()

    def test_missing_cache_exit_code(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["evaluate", "--cache", str(tmp_path / "missing.csv"),
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "MissingFile" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "abc", ""])
    def test_malformed_cache_exit_code(self, small_cache, tmp_path, capsys, cell):
        lines = small_cache.read_text().splitlines()
        cells = lines[1].split(",")
        cells[1] = cell
        lines[1] = ",".join(cells)
        cache = tmp_path / "features.csv"
        cache.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main(["evaluate", "--cache", str(cache), "--out", str(out)]) == 4
        assert not out.exists()
        assert "CacheFormatError: line 2" in capsys.readouterr().err

    def test_zero_rate_wav_decompose_exit_code(self, tmp_path, capsys):
        wav = tmp_path / "zero_rate.wav"
        wav.write_bytes(encode_wav(np.sin(np.linspace(0, 20, 400)), 0))
        out = tmp_path / "d.csv"
        assert main(["decompose", "--wav", str(wav), "--out", str(out)]) == 3
        assert not out.exists()
        assert "MalformedWav: sample rate of 0 Hz" in capsys.readouterr().err

    def test_bad_missing_wav_decompose_exit_code(self, tmp_path, capsys):
        assert main(["decompose", "--wav", str(tmp_path / "no.wav"),
                     "--out", str(tmp_path / "d.csv")]) == 2

    def test_evaluate_failure_writes_nothing(self, small_cache, tmp_path, capsys):
        # two class-0 rows and --folds 2 leave one class-0 row per training
        # fold: knn fits, LDA's pooled covariance cannot
        lines = small_cache.read_text().splitlines()
        kept = [lines[0]] + [ln for ln in lines[1:] if ln.endswith(",0")][:2] + [
            ln for ln in lines[1:] if ln.endswith(",1")]
        cache = tmp_path / "features.csv"
        cache.write_text("\n".join(kept) + "\n")
        out = tmp_path / "o"
        assert main(["evaluate", "--cache", str(cache), "--out", str(out), "--folds", "2"]) == 4
        assert not out.exists()
        assert "SingleClassData" in capsys.readouterr().err

    def test_unwritable_dump_exit_code(self, tmp_path, capsys):
        wav = tmp_path / "tone.wav"
        wav.write_bytes(encode_wav(np.sin(np.linspace(0, 20, 400)), RATE))
        assert main(["decompose", "--wav", str(wav),
                     "--out", str(tmp_path / "nodir" / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError: ")
        assert "Traceback" not in err

    def test_out_naming_a_file_exit_code(self, small_cache, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        manifest = small_corpus(tmp_path, n_per_class=2)
        assert main(["extract", "--manifest", str(manifest), "--out", str(taken)]) == 2
        assert main(["evaluate", "--cache", str(small_cache), "--out", str(taken)]) == 2
        assert capsys.readouterr().err.count("error: FileExistsError: ") == 2
        assert taken.read_text() == ""

    def test_header_only_manifest_exit_code(self, tmp_path, capsys):
        m = tmp_path / "manifest.csv"
        m.write_text("path,label\n")
        out = tmp_path / "o"
        assert main(["extract", "--manifest", str(m), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ManifestFormatError: no data rows")
        assert not out.exists()

    def test_header_only_cache_exit_code(self, small_cache, tmp_path, capsys):
        cache = tmp_path / "features.csv"
        cache.write_text(small_cache.read_text().splitlines()[0] + "\n")
        with pytest.raises(CacheFormatError, match="no data rows"):
            read_feature_cache(cache)
        out = tmp_path / "o"
        assert main(["evaluate", "--cache", str(cache), "--out", str(out)]) == 4
        assert not out.exists()
        assert capsys.readouterr().err == "error: CacheFormatError: no data rows\n"
