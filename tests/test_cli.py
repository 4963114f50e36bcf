import numpy as np
import pytest

from emdclf import ALGORITHMS, __version__
from emdclf.cli import (ManifestEntry, RunConfig, load_manifest, main,
                        run_evaluate, run_extract)
from emdclf.errors import (BadHeader, BadLabel, EmptyManifest, MissingFile,
                           NoUsableAudio)
from emdclf.signal import encode_wav
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
        with pytest.raises(BadHeader):
            load_manifest(m)

    def test_bad_label(self, tmp_path):
        m = tmp_path / "manifest.csv"
        m.write_text("path,label\na.wav,positive\n")
        with pytest.raises(BadLabel):
            load_manifest(m)

    def test_empty_manifest(self, tmp_path):
        m = tmp_path / "manifest.csv"
        m.write_text("path,label\n")
        with pytest.raises(EmptyManifest):
            load_manifest(m)


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
        assert len((out / "features.csv").read_text().splitlines()) - 1 == 2
        sidecar_rows = (out / "errors.csv").read_text().splitlines()
        assert sidecar_rows[1:] == ["zero_rate.wav,ValueError: sample rate must be positive"]

    def test_all_failures_fatal(self, tmp_path):
        bad = tmp_path / "x.wav"
        bad.write_bytes(b"garbage")
        m = tmp_path / "manifest.csv"
        m.write_text("path,label\nx.wav,0\n")
        with pytest.raises(NoUsableAudio):
            run_extract(RunConfig(manifest=m, out_dir=tmp_path / "out"))

    def test_rerun_byte_identical(self, tmp_path):
        manifest = small_corpus(tmp_path)
        c1 = run_extract(RunConfig(manifest=manifest, out_dir=tmp_path / "out1"))
        c2 = run_extract(RunConfig(manifest=manifest, out_dir=tmp_path / "out2"))
        assert c1.read_bytes() == c2.read_bytes()


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

    @pytest.mark.parametrize("flag, value", [("--knn-k", "0"), ("--seed", "-1")])
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
        assert main(["evaluate", "--cache", str(out / "features.csv"),
                     "--out", str(out), "--folds", "2", "--seed", "1"]) == 0
        text = capsys.readouterr().out
        assert "bagged_trees" in text

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

    def test_bad_missing_wav_decompose_exit_code(self, tmp_path, capsys):
        assert main(["decompose", "--wav", str(tmp_path / "no.wav"),
                     "--out", str(tmp_path / "d.csv")]) == 2
