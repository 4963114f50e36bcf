"""End to end: generate a labeled WAV corpus, extract features, compare models.

Equivalent to running the CLI:
    emdclf extract  --manifest corpus/manifest.csv --out out
    emdclf evaluate --cache out/features.csv --out out --seed 42
but driven through the library so the intermediate objects are visible.
The whole run is deterministic; re-running writes byte-identical reports.
"""

import tempfile
from pathlib import Path

from emdclf.cli import RunConfig, run_evaluate, run_extract
from emdclf.synthetic import generate_corpus

with tempfile.TemporaryDirectory(prefix="emdclf_demo_") as tmp:
    workdir = Path(tmp)
    print(f"working in {workdir}")

    manifest = generate_corpus(workdir / "corpus", n_per_class=20, seed=7)
    print(f"generated 40 WAVs + {manifest.name}")

    config = RunConfig(manifest=manifest, out_dir=workdir / "out", folds=5, seed=42)
    cache = run_extract(config)
    n_rows = len(cache.read_text().splitlines()) - 1
    n_errors = len((config.out_dir / "errors.csv").read_text().splitlines()) - 1
    print(f"extracted {n_rows} feature rows ({n_errors} failures logged)")

    ranked = run_evaluate(config, cache)
    print("\n" + (config.out_dir / "summary.txt").read_text())
    best = ranked[0]
    print(f"best algorithm: {best[0]} at {best[1].acc:.2f}% accuracy")
    print(f"reports: {sorted(p.name for p in config.out_dir.iterdir())}")
