"""Benchmark of the emdclf pipeline, one workload per invocation.

    python3 bench/run.py --workload corpus_pipeline --seed 7 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
The workload's inputs are built from ``--seed`` (set-up, repeated and timed),
then passes of the workload run one after another, one caller and no
worker pool, until ``--seconds`` have gone by. With ``--trace 1`` one more
pass runs with every layer wrapped, and the per-layer metrics replace the
end-to-end ones. Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Exits 1 without a result when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
# One BLAS thread: the workloads have one caller, and a fixed setting keeps
# runs comparable.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _import_program():
    sys.path.insert(0, str(SRC))
    try:
        import emdclf
    except ImportError as exc:
        raise SystemExit(f"error: cannot import emdclf from {SRC}: {exc}")
    if not Path(emdclf.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: emdclf was imported from {emdclf.__file__}, not {SRC}")


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(args, workload) -> dict:
    """What produced the numbers: machine, versions, code and inputs."""
    import numpy
    import scipy
    source = hashlib.sha256()
    for path in sorted((SRC / "emdclf").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "files": workload.files,
        "samples_per_pass": workload.samples,
    }


def _ratio(num, den):
    return num / den if den else None


def measure(args, spec, work: Path):
    import layers
    import workloads
    from spans import Tracer

    # Set up at least SETUP_REPEATS times and for SETUP_MIN_S, so that a
    # set-up of a few hundredths of a second still gives a steady median.
    make = workloads.WORKLOADS[args.workload]
    repeats, min_s = (1, 0.0) if args.trace else (SETUP_REPEATS, SETUP_MIN_S)
    setup_s = []
    while len(setup_s) < repeats or sum(setup_s) < min_s:
        start = time.perf_counter()
        workload = make(work / f"inputs{len(setup_s)}", args.seed)
        setup_s.append(time.perf_counter() - start)

    # The first pass is checked and not timed: it also lets the allocator
    # settle (a first pass over long signals runs about a tenth slower).
    out = work / "out"
    checks = workloads.Checks()
    workload.run(out, checks=checks)
    digests = [workloads.digest(out)]
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(workload.run(out))
        digests.append(workloads.digest(out))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.verify(out, checks)
    if len(set(digests)) != 1:
        checks.fail(f"{len(set(digests))} different outputs over {len(digests)} passes")

    wall_s = statistics.median(p.wall_s for p in passes)
    if args.trace:
        tracer = Tracer(layers.MODULES)
        layers.install(tracer)
        with tracer:
            t0 = time.perf_counter()
            traced = workload.run(out, tracer=tracer)
            traced_wall_s = time.perf_counter() - t0
        passes.append(traced)
        if workloads.digest(out) != digests[0]:
            checks.fail("the traced pass wrote other output bytes")
        names = [m["name"] for m in spec["per_layer"]]
        metrics = layers.metrics(tracer, [n for n in names if n != "trace_overhead_s"])
        metrics["trace_overhead_s"] = traced_wall_s - wall_s
    else:
        items = sorted(x for p in passes for x in p.item_s)
        p90 = (statistics.quantiles(items, n=10, method="inclusive")[8]
               if len(items) > 1 else items[0])
        metrics = {
            "wall_s": wall_s,
            "samples_per_s": workload.samples / wall_s,
            "item_ms.p50": 1000 * statistics.median(items),
            "item_ms.p90": 1000 * p90,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
        }

    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(listed):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {listed}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {args.workload}  seed {args.seed}  items "
          f"{sum(len(p.item_s) for p in passes)}  pass_s {[round(p.wall_s, 3) for p in passes]}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    info = {
        "failed_ratio": _ratio(failed, attempted),
        "zero_mode_ratio": _ratio(checks.zero_mode, checks.decoded),
        "auc_mean": statistics.fmean(checks.aucs) if checks.aucs else None,
        "output_sha256": digests[0],
        "problems": checks.problems,
        "record": run_record(args, workload),
    }
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": not checks.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(dict.fromkeys(BLAS_VARS, BLAS_THREADS))  # before numpy loads
    _import_program()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
