"""The functions the traced run wraps, and the per-layer metrics made of them.

Each public function named in the per-layer table of the benchmark's
README is wrapped in every emdclf namespace that holds it. Counts come from
the arguments and return values seen at the wrapper.
"""

from __future__ import annotations

import os

import emdclf
from emdclf import classifiers, cli, emd, evaluation, features, signal

from spans import Tracer, call_counts, self_times

MODULES = (emdclf, signal, emd, features, classifiers, evaluation, cli)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _on_decode(counts, args, kwargs, result):
    counts["signal.decode_wav.bytes"] += len(_arg(args, kwargs, 0, "data"))


def _on_spline(counts, args, kwargs, result):
    counts["emd.spline_envelope.knots"] += len(_arg(args, kwargs, 0, "knot_idx"))
    counts["emd.spline_envelope.grid_points"] += _arg(args, kwargs, 2, "n")


def _on_sift(counts, args, kwargs, result):
    iters = result[1]
    counts["emd.sift.iters"] += iters
    counts["emd.sift.cap_hits"] += iters >= _arg(args, kwargs, 1, "max_iters",
                                                  emd.MAX_SIFT_ITERS)


def _on_decompose(counts, args, kwargs, dec):
    counts["emd.modes"] += len(dec.imfs)
    counts["emd.zero_mode_files"] += not dec.imfs


def _on_dump(counts, args, kwargs, result):
    target = _arg(args, kwargs, 0, "path_or_file")
    if isinstance(target, (str, os.PathLike)):
        counts["emd.write_decomposition_csv.bytes"] += os.path.getsize(target)


def tree_nodes(tree) -> int:
    """Node count of one fitted tree (nested dicts; leaves carry "label")."""
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        if "label" not in node:
            stack += (node["left"], node["right"])
    return count


def _on_fit(counts, args, kwargs, model):
    if model.algorithm == "bagged_trees":
        counts["classifiers.bagged_trees.nodes"] += sum(
            tree_nodes(t) for t in model.params["trees"])


def _fit_name(args, kwargs):
    return f"classifiers.fit.{_arg(args, kwargs, 0, 'config').algorithm}"


def _count(key):
    def on_return(counts, args, kwargs, result):
        counts[key] += 1
    return on_return


SPANNED = (
    (signal.decode_wav, "signal.decode_wav", _on_decode),
    (signal.z_normalize, "signal.z_normalize", None),
    (emd.find_local_extrema, "emd.find_local_extrema", None),
    (emd.spline_envelope, "emd.spline_envelope", _on_spline),
    (emd.count_zero_crossings, "emd.count_zero_crossings", None),
    (emd.is_imf, "emd.is_imf", None),
    (emd.sift, "emd.sift", _on_sift),
    (emd.decompose, "emd.decompose", _on_decompose),
    (emd.write_decomposition_csv, "emd.write_decomposition_csv", _on_dump),
    (features.extract_feature_vector, "features.extract_feature_vector", None),
    (features.write_feature_cache, "features.write_feature_cache", None),
    (features.read_feature_cache, "features.read_feature_cache", None),
    (classifiers.fit, _fit_name, _on_fit),
    (classifiers.predict, "classifiers.predict", None),
    (classifiers.score, "classifiers.score", None),
    (evaluation.cross_validate, "evaluation.cross_validate", None),
    (evaluation.roc, "evaluation.roc", None),
    (cli.run_extract, "cli.run_extract", None),
    (cli.run_evaluate, "cli.run_evaluate", None),
)
COUNTED = (
    (classifiers.logreg_objective, "classifiers.logreg.objective_evals"),
    (classifiers.svm_objective, "classifiers.svm_linear.epochs"),
)
SPAN_NAMES = ({name for _, name, _ in SPANNED if isinstance(name, str)}
              | {f"classifiers.fit.{a}" for a in classifiers.ALGORITHMS})
COUNTERS = {
    "signal.decode_wav.bytes", "emd.spline_envelope.knots",
    "emd.spline_envelope.grid_points", "emd.sift.iters", "emd.sift.cap_hits",
    "emd.modes", "emd.zero_mode_files", "emd.write_decomposition_csv.bytes",
    "classifiers.bagged_trees.nodes", "emd.checks", "emd.sift_accept_ratio",
} | {key for _, key in COUNTED}


def install(tracer: Tracer) -> None:
    """Wrap every function the per-layer metrics need."""
    for func, name, on_return in SPANNED:
        tracer.wrap(func, name, on_return)
    for func, key in COUNTED:
        tracer.wrap(func, None, _count(key), span=False)


def metrics(tracer: Tracer, names) -> dict:
    """Per-layer values for `names` from one traced pass.

    ``<span>.s`` is the span's summed self time, ``<span>.calls`` its call
    count; other names are counts taken at the wrappers or derived below.
    """
    spans = tracer.spans
    selfs, calls = self_times(spans), call_counts(spans)
    counts = dict(tracer.counts)
    # every mode test counts zero crossings once; other callers of
    # count_zero_crossings (the features layer) are not mode tests
    counts["emd.checks"] = sum(
        1 for name, _, _, parent in spans
        if name == "emd.count_zero_crossings" and parent is not None
        and spans[parent][0].startswith("emd."))
    counts["emd.sift_accept_ratio"] = (counts.get("emd.modes", 0) / calls["emd.sift"]
                                       if calls["emd.sift"] else 0.0)
    out = {}
    for name in names:
        base, _, kind = name.rpartition(".")
        if name in COUNTERS:
            out[name] = counts.get(name, 0)
        elif kind == "s" and base in SPAN_NAMES:
            out[name] = selfs.get(base, 0.0)
        elif kind == "calls" and base in SPAN_NAMES:
            out[name] = calls[base]
        else:
            raise KeyError(f"no per-layer metric {name!r}")
    return out
