"""Acoustic signal classification via envelope-mean mode decomposition.

Pipeline: WAV decode -> z-score normalization -> 5-layer mode decomposition
-> 45 per-mode features -> five classical classifiers -> cross-validated
metrics and ROC curves. Usable as a library (this package) or through the
`emdclf` command line front-end; the demos/ directory walks through each
capability.
"""

from .classifiers import (ALGORITHMS, TrainConfig, TrainedModel, fit,
                          model_from_json, model_to_json, predict, score)
from .emd import (ExtremaSet, ImfCheck, ImfDecomposition, count_zero_crossings,
                  decompose, find_local_extrema, is_imf, sift, spline_envelope,
                  write_decomposition_csv)
from .evaluation import (ConfusionMatrix, CrossValidationResult, MetricsReport,
                         RocCurve, confusion, cross_validate, metrics, roc,
                         stratified_kfold)
from .features import (FEATURE_NAMES, FeatureVector, LabeledDataset,
                       extract_feature_vector, hjorth, read_feature_cache,
                       shannon_entropy, write_feature_cache,
                       zero_crossing_rate)
from .signal import Signal, decode_wav, encode_wav, z_normalize

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "ConfusionMatrix", "CrossValidationResult", "ExtremaSet",
    "FEATURE_NAMES", "FeatureVector", "ImfCheck", "ImfDecomposition",
    "LabeledDataset", "MetricsReport", "RocCurve", "Signal", "TrainConfig",
    "TrainedModel", "confusion", "count_zero_crossings", "cross_validate",
    "decode_wav", "decompose", "encode_wav", "extract_feature_vector",
    "find_local_extrema", "fit", "hjorth", "is_imf", "metrics",
    "model_from_json", "model_to_json", "predict", "read_feature_cache", "roc",
    "score", "shannon_entropy", "sift", "spline_envelope", "stratified_kfold",
    "write_decomposition_csv", "write_feature_cache", "z_normalize",
    "zero_crossing_rate",
]
