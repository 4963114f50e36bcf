"""Seeded synthetic WAV corpus: tonal bursts (label 1) vs noise bursts (label 0).

Used by the test suite and the demo scripts so nothing external is required
to exercise the full pipeline. Every file is derived from (seed, label,
index), so regenerating a corpus is byte-identical.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .features import write_csv
from .signal import encode_wav

DEFAULT_RATE = 8000
DEFAULT_SAMPLES = 4000


def tone_burst(rng: np.random.Generator, n: int = DEFAULT_SAMPLES,
               rate: int = DEFAULT_RATE) -> np.ndarray:
    """Enveloped harmonic tone with a small noise floor."""
    t = np.arange(n) / rate
    f0 = rng.uniform(150.0, 450.0)
    x = np.zeros(n)
    for h in range(1, 4):
        amp = rng.uniform(0.3, 1.0) / h
        phase = rng.uniform(0.0, 2.0 * np.pi)
        x += amp * np.sin(2.0 * np.pi * f0 * h * t + phase)
    x += 0.02 * rng.standard_normal(n)
    envelope = np.sin(np.pi * np.arange(n) / n) ** 2
    x *= envelope
    return 0.7 * x / np.abs(x).max()


def noise_burst(rng: np.random.Generator, n: int = DEFAULT_SAMPLES,
                rate: int = DEFAULT_RATE) -> np.ndarray:
    """Enveloped white noise."""
    x = rng.standard_normal(n)
    envelope = np.sin(np.pi * np.arange(n) / n) ** 2
    x *= envelope
    return 0.7 * x / np.abs(x).max()


def generate_corpus(out_dir, n_per_class: int = 60, seed: int = 7,
                    n_samples: int = DEFAULT_SAMPLES, rate: int = DEFAULT_RATE) -> Path:
    """Write the WAVs plus a manifest.csv; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for label, maker, stem in ((0, noise_burst, "noise"), (1, tone_burst, "tone")):
        for i in range(n_per_class):
            rng = np.random.default_rng([seed, label, i])
            wav = encode_wav(maker(rng, n_samples, rate), rate, fmt="pcm16")
            name = f"{stem}_{i:03d}.wav"
            (out / name).write_bytes(wav)
            entries.append((name, label))
    manifest = out / "manifest.csv"
    write_csv(manifest, ["path", "label"], entries)
    return manifest
