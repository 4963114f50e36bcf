"""WAV decoding and z-score preprocessing.

The decoder is deliberately small: RIFF/WAVE containers holding 16-bit PCM or
32-bit IEEE float frames, mono or stereo, tagged plainly or as
WAVE_FORMAT_EXTENSIBLE. Stereo is collapsed to mono by per-frame averaging.
Everything downstream works on :class:`Signal`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateSignal, EmptyAudio, MalformedWav, UnsupportedEncoding,
                     check_int)

_FORMAT_PCM = 1
_FORMAT_IEEE_FLOAT = 3
_FORMAT_EXTENSIBLE = 0xFFFE
# The KSDATAFORMAT SubFormat GUID after its leading 16-bit format code.
_KSDATAFORMAT_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled mono waveform with its sample rate."""

    samples: np.ndarray
    sample_rate_hz: int
    source_id: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("a signal needs at least 2 samples")
        if not self.sample_rate_hz > 0:  # NaN fails
            raise ValueError("sample rate must be positive")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


def _parse_chunks(data: bytes):
    # Walk the top-level RIFF chunk list; chunks are word-aligned.
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise MalformedWav(f"truncated {cid!r} chunk")
        yield cid, body
        pos += 8 + size + (size & 1)


def _extensible_format(fmt: bytes, bits: int) -> int:
    # After the 16 plain bytes: cbSize, valid bits, channel mask, SubFormat GUID.
    # The GUID's format code is checked with the plain codes by the caller.
    if len(fmt) >= 40:
        valid_bits, _, code = struct.unpack_from("<HIH", fmt, 18)
        if fmt[26:40] == _KSDATAFORMAT_TAIL and valid_bits == bits:
            return code
    raise UnsupportedEncoding("extensible format without a full-width KSDATAFORMAT GUID")


def decode_wav(data: bytes, source_id: str = "") -> Signal:
    """Decode a WAV blob into a mono Signal.

    16-bit PCM samples are scaled by 1/32768 into [-1, 1); float32 samples are
    taken as-is. Stereo frames are averaged. A WAVE_FORMAT_EXTENSIBLE fmt
    chunk is read when it holds the full 40 bytes, its SubFormat GUID is
    KSDATAFORMAT PCM or IEEE float, and its valid bits equal the container
    bits. Raises MalformedWav, UnsupportedEncoding or EmptyAudio.
    """
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedWav("not a RIFF/WAVE container")

    fmt = None
    raw = None
    for cid, body in _parse_chunks(data):
        if cid == b"fmt " and fmt is None:
            if len(body) < 16:
                raise MalformedWav("fmt chunk shorter than 16 bytes")
            fmt = body
        elif cid == b"data" and raw is None:
            raw = body
    if fmt is None or raw is None:
        raise MalformedWav("missing fmt or data chunk")

    audio_format, n_channels, sample_rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if audio_format == _FORMAT_EXTENSIBLE:
        audio_format = _extensible_format(fmt, bits)
    if audio_format not in (_FORMAT_PCM, _FORMAT_IEEE_FLOAT):
        raise UnsupportedEncoding(f"compression code {audio_format}")
    if n_channels not in (1, 2):
        raise UnsupportedEncoding(f"{n_channels} channels")
    if audio_format == _FORMAT_PCM and bits != 16:
        raise UnsupportedEncoding(f"{bits}-bit PCM")
    if audio_format == _FORMAT_IEEE_FLOAT and bits != 32:
        raise UnsupportedEncoding(f"{bits}-bit float")
    if sample_rate == 0:
        raise MalformedWav("sample rate of 0 Hz")

    frame_size = n_channels * bits // 8
    if len(raw) % frame_size != 0:
        raise MalformedWav("data chunk is not a whole number of frames")
    n_frames = len(raw) // frame_size
    if n_frames < 2:
        raise EmptyAudio(f"{n_frames} frames")

    dtype = "<i2" if audio_format == _FORMAT_PCM else "<f4"
    frames = np.frombuffer(raw, dtype=dtype).reshape(n_frames, n_channels)
    samples = frames.astype(np.float64).mean(axis=1)
    if audio_format == _FORMAT_PCM:
        samples = samples / 32768.0
    if not np.all(np.isfinite(samples)):
        raise MalformedWav("non-finite sample values")
    return Signal(samples, int(sample_rate), source_id)


def encode_wav(samples, sample_rate_hz: int, fmt: str = "pcm16") -> bytes:
    """Encode samples into WAV bytes (inverse of decode_wav for clean inputs).

    `samples` is (n,) mono or (n, 2) stereo; fmt is "pcm16" or "float32".
    `sample_rate_hz` is an integer from 1 up to the rate whose byte rate
    (rate times bytes per frame) still fits the header's 32 bits; anything
    else raises ValueError.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[1] not in (1, 2):
        raise ValueError("samples must be (n,) or (n, 2)")
    if fmt == "pcm16":
        payload = np.clip(np.rint(x * 32768.0), -32768, 32767).astype("<i2").tobytes()
        audio_format, bits = _FORMAT_PCM, 16
    elif fmt == "float32":
        payload = x.astype("<f4").tobytes()
        audio_format, bits = _FORMAT_IEEE_FLOAT, 32
    else:
        raise ValueError(f"unknown format {fmt!r}")

    n_channels = x.shape[1]
    block_align = n_channels * bits // 8
    check_int("sample rate", sample_rate_hz, 1, (2**32 - 1) // block_align)
    byte_rate = sample_rate_hz * block_align
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, audio_format, n_channels,
                                    sample_rate_hz, byte_rate, block_align, bits)
    header += b"data" + struct.pack("<I", len(payload))
    return header + payload


def z_normalize(signal: Signal) -> Signal:
    """Rescale to mean 0 and unit sample (n-1 divisor) standard deviation."""
    x = signal.samples
    sd = x.std(ddof=1)
    if sd <= 1e-12:
        raise DegenerateSignal(f"constant signal {signal.source_id!r}")
    z = (x - x.mean()) / sd
    return Signal(z, signal.sample_rate_hz, signal.source_id)
