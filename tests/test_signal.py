import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from emdclf.errors import DegenerateSignal, EmptyAudio, MalformedWav, UnsupportedEncoding
from emdclf.signal import Signal, decode_wav, encode_wav, z_normalize


def make_wav(payload, audio_format=1, n_channels=1, rate=8000, bits=16):
    """Hand-rolled header so decode tests do not depend on encode_wav."""
    block = n_channels * bits // 8
    head = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    head += b"fmt " + struct.pack("<IHHIIHH", 16, audio_format, n_channels,
                                  rate, rate * block, block, bits)
    head += b"data" + struct.pack("<I", len(payload))
    return head + payload


KSDATAFORMAT_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def make_extensible_wav(payload, code=1, n_channels=1, rate=8000, bits=16,
                        valid_bits=None, tail=KSDATAFORMAT_TAIL, fmt_size=40):
    """WAVE_FORMAT_EXTENSIBLE header, built field by field: the 16 plain
    bytes tagged 0xFFFE, then cbSize 22, valid bits, channel mask and the
    SubFormat GUID (format code + KSDATAFORMAT tail). `fmt_size` < 40 cuts
    the chunk short."""
    block = n_channels * bits // 8
    fmt = struct.pack("<HHIIHH", 0xFFFE, n_channels, rate, rate * block, block, bits)
    fmt += struct.pack("<HHIH", 22, bits if valid_bits is None else valid_bits,
                       (1 << n_channels) - 1, code) + tail
    fmt = fmt[:fmt_size]
    chunk = b"fmt " + struct.pack("<I", len(fmt)) + fmt + bytes(len(fmt) & 1)
    head = b"RIFF" + struct.pack("<I", 4 + len(chunk) + 8 + len(payload)) + b"WAVE" + chunk
    head += b"data" + struct.pack("<I", len(payload))
    return head + payload


class TestDecodeWav:
    def test_pcm16_values(self):
        payload = struct.pack("<4h", 0, 16384, -16384, 0)
        sig = decode_wav(make_wav(payload, rate=8000))
        assert sig.sample_rate_hz == 8000
        assert np.array_equal(sig.samples, [0.0, 0.5, -0.5, 0.0])

    def test_stereo_averaged(self):
        payload = struct.pack("<4f", 1.0, 0.0, 0.25, 0.75)
        sig = decode_wav(make_wav(payload, audio_format=3, n_channels=2, bits=32))
        assert sig.samples == pytest.approx([0.5, 0.5])

    def test_truncated_input(self):
        with pytest.raises(MalformedWav):
            decode_wav(b"\x00" * 10)

    def test_bad_magic(self):
        with pytest.raises(MalformedWav):
            decode_wav(b"RIFX" + b"\x00" * 64)

    def test_truncated_data_chunk(self):
        blob = make_wav(struct.pack("<4h", 1, 2, 3, 4))
        with pytest.raises(MalformedWav):
            decode_wav(blob[:-3])

    def test_compressed_rejected(self):
        payload = struct.pack("<4h", 0, 1, 2, 3)
        with pytest.raises(UnsupportedEncoding):
            decode_wav(make_wav(payload, audio_format=85))  # mp3 code

    def test_wrong_bit_depth_rejected(self):
        with pytest.raises(UnsupportedEncoding):
            decode_wav(make_wav(b"\x00" * 8, bits=8))

    def test_three_channels_rejected(self):
        with pytest.raises(UnsupportedEncoding):
            decode_wav(make_wav(b"\x00" * 12, n_channels=3))

    def test_single_frame_is_empty(self):
        with pytest.raises(EmptyAudio):
            decode_wav(make_wav(struct.pack("<h", 5)))

    def test_float_nan_rejected(self):
        payload = struct.pack("<2f", float("nan"), 0.0)
        with pytest.raises(MalformedWav):
            decode_wav(make_wav(payload, audio_format=3, bits=32))

    @pytest.mark.parametrize("blob", [make_wav(struct.pack("<4h", 0, 1, 2, 3), rate=0),
                                      make_extensible_wav(struct.pack("<4h", 0, 1, 2, 3), rate=0)],
                             ids=["plain", "extensible"])
    def test_zero_sample_rate_is_malformed(self, blob):
        with pytest.raises(MalformedWav, match="0 Hz"):
            decode_wav(blob)

    def test_sample_order_preserved(self):
        values = list(range(-50, 50))
        payload = struct.pack(f"<{len(values)}h", *values)
        sig = decode_wav(make_wav(payload))
        assert np.array_equal(sig.samples * 32768.0, values)

    @pytest.mark.parametrize("code, bits, pack", [(1, 16, "h"), (3, 32, "f")])
    @pytest.mark.parametrize("n_channels", [1, 2])
    def test_extensible_equals_plain(self, code, bits, pack, n_channels):
        rng = np.random.default_rng(code + n_channels)
        values = rng.integers(-32768, 32768, 40) if pack == "h" else rng.standard_normal(40)
        payload = struct.pack(f"<40{pack}", *values)
        plain = decode_wav(make_wav(payload, audio_format=code, n_channels=n_channels,
                                    bits=bits))
        ext = decode_wav(make_extensible_wav(payload, code=code, n_channels=n_channels,
                                             bits=bits))
        assert ext.sample_rate_hz == plain.sample_rate_hz
        assert np.array_equal(ext.samples, plain.samples)

    @pytest.mark.parametrize("kwargs", [
        dict(code=2),  # ADPCM
        dict(code=3),  # float code in a 16-bit container
        dict(valid_bits=12),  # 12 valid bits in 16
        dict(tail=bytes(14)),  # not a KSDATAFORMAT GUID
        dict(fmt_size=18),  # cbSize 0: no extension
        dict(fmt_size=39),  # GUID cut short
        dict(bits=24),  # 24-bit PCM
    ])
    def test_extensible_other_formats_rejected(self, kwargs):
        with pytest.raises(UnsupportedEncoding):
            decode_wav(make_extensible_wav(bytes(12), **kwargs))

    @pytest.mark.parametrize("blob, match", [
        (b"RIFF" + struct.pack("<I", 20) + b"WAVE" + b"fmt " + struct.pack("<I", 8) + bytes(8),
         "shorter than 16 bytes"),
        (make_wav(b"")[:36], "missing fmt or data chunk"),  # the RIFF header and fmt chunk only
        (make_wav(bytes(6), n_channels=2), "whole number of frames"),  # 1.5 stereo frames
    ], ids=["short_fmt", "no_data", "partial_frame"])
    def test_malformed_chunks_rejected(self, blob, match):
        with pytest.raises(MalformedWav, match=match):
            decode_wav(blob)

    def test_pcm16_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ints = rng.integers(-32768, 32768, size=rng.integers(2, 400))
            sig = decode_wav(make_wav(struct.pack(f"<{ints.size}h", *ints)))
            again = decode_wav(encode_wav(sig.samples, sig.sample_rate_hz, fmt="pcm16"))
            assert np.array_equal(sig.samples, again.samples)


class TestEncodeWav:
    @pytest.mark.parametrize("samples, fmt, match", [
        (np.zeros((4, 3)), "pcm16", r"\(n,\) or \(n, 2\)"),
        (np.zeros(4), "pcm24", "unknown format 'pcm24'"),
    ], ids=["three_channels", "unknown_format"])
    def test_bad_arguments_rejected(self, samples, fmt, match):
        with pytest.raises(ValueError, match=match):
            encode_wav(samples, 8000, fmt=fmt)

    # the byte rate field is 32 bits: rate * 2 for mono pcm16, rate * 8 for stereo float32
    @pytest.mark.parametrize("rate, channels, fmt", [
        (2.5, 1, "pcm16"), (float("nan"), 1, "pcm16"), (-1, 1, "pcm16"), (0, 1, "pcm16"),
        (2**31, 1, "pcm16"), (2**29, 2, "float32"), ("8000", 1, "pcm16"),
    ])
    def test_bad_sample_rate_rejected(self, rate, channels, fmt):
        with pytest.raises(ValueError, match="sample rate must be an integer in"):
            encode_wav(np.zeros((4, channels)), rate, fmt=fmt)

    @pytest.mark.parametrize("channels, fmt", [(1, "pcm16"), (2, "pcm16"), (1, "float32"),
                                               (2, "float32")])
    def test_largest_sample_rate_round_trips(self, channels, fmt):
        rate = (2**32 - 1) // (channels * (2 if fmt == "pcm16" else 4))
        samples = (np.arange(-4, 4) / 8).repeat(channels).reshape(8, channels)  # exact in both formats
        sig = decode_wav(encode_wav(samples, np.int64(rate), fmt=fmt))
        assert sig.sample_rate_hz == rate
        assert np.array_equal(sig.samples, samples[:, 0])


class TestSignal:
    def test_too_short(self):
        with pytest.raises(ValueError):
            Signal(np.array([1.0]), 8000)

    def test_bad_rate(self):
        for rate in (0, float("nan")):
            with pytest.raises(ValueError, match="sample rate must be positive"):
                Signal(np.array([1.0, 2.0]), rate)

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            Signal(np.array([1.0, np.inf]), 8000)


class TestZNormalize:
    def test_three_point_example(self):
        out = z_normalize(Signal(np.array([1.0, 2.0, 3.0]), 10, "x"))
        assert out.samples == pytest.approx([-1.0, 0.0, 1.0])
        assert out.sample_rate_hz == 10
        assert out.source_id == "x"

    def test_two_point_example(self):
        out = z_normalize(Signal(np.array([0.0, 2.0]), 10))
        assert out.samples == pytest.approx([-0.70710678, 0.70710678])

    def test_constant_rejected(self):
        with pytest.raises(DegenerateSignal):
            z_normalize(Signal(np.array([5.0, 5.0, 5.0]), 10))

    def test_moments_over_random_signals(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 2000))
            x = rng.standard_normal(n) * rng.uniform(1e-3, 1e3) + rng.uniform(-100, 100)
            out = z_normalize(Signal(x, 44100))
            assert abs(out.samples.mean()) < 1e-12
            assert abs(out.samples.std(ddof=1) - 1.0) < 1e-9
            assert len(out) == n

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.standard_normal(int(rng.integers(2, 500))) * 3.0 + 1.0
            once = z_normalize(Signal(x, 8000))
            twice = z_normalize(once)
            assert np.abs(twice.samples - once.samples).max() <= 1e-9

    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(2, 20000))
    @example(129441.63, 16000)  # its float mean is off by a few ulps, so sd > 1e-12
    @example(5e-324, 2)
    def test_any_finite_constant_rejected(self, value, n):
        with pytest.raises(DegenerateSignal):
            z_normalize(Signal(np.full(n, value), 8000))

    def test_power_of_two_scale_leaves_bytes(self):
        x = np.random.default_rng(3).standard_normal(1000)
        expected = z_normalize(Signal(x, 8000)).samples.tobytes()
        for k in range(-900, 901):
            assert z_normalize(Signal(np.ldexp(x, k), 8000)).samples.tobytes() == expected, k

    @pytest.mark.parametrize("scale", [1e-13, 1e200])  # a float32 WAV can hold the first
    def test_extreme_scale_normalized_without_warning(self, scale):
        x = np.random.default_rng(4).standard_normal(1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = z_normalize(Signal(scale * x, 8000))
        assert out.samples == pytest.approx(z_normalize(Signal(x, 8000)).samples)
