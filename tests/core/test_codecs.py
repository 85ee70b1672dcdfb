"""The codec registry: round-trip properties, lookup, composition."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import decode as wire_decode
from repro.core.codec import encode as wire_encode
from repro.core.codecs import (
    Codec,
    CodecError,
    ComposedCodec,
    CompressedBlob,
    LineFitCodec,
    codec_names,
    get_codec,
    register_codec,
)
from repro.core.compression import StorageFormat
from repro.core.quantization import quantize_tensor
from tests.conftest import compress_pct

LOSSLESS = ["rle", "huffman", "lz"]
ALL_CODECS = LOSSLESS + ["linefit", "quantize-int8"]


def _streams(rng):
    """The stress cases every codec must survive."""
    return {
        "random": rng.standard_normal(4096).astype(np.float32),
        "constant": np.full(512, 0.375, dtype=np.float32),
        "empty": np.zeros(0, dtype=np.float32),
        "single": np.asarray([-2.5], dtype=np.float32),
    }


class TestRegistry:
    def test_all_expected_names_registered(self):
        assert set(ALL_CODECS) <= set(codec_names())

    def test_unknown_name_lists_known_codecs(self):
        with pytest.raises(CodecError, match="unknown codec") as exc:
            get_codec("zstd")
        for name in codec_names():
            assert name in str(exc.value)

    def test_unknown_name_is_a_value_error(self):
        with pytest.raises(ValueError):
            get_codec("zstd")

    def test_instance_passthrough(self):
        codec = LineFitCodec(delta_pct=5.0)
        assert get_codec(codec) is codec

    def test_instance_passthrough_rejects_params(self):
        with pytest.raises(CodecError, match="re-parameterize"):
            get_codec(LineFitCodec(), delta_pct=5.0)

    def test_bad_constructor_params_wrapped(self):
        with pytest.raises(CodecError, match="rle"):
            get_codec("rle", bogus_knob=3)

    def test_every_codec_accepts_delta_pct(self):
        for name in ALL_CODECS:
            codec = get_codec(name, delta_pct=10.0)
            assert isinstance(codec, Codec)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_codec("linefit")
            class Clash(Codec):  # pragma: no cover - never instantiated
                pass

    def test_pipe_in_name_rejected(self):
        with pytest.raises(ValueError, match="must not contain"):

            @register_codec("a|b")
            class Piped(Codec):  # pragma: no cover - never instantiated
                pass


class TestLosslessRoundTrip:
    @pytest.mark.parametrize("name", LOSSLESS)
    @pytest.mark.parametrize("case", ["random", "constant", "empty", "single"])
    def test_exact_roundtrip(self, name, case):
        rng = np.random.default_rng(11)
        w = _streams(rng)[case]
        codec = get_codec(name, delta_pct=15.0)  # delta must be ignored
        assert codec.lossless
        blob = codec.encode(w)
        out = codec.decode(blob)
        assert out.dtype == w.dtype
        np.testing.assert_array_equal(out, w)
        assert blob.num_weights == w.size
        assert blob.original_bytes == w.nbytes
        assert codec.reconstruction_mse(blob, w) == 0.0

    @pytest.mark.parametrize("name", LOSSLESS)
    def test_integer_stream_roundtrip(self, name):
        rng = np.random.default_rng(5)
        w = rng.integers(-128, 128, 2048).astype(np.int8)
        codec = get_codec(name)
        np.testing.assert_array_equal(codec.decode(codec.encode(w)), w)

    @pytest.mark.parametrize("name", LOSSLESS)
    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(
            st.floats(width=32, allow_nan=False), min_size=0, max_size=300
        ),
        seed=st.integers(0, 2**16),
    )
    def test_property_exact_roundtrip(self, name, values, seed):
        # arbitrary float32 payloads, plus a low-entropy repetition of
        # them (the case RLE/LZ were built for) — both must be exact
        w = np.asarray(values, dtype=np.float32)
        rep = np.repeat(w, 1 + seed % 4)
        codec = get_codec(name)
        for stream in (w, rep):
            np.testing.assert_array_equal(
                codec.decode(codec.encode(stream)), stream
            )


class TestLineFitRoundTrip:
    @pytest.mark.parametrize("case", ["random", "constant", "empty", "single"])
    def test_stress_cases_roundtrip_shape(self, case):
        rng = np.random.default_rng(3)
        w = _streams(rng)[case]
        codec = get_codec("linefit", delta_pct=10.0)
        assert not codec.lossless
        out = codec.decode(codec.encode(w))
        assert out.shape == w.shape

    @pytest.mark.parametrize("delta", [0.05, 0.2, 1.0])
    def test_noisy_linear_within_delta(self, delta):
        # on segments that genuinely fit a line to within delta/4, the
        # reconstruction stays within delta (coefficient truncation adds
        # a small quantization term, hence the 2x headroom)
        rng = np.random.default_rng(7)
        base = np.linspace(-1.0, 1.0, 2000, dtype=np.float32)
        w = (base + rng.uniform(-delta / 4, delta / 4, base.size)).astype(np.float32)
        codec = LineFitCodec(delta=float(delta))
        out = codec.decode(codec.encode(w))
        assert np.max(np.abs(out - w)) <= 2 * delta

    def test_constant_stream_reconstructs_exactly_one_segment(self):
        w = np.full(1000, 2.25, dtype=np.float32)
        blob = LineFitCodec(delta_pct=0.0).encode(w)
        assert blob.num_segments == 1
        np.testing.assert_allclose(
            LineFitCodec().decode(blob), w, atol=1e-2
        )

    def test_payload_byte_identical_to_reference_impl(self):
        rng = np.random.default_rng(19)
        w = rng.standard_normal(3000).astype(np.float32)
        for pct in (0.0, 5.0, 15.0):
            blob = get_codec("linefit", delta_pct=pct).encode(w)
            ref = compress_pct(w, pct)
            assert blob.payload == wire_encode(ref)
            assert blob.compression_ratio == pytest.approx(ref.original_bytes / ref.compressed_bytes)
            assert blob.num_segments == ref.num_segments

    def test_int8_format_matches_reference_accounting(self):
        rng = np.random.default_rng(23)
        w = quantize_tensor(rng.standard_normal(2000)).values.astype(np.float32)
        blob = get_codec("linefit", delta_pct=5.0, fmt="int8").encode(w)
        ref = compress_pct(w, 5.0, fmt=StorageFormat.int8())
        assert blob.compression_ratio == pytest.approx(ref.original_bytes / ref.compressed_bytes)

    def test_wire_payload_decodable_by_core_codec(self):
        w = np.linspace(0, 1, 500, dtype=np.float32)
        blob = LineFitCodec(delta_pct=5.0).encode(w)
        stream = wire_decode(blob.payload)
        assert stream.num_weights == w.size


class TestQuantizeCodec:
    def test_standalone_roundtrip_within_scale(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal(1024).astype(np.float32)
        codec = get_codec("quantize-int8")
        blob = codec.encode(w)
        qt = quantize_tensor(w)
        assert np.max(np.abs(codec.decode(blob) - w)) <= qt.scale
        assert blob.compression_ratio == pytest.approx(
            w.nbytes / qt.footprint_bytes
        )

    def test_empty_stream(self):
        codec = get_codec("quantize-int8")
        out = codec.decode(codec.encode(np.zeros(0, dtype=np.float32)))
        assert out.size == 0


class TestComposition:
    def test_chain_matches_manual_staging(self):
        rng = np.random.default_rng(13)
        w = rng.standard_normal(2048).astype(np.float32)
        chain = get_codec("quantize-int8|linefit", delta_pct=5.0, fmt="int8")
        assert isinstance(chain, ComposedCodec)
        blob = chain.encode(w)

        qt = quantize_tensor(w)
        manual = compress_pct(
            qt.values.astype(np.float32).ravel(), 5.0, fmt=StorageFormat.int8()
        )
        assert blob.payload == wire_encode(manual)
        assert blob.compression_ratio == pytest.approx(manual.original_bytes / manual.compressed_bytes)

        # decode de-quantizes through the recorded side-info
        out = chain.decode(blob)
        assert out.shape == w.shape
        assert np.max(np.abs(out - w)) <= qt.scale * 260  # delta on int8 range

    def test_chain_of_lossless_is_lossless(self):
        chain = get_codec("rle|huffman")
        # rle cannot act as a transform stage -> encode must fail loudly
        with pytest.raises(CodecError, match="non-terminal"):
            chain.encode(np.zeros(16, dtype=np.float32))

    def test_composed_name_and_params_follow_terminal(self):
        chain = get_codec("quantize-int8|linefit", delta_pct=10.0)
        assert chain.name == "quantize-int8|linefit"
        assert chain.params()["delta_pct"] == 10.0

    def test_spec_rebuild_roundtrip(self):
        rng = np.random.default_rng(29)
        w = rng.standard_normal(512).astype(np.float32)
        chain = get_codec("quantize-int8|linefit", delta_pct=5.0)
        blob = chain.encode(w)
        rebuilt = CompressedBlob.rebuild(blob.spec(), blob.payload)
        decoder = get_codec(rebuilt.codec, **rebuilt.params)
        np.testing.assert_array_equal(decoder.decode(rebuilt), chain.decode(blob))
