"""Wire-format serialization round trips and error handling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import codec
from repro.core.codec import CodecError, IntegrityError
from repro.core.codecs import LineFitCodec
from repro.core.compression import StorageFormat
from tests.conftest import compress_pct


class TestRoundTrip:
    @pytest.mark.parametrize("delta_pct", [0.0, 10.0, 25.0])
    def test_float32_roundtrip(self, rng, delta_pct):
        w = rng.normal(size=5000).astype(np.float32)
        stream = compress_pct(w, delta_pct)
        back = codec.decode(codec.encode(stream))
        mq, qq = stream.storage_coefficients()
        np.testing.assert_array_equal(back.m, mq)
        np.testing.assert_array_equal(back.q, qq)
        np.testing.assert_array_equal(back.lengths, stream.lengths)
        assert back.delta == stream.delta
        assert back.fmt == stream.fmt

    def test_int8_roundtrip(self, rng):
        w = rng.integers(-128, 128, size=3000).astype(np.float32)
        stream = compress_pct(w, 5.0, fmt=StorageFormat.int8())
        back = codec.decode(codec.encode(stream))
        mq, qq = stream.storage_coefficients()
        np.testing.assert_array_equal(back.m, mq)
        np.testing.assert_array_equal(back.q, qq)
        assert back.fmt == StorageFormat.int8()

    def test_decompression_identical_after_roundtrip(self, rng):
        w = rng.normal(size=2000).astype(np.float32)
        stream = compress_pct(w, 12.0)
        back = codec.decode(codec.encode(stream))
        np.testing.assert_array_equal(back.decompress(), stream.decompress())

    def test_blob_size_is_header_plus_segments_plus_trailer(self, rng):
        w = rng.normal(size=1000).astype(np.float32)
        stream = compress_pct(w, 0.0)
        blob = codec.encode(stream)
        assert len(blob) == (
            codec.HEADER_BYTES
            + stream.compressed_bytes
            + codec.frame_trailer_bytes(stream.num_segments)
        )

    def test_legacy_blob_size_is_header_plus_segments(self, rng):
        w = rng.normal(size=1000).astype(np.float32)
        stream = compress_pct(w, 0.0)
        blob = codec.encode_legacy(stream)
        assert len(blob) == codec.LEGACY_HEADER_BYTES + stream.compressed_bytes

    def test_legacy_v2_messages_still_decode(self, rng):
        w = rng.normal(size=2000).astype(np.float32)
        stream = compress_pct(w, 10.0)
        back = codec.decode(codec.encode_legacy(stream))
        np.testing.assert_array_equal(back.decompress(), stream.decompress())
        assert back.delta == stream.delta

    def test_custom_format_roundtrip(self, rng):
        """Regression: the wire format is self-describing.

        Non-default coefficient widths used to encode fine and then
        fail ``decode`` with "body size mismatch" — the flags byte only
        recorded the int8 bit, so the reader assumed default widths.
        (Surfaced by the ``core.storage_format`` ablation arm.)
        """
        w = rng.normal(size=3000).astype(np.float32)
        for fmt in (
            StorageFormat(slope_bytes=2, intercept_bytes=2),  # 6 B float16
            StorageFormat(4, 4, 4, 2),  # 10 B full float32
            StorageFormat(4, 2, 3, 2),  # asymmetric widths
            StorageFormat(1, 3, 3, 2),  # int8 class, non-default widths
        ):
            stream = compress_pct(w, 8.0, fmt=fmt)
            for blob in (codec.encode(stream), codec.encode_legacy(stream)):
                back = codec.decode(blob, expected_weights=w.size)
                assert back.fmt == fmt
                mq, qq = stream.storage_coefficients()
                np.testing.assert_array_equal(back.m, mq)
                np.testing.assert_array_equal(back.q, qq)
                np.testing.assert_array_equal(back.lengths, stream.lengths)

    def test_default_formats_keep_legacy_flag_bytes(self, rng):
        """Messages in the two historical formats stay byte-compatible:
        width code 0 means "class default", so the flags byte is still
        bare 0x00 / 0x01 and pre-fix readers parse them unchanged."""
        w = rng.normal(size=500).astype(np.float32)
        assert codec.encode(compress_pct(w, 5.0))[5] == 0x00
        q = compress_pct(w, 5.0, fmt=StorageFormat.int8())
        assert codec.encode(q)[5] == 0x01

    def test_unrepresentable_format_fails_at_encode(self, rng):
        """Formats the body layout cannot hold raise at encode time
        instead of emitting a blob no decoder can parse."""
        w = rng.normal(size=500).astype(np.float32)
        for fmt, match in (
            (StorageFormat(4, 5, 3, 2), "slope"),
            (StorageFormat(4, 3, 1, 2), "intercept"),
            (StorageFormat(4, 3, 3, 4), "length"),
        ):
            stream = compress_pct(w, 5.0, fmt=fmt)
            with pytest.raises(CodecError, match=match):
                codec.encode(stream)
            with pytest.raises(CodecError, match=match):
                codec.encode_legacy(stream)
            with pytest.raises(CodecError, match=match):
                LineFitCodec(delta_pct=5.0, fmt=fmt).encode(w)

    def test_empty_stream(self):
        stream = compress_pct(np.array([], dtype=np.float32), 0.0)
        back = codec.decode(codec.encode(stream))
        assert back.num_segments == 0


class TestErrors:
    def test_truncated_header(self):
        with pytest.raises(ValueError, match="truncated"):
            codec.decode(b"RW")

    def test_bad_magic(self, rng):
        blob = bytearray(codec.encode(compress_pct(rng.normal(size=10), 0.0)))
        blob[0] = ord("X")
        with pytest.raises(ValueError, match="magic"):
            codec.decode(bytes(blob))

    def test_truncated_body(self, rng):
        blob = codec.encode(compress_pct(rng.normal(size=100), 0.0))
        with pytest.raises(ValueError, match="size mismatch"):
            codec.decode(blob[:-3])

    def test_bad_version(self, rng):
        blob = bytearray(codec.encode(compress_pct(rng.normal(size=10), 0.0)))
        blob[4] = 99
        with pytest.raises(ValueError, match="version"):
            codec.decode(bytes(blob))


class TestCodecErrorType:
    """Every malformed payload raises the dedicated ``CodecError``.

    ``CodecError`` subclasses ``ValueError``, so the legacy expectations
    above keep holding; these pin the precise type per failure mode.
    """

    def _blob(self, rng, n=100) -> bytearray:
        return bytearray(codec.encode(compress_pct(rng.normal(size=n), 0.0)))

    def test_is_value_error_subclass(self):
        assert issubclass(CodecError, ValueError)

    def test_truncated_header(self):
        with pytest.raises(CodecError, match="truncated"):
            codec.decode(b"RWCS\x02")

    def test_empty_buffer(self):
        with pytest.raises(CodecError, match="truncated"):
            codec.decode(b"")

    def test_bad_magic(self, rng):
        blob = self._blob(rng)
        blob[:4] = b"NOPE"
        with pytest.raises(CodecError, match="magic"):
            codec.decode(bytes(blob))

    def test_unknown_version(self, rng):
        blob = self._blob(rng)
        blob[4] = 77
        with pytest.raises(CodecError, match="version"):
            codec.decode(bytes(blob))

    def test_unknown_flags(self, rng):
        blob = self._blob(rng)
        blob[5] |= 0x80  # a flag bit no writer ever sets
        with pytest.raises(CodecError, match="flags"):
            codec.decode(bytes(blob))

    def test_truncated_body(self, rng):
        blob = self._blob(rng)
        with pytest.raises(CodecError, match="size mismatch"):
            codec.decode(bytes(blob[:-1]))

    def test_trailing_garbage(self, rng):
        blob = self._blob(rng)
        with pytest.raises(CodecError, match="size mismatch"):
            codec.decode(bytes(blob) + b"\x00\x00")


class TestIntegrityFraming:
    """Version-3 CRC framing: detection, localization, lenient parsing."""

    def _stream(self, rng, n=400, pct=5.0):
        return compress_pct(rng.normal(size=n).astype(np.float32), pct)

    def test_every_single_bit_flip_is_detected(self, rng):
        stream = self._stream(rng, n=50, pct=0.0)
        blob = codec.encode(stream)
        for bit in range(len(blob) * 8):
            damaged = bytearray(blob)
            damaged[bit >> 3] ^= 0x80 >> (bit & 7)
            with pytest.raises(CodecError):
                codec.decode(bytes(damaged))

    def test_integrity_error_reports_damaged_segments(self, rng):
        stream = self._stream(rng)
        blob = bytearray(codec.encode(stream))
        # hit a body byte inside the second frame
        target = codec.HEADER_BYTES + (codec.SEGMENTS_PER_FRAME + 3) * stream.fmt.segment_bytes
        blob[target] ^= 0xFF
        with pytest.raises(IntegrityError, match="frame checksum") as exc:
            codec.decode(bytes(blob))
        segs = exc.value.segments
        assert segs
        assert all(
            codec.SEGMENTS_PER_FRAME <= s < 2 * codec.SEGMENTS_PER_FRAME for s in segs
        )

    def test_integrity_error_is_codec_error(self):
        assert issubclass(IntegrityError, CodecError)

    def test_lenient_localizes_body_damage_to_one_frame(self, rng):
        stream = self._stream(rng)
        blob = bytearray(codec.encode(stream))
        target = codec.HEADER_BYTES + 2 * stream.fmt.segment_bytes
        blob[target] ^= 0x01
        parsed = codec.parse_lenient(bytes(blob))
        damaged = np.flatnonzero(parsed.damaged)
        assert damaged.size
        assert damaged.max() < codec.SEGMENTS_PER_FRAME  # first frame only
        assert parsed.num_segments == stream.num_segments

    def test_lenient_survives_header_crc_damage(self, rng):
        # a flip in the stored header CRC must not void the whole message
        stream = self._stream(rng)
        blob = bytearray(codec.encode(stream))
        blob[11] ^= 0x10  # inside the u32 header-CRC field
        with pytest.raises(IntegrityError):
            codec.decode(bytes(blob))
        parsed = codec.parse_lenient(bytes(blob))
        assert not parsed.damaged.any()  # body is pristine

    def test_lenient_trailer_damage_flags_only_its_frame(self, rng):
        stream = self._stream(rng)
        blob = bytearray(codec.encode(stream))
        blob[-1] ^= 0x01  # last trailer CRC -> last frame suspect
        parsed = codec.parse_lenient(bytes(blob))
        damaged = np.flatnonzero(parsed.damaged)
        assert damaged.size
        assert damaged.min() >= (stream.num_segments - 1) // codec.SEGMENTS_PER_FRAME * (
            codec.SEGMENTS_PER_FRAME
        )

    def test_clean_message_parses_lenient_with_no_damage(self, rng):
        stream = self._stream(rng)
        parsed = codec.parse_lenient(codec.encode(stream))
        assert not parsed.damaged.any()
        np.testing.assert_array_equal(parsed.lengths, stream.lengths)


class TestBoundsValidation:
    """Strict validation of decoded (m, q, len) triples."""

    def test_overrun_names_the_offending_segment(self, rng):
        stream = compress_pct(rng.normal(size=500).astype(np.float32), 5.0)
        blob = codec.encode(stream)
        declared = int(stream.lengths.sum()) - 1  # one weight short
        with pytest.raises(CodecError, match=r"segment \d+ overruns") as exc:
            codec.decode(blob, expected_weights=declared)
        assert str(declared) in str(exc.value)

    def test_short_sum_is_rejected(self, rng):
        stream = compress_pct(rng.normal(size=500).astype(np.float32), 5.0)
        blob = codec.encode(stream)
        declared = int(stream.lengths.sum()) + 10
        with pytest.raises(CodecError, match="sum to"):
            codec.decode(blob, expected_weights=declared)

    def test_exact_sum_passes(self, rng):
        stream = compress_pct(rng.normal(size=500).astype(np.float32), 5.0)
        blob = codec.encode(stream)
        back = codec.decode(blob, expected_weights=int(stream.lengths.sum()))
        assert back.num_weights == int(stream.lengths.sum())

    def test_legacy_zero_length_segment_rejected(self, rng):
        # v2 has no CRCs, but bounds validation still applies
        stream = compress_pct(rng.normal(size=200).astype(np.float32), 0.0)
        blob = bytearray(codec.encode_legacy(stream))
        # zero out the u16 length field of segment 0
        off = codec.LEGACY_HEADER_BYTES + stream.fmt.segment_bytes - 2
        blob[off : off + 2] = b"\x00\x00"
        with pytest.raises(CodecError, match="non-positive length"):
            codec.decode(bytes(blob))
