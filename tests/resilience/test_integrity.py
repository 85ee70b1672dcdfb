"""Blob-level payload checksums: record, verify, legacy fallback."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.core.codecs import get_codec
from repro.core.errors import CodecError, IntegrityError
from repro.resilience import BitFlipInjector


@pytest.fixture()
def blob():
    rng = np.random.default_rng(17)
    return get_codec("linefit", delta_pct=10.0).encode(
        rng.standard_normal(2048).astype(np.float32)
    )


class TestChecksum:
    def test_with_checksum_records_payload_crc(self, blob):
        stamped = blob.with_checksum()
        assert stamped.meta["crc32"] == zlib.crc32(blob.payload) & 0xFFFFFFFF
        assert stamped.payload == blob.payload

    def test_original_blob_is_untouched(self, blob):
        blob.with_checksum()
        assert "crc32" not in blob.meta

    def test_verify_passes_on_clean_blob(self, blob):
        assert blob.with_checksum().verify() is True

    def test_legacy_blob_verifies_vacuously(self, blob):
        assert blob.verify() is False

    def test_checksum_survives_spec_roundtrip(self, blob):
        stamped = blob.with_checksum()
        rebuilt = type(blob).rebuild(stamped.spec(), stamped.payload)
        assert rebuilt.verify() is True

    def test_bit_flip_is_caught(self, blob):
        stamped = blob.with_checksum()
        damaged = type(blob)(
            codec=stamped.codec,
            params=stamped.params,
            payload=BitFlipInjector(seed=2, ber=1e-4).corrupt_bytes(stamped.payload),
            meta=stamped.meta,
            original_bytes=stamped.original_bytes,
            compressed_bytes=stamped.compressed_bytes,
        )
        with pytest.raises(IntegrityError, match="payload checksum mismatch"):
            damaged.verify(context="layer conv2d_1")

    def test_mismatch_message_names_the_context(self, blob):
        stamped = blob.with_checksum()
        damaged = type(blob)(
            codec=stamped.codec,
            params=stamped.params,
            payload=stamped.payload + b"\x00",
            meta=stamped.meta,
        )
        with pytest.raises(IntegrityError, match="conv2d_1"):
            damaged.verify(context="conv2d_1")

    def test_integrity_error_is_codec_error(self):
        assert issubclass(IntegrityError, CodecError)
        assert issubclass(IntegrityError, ValueError)
