"""Graceful degradation: zero-fill damaged frames, keep the rest."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import codec as wire
from repro.core.codec import HEADER_BYTES, SEGMENTS_PER_FRAME
from repro.core.compression import compress
from repro.core.errors import CodecError
from repro.resilience import DamageReport, decode_degraded


@pytest.fixture()
def stream():
    rng = np.random.default_rng(23)
    weights = rng.standard_normal(6000)
    s = compress(weights, delta=0.05)
    assert s.num_segments > 2 * SEGMENTS_PER_FRAME  # at least three frames
    return s


class TestCleanPayload:
    def test_matches_strict_decode(self, stream):
        payload = wire.encode(stream)
        clean = wire.decode(payload).decompress()
        out, report = decode_degraded(payload, clean.size)
        np.testing.assert_array_equal(out, clean)
        assert out.dtype == clean.dtype
        assert report.clean
        assert report.damaged_segments == 0
        assert report.zeroed_weights == 0
        assert not report.resynchronized


class TestDamagedPayload:
    def _flip_segment_byte(self, payload: bytes, segment: int, fmt) -> bytes:
        """Flip the first (slope) byte of one segment's body record."""
        buf = bytearray(payload)
        buf[HEADER_BYTES + segment * fmt.segment_bytes] ^= 0x40
        return bytes(buf)

    def test_damaged_frame_zeroed_others_intact(self, stream):
        payload = wire.encode(stream)
        clean = wire.decode(payload).decompress()
        damaged = self._flip_segment_byte(payload, SEGMENTS_PER_FRAME, stream.fmt)

        out, report = decode_degraded(damaged, clean.size)
        assert out.size == clean.size
        assert not report.clean
        # exactly the second frame was hit (slope byte, lengths intact)
        assert report.damaged_segments == SEGMENTS_PER_FRAME
        assert not report.resynchronized

        starts = np.concatenate([[0], np.cumsum(stream.lengths)[:-1]])
        ends = starts + stream.lengths
        lo = int(starts[SEGMENTS_PER_FRAME])
        hi = int(ends[2 * SEGMENTS_PER_FRAME - 1])
        np.testing.assert_array_equal(out[lo:hi], 0.0)
        assert report.zeroed_weights == hi - lo
        # everything outside the damaged frame regenerates untouched
        np.testing.assert_array_equal(out[:lo], clean[:lo])
        np.testing.assert_array_equal(out[hi:], clean[hi:])

    def test_accuracy_of_salvage_beats_whole_layer_zero(self, stream):
        payload = wire.encode(stream)
        clean = wire.decode(payload).decompress()
        damaged = self._flip_segment_byte(payload, 0, stream.fmt)
        out, _ = decode_degraded(damaged, clean.size)
        salvage_err = float(np.mean((out - clean) ** 2))
        zero_err = float(np.mean(clean**2))
        assert salvage_err < zero_err

    def test_output_padded_to_declared_count(self, stream):
        payload = wire.encode(stream)
        declared = int(stream.lengths.sum())
        out, report = decode_degraded(payload, declared + 100)
        assert out.size == declared + 100
        np.testing.assert_array_equal(out[-100:], 0.0)
        assert report.resynchronized
        # underrun, not overrun: nothing spilled past the declared count
        assert report.overrun_segments == 0
        assert report.overrun_weights == 0

    def test_output_truncated_to_declared_count(self, stream):
        payload = wire.encode(stream)
        declared = int(stream.lengths.sum())
        out, report = decode_degraded(payload, declared - 100)
        assert out.size == declared - 100
        assert report.resynchronized
        # the overrun is recorded, mirroring the strict decoder's
        # expected_weights bounds check (which raises instead)
        ends = np.cumsum(stream.lengths)
        assert report.overrun_segments == int(np.count_nonzero(ends > declared - 100))
        assert report.overrun_segments >= 1
        assert report.overrun_weights == 100

    def test_clean_payload_reports_no_overrun(self, stream):
        payload = wire.encode(stream)
        _, report = decode_degraded(payload, int(stream.lengths.sum()))
        assert report.overrun_segments == 0
        assert report.overrun_weights == 0

    def test_determinism(self, stream):
        damaged = self._flip_segment_byte(wire.encode(stream), 3, stream.fmt)
        declared = int(stream.lengths.sum())
        a, ra = decode_degraded(damaged, declared)
        b, rb = decode_degraded(damaged, declared)
        np.testing.assert_array_equal(a, b)
        assert ra == rb


class TestStructuralDamage:
    def test_bad_magic_still_raises(self, stream):
        payload = bytearray(wire.encode(stream))
        payload[0] ^= 0xFF
        with pytest.raises(CodecError, match="magic"):
            decode_degraded(bytes(payload), int(stream.lengths.sum()))

    def test_truncation_still_raises(self, stream):
        payload = wire.encode(stream)
        with pytest.raises(CodecError):
            decode_degraded(payload[: len(payload) // 2], int(stream.lengths.sum()))


class TestDamageReport:
    def test_clean_property(self):
        assert DamageReport(10, 0, 0, False).clean
        assert not DamageReport(10, 1, 5, False).clean
        assert not DamageReport(10, 0, 0, True).clean

    def test_overrun_implies_resynchronized(self, stream):
        payload = wire.encode(stream)
        declared = int(stream.lengths.sum())
        _, report = decode_degraded(payload, declared - 1)
        assert report.overrun_segments >= 1
        assert report.resynchronized
        assert not report.clean
