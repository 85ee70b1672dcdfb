"""Windowed line-fit encode against the whole-stream oracle.

:func:`~repro.core.compression.compress` and
:func:`~repro.core.segmentation.segment_boundaries` scan the stream in
windows that start at segment starts.  The whole-stream kernels they
replaced live on here as the oracle: boundaries, ⟨m, q, len⟩ and wire
bytes must be bit-identical to them at every window size, including
windows of 2 and 3 weights that must grow before they hold a break.

The wire packer has an oracle here too: the field-by-field ``uint8``
column copies and ``header + body + trailer`` concatenation that
:func:`~repro.core.codec.encode` replaced with one record-packed buffer.
"""

from __future__ import annotations

import struct
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import codec as wire
from repro.core import segmentation
from repro.core.compression import (
    CompressedStream,
    StorageFormat,
    _split_long_segments,
    compress,
)
from repro.core.segmentation import (
    delta_from_percent,
    segment_boundaries,
    segment_greedy_reference,
)

#: window sizes the properties run at; ``None`` keeps the module default
WINDOWS = (2, 3, 7, 64, None)


def whole_stream_boundaries(weights: np.ndarray, delta: float) -> np.ndarray:
    """The greedy partition computed over the whole stream at once."""
    w = np.asarray(weights).ravel()
    n = w.size
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    if n == 1:
        return np.array([0, 1], dtype=np.int64)
    d = np.diff(np.asarray(w, dtype=np.float64))
    signs = np.zeros(d.shape, dtype=np.int8)
    signs[d > delta] = 1
    signs[d < -delta] = -1
    nz = np.flatnonzero(signs)
    if nz.size <= 1:
        return np.array([0, n], dtype=np.int64)
    t = signs[nz]
    change = t[1:] != t[:-1]
    if not change.any():
        return np.array([0, n], dtype=np.int64)
    change_idx = np.flatnonzero(change)
    head_mask = np.ones(change_idx.size, dtype=bool)
    head_mask[1:] = np.diff(change_idx) > 1
    head_of = np.maximum.accumulate(np.where(head_mask, change_idx, -1))
    breaks_in_change = (change_idx - head_of) % 2 == 0
    starts = nz[change_idx[breaks_in_change] + 1] + 1
    return np.concatenate(([0], starts, [n])).astype(np.int64)


def whole_stream_fit(weights: np.ndarray, boundaries: np.ndarray):
    """Least-squares lines with one ``reduceat`` pair over the whole stream."""
    w = np.asarray(weights, dtype=np.float64).ravel()
    b = np.asarray(boundaries, dtype=np.int64)
    num_segments = b.size - 1
    if num_segments <= 0 or w.size == 0:
        return np.zeros(0), np.zeros(0)
    starts = b[:-1]
    lengths = np.diff(b).astype(np.float64)
    sy = np.add.reduceat(w, starts)
    k = np.arange(w.size, dtype=np.float64)
    sky = np.add.reduceat(k * w, starts)
    sxy = sky - starts * sy
    sx = lengths * (lengths - 1.0) / 2.0
    sxx = (lengths - 1.0) * lengths * (2.0 * lengths - 1.0) / 6.0
    denom = lengths * sxx - sx * sx
    m = np.zeros(num_segments)
    multi = denom > 0
    m[multi] = (lengths[multi] * sxy[multi] - sx[multi] * sy[multi]) / denom[multi]
    q = (sy - m * sx) / lengths
    return m, q


def whole_stream_compress(weights, delta, fmt=None) -> CompressedStream:
    fmt = fmt or StorageFormat()
    w = np.asarray(weights).ravel()
    b = _split_long_segments(whole_stream_boundaries(w, delta), fmt.max_segment_length)
    m, q = whole_stream_fit(w, b)
    return CompressedStream(m=m, q=q, lengths=np.diff(b), delta=float(delta), fmt=fmt)


def column_packed(stream: CompressedStream, legacy: bool = False) -> bytes:
    """The wire message packed one ``uint8`` column block per field."""
    fmt = stream.fmt
    sw, iw = fmt.slope_bytes, fmt.intercept_bytes

    def coeff(values, nbytes):
        if nbytes == 2:
            return values.astype(np.float16).view(np.uint8).reshape(-1, 2)
        raw = np.ascontiguousarray(values.astype(np.float32)).view(np.uint8).reshape(-1, 4)
        return raw if nbytes == 4 else raw[:, 1:]

    n = stream.num_segments
    body = np.empty((n, fmt.segment_bytes), dtype=np.uint8)
    body[:, :sw] = coeff(stream.m, sw)
    body[:, sw : sw + iw] = coeff(stream.q, iw)
    body[:, -2:] = stream.lengths.astype("<u2").view(np.uint8).reshape(-1, 2)
    body = body.tobytes()
    flags = wire._format_flags(fmt)
    if legacy:
        return struct.pack("<4sBBI d", b"RWCS", 2, flags, n, stream.delta) + body
    step = wire.SEGMENTS_PER_FRAME * fmt.segment_bytes
    crcs = [zlib.crc32(body[i : i + step]) for i in range(0, len(body), step)]
    trailer = np.array(crcs, dtype="<u4").tobytes()
    header = struct.Struct("<4sBBII d")
    crc = zlib.crc32(trailer, zlib.crc32(header.pack(b"RWCS", 3, flags, n, 0, stream.delta)))
    return header.pack(b"RWCS", 3, flags, n, crc, stream.delta) + body + trailer


def _window(size):
    """Scan in ``size``-weight windows (``None``: the module default)."""
    return mock.patch.object(segmentation, "_WINDOW", size or segmentation._WINDOW)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.int64)


def assert_matches_oracle(w: np.ndarray, delta: float, window) -> None:
    expected = whole_stream_boundaries(w, delta)
    oracle = whole_stream_compress(w, delta)
    before = w.copy()
    with _window(window):
        got = segment_boundaries(w, delta)
        stream = compress(w, delta)
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(got, segment_greedy_reference(w, delta))
    np.testing.assert_array_equal(stream.lengths, oracle.lengths)
    np.testing.assert_array_equal(_bits(stream.m), _bits(oracle.m))
    np.testing.assert_array_equal(_bits(stream.q), _bits(oracle.q))
    assert wire.encode(stream) == column_packed(oracle)
    np.testing.assert_array_equal(w, before)  # windows are read, not written


_streams = st.one_of(
    hnp.arrays(
        np.float64,
        st.integers(0, 300),
        elements=st.floats(-100, 100, allow_nan=False),
    ),
    hnp.arrays(
        np.float32,
        st.integers(0, 300),
        elements=st.floats(-100, 100, allow_nan=False, width=32),
    ),
    # ties: few distinct values, so many steps are exactly 0 or +-delta
    st.lists(st.integers(-3, 3), max_size=300).map(
        lambda v: np.asarray(v, dtype=np.float32)
    ),
    st.tuples(st.floats(-10, 10, width=32), st.integers(0, 200)).map(
        lambda c: np.full(c[1], c[0], dtype=np.float32)
    ),
)


class TestWindowedEqualsWholeStream:
    @given(
        w=_streams,
        delta=st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0, 5)),
        window=st.sampled_from(WINDOWS),
    )
    @settings(max_examples=300, deadline=None)
    def test_property(self, w, delta, window):
        assert_matches_oracle(w, delta, window)

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_shortest_streams(self, n, window):
        assert_matches_oracle(np.arange(n, dtype=np.float32)[::-1].copy(), 0.0, window)

    @pytest.mark.parametrize("window", WINDOWS)
    def test_ramp_grows_a_window_and_splits(self, window):
        # one greedy segment of 200_001 weights: every window grows until
        # it reaches the end, and the fit splits at the length field
        w = np.linspace(-1.0, 1.0, 200_001, dtype=np.float32)
        assert_matches_oracle(w, 0.0, window)
        stream = compress(w, 0.0)
        assert stream.lengths.tolist() == [65535, 65535, 65535, 3396]

    @pytest.mark.parametrize("window", (7, 64, None))
    def test_segments_longer_than_the_window(self, window):
        # sawtooth of 70_000-weight ramps: each cut lands after a window
        # has grown past a segment longer than the length field
        tooth = np.arange(70_000, dtype=np.float64)
        w = np.concatenate([tooth, tooth[::-1], tooth, tooth[::-1]])
        assert_matches_oracle(w, 0.0, window)

    @pytest.mark.parametrize("pct", [0.0, 8.0])
    def test_many_windows(self, pct):
        w = np.random.default_rng(7).standard_normal(300_000).astype(np.float32)
        assert_matches_oracle(w, delta_from_percent(w, pct), None)

    def test_non_finite_weight_in_a_later_window_rejected(self):
        w = np.random.default_rng(0).standard_normal(200_000)
        w[150_000] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            compress(w, 0.1)


def test_peak_memory_scales_with_segments_not_weights():
    """A 4 M-weight encode holds its output and about one window.

    The whole-stream kernels allocated ~36 B per weight (float64 copies,
    step signs, abscissae and products of the full stream): ~140 MiB
    here.  The windowed encode's peak is its output (24 B per segment)
    plus one field's per-window pieces while they are joined (8 B), and
    a few window-sized temporaries.
    """
    w = np.random.default_rng(0).standard_normal(4_000_000).astype(np.float32)
    delta = delta_from_percent(w, 10.0)
    tracemalloc.start()
    try:
        stream = compress(w, delta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    budget = 40 * stream.num_segments + (8 << 20)
    assert peak <= budget, (
        f"peak {peak / 2**20:.1f} MiB over {budget / 2**20:.1f} MiB for "
        f"{stream.num_segments} segments of {w.size} weights"
    )


_FORMATS = [
    StorageFormat(),
    StorageFormat.int8(),
    *(
        StorageFormat(slope_bytes=sw, intercept_bytes=iw)
        for sw in (2, 3, 4)
        for iw in (2, 3, 4)
    ),
]


class TestRecordPackerEqualsColumnPacker:
    """Every storage format packs to the column packer's bytes."""

    @given(
        w=_streams,
        delta=st.floats(0, 2),
        fmt=st.sampled_from(_FORMATS),
    )
    @settings(max_examples=200, deadline=None)
    def test_property(self, w, delta, fmt):
        stream = compress(w, delta, fmt)
        assert wire.encode(stream) == column_packed(stream)
        assert wire.encode_legacy(stream) == column_packed(stream, legacy=True)

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    @pytest.mark.parametrize(
        "fmt", _FORMATS, ids=lambda f: f"w{f.weight_bytes}-s{f.slope_bytes}-i{f.intercept_bytes}"
    )
    def test_extreme_coefficients(self, fmt):
        # overflow to ±inf in float16, subnormals, signed zeros, and
        # segments at the length field's limit
        m = np.array([7e4, -7e4, 1e-40, -0.0, 3.4e38, 1.0 / 3.0])
        lengths = np.array([1, 2, 65535, 3, 4, 65535])
        stream = CompressedStream(
            m=m, q=m[::-1].copy(), lengths=lengths, delta=0.5, fmt=fmt
        )
        assert wire.encode(stream) == column_packed(stream)
        assert wire.encode_legacy(stream) == column_packed(stream, legacy=True)


def test_wire_encode_holds_one_body_besides_the_payload():
    """``encode`` packs into one preallocated buffer.

    The body is 8 B per segment in the default format.  Besides the
    parsed stream it reads (24 B per segment), the packer holds that
    buffer and the ``bytes`` it returns: 40 B per segment in all.  The
    column packer held the ``(S, 8)`` array, its ``tobytes()``, and two
    concatenations, three bodies at once (48 B per segment).
    """
    w = np.random.default_rng(0).standard_normal(4_000_000).astype(np.float32)
    stream = compress(w, delta_from_percent(w, 10.0))
    tracemalloc.start()
    try:
        payload = wire.encode(stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    budget = 2 * len(payload) + (64 << 10)
    assert peak <= budget, (
        f"peak {peak / stream.num_segments:.2f} B/segment over "
        f"{budget / stream.num_segments:.2f} for {stream.num_segments} segments"
    )
