"""Byte-level serialization of compressed weight streams.

This is the wire/storage format whose size the compression-ratio numbers
refer to, and the payload the memory controller actually ships over the
NoC to the PEs.  Layout (little-endian), matching
:class:`repro.core.compression.StorageFormat`:

    header:  magic 'RWCS' | u8 version | u8 fmt flags | u32 num_segments
             | u32 header crc | f64 delta
    body:    num_segments * (slope | intercept | length)
    trailer: ceil(num_segments / 64) * u32 frame CRC32

Coefficients are stored at the format's width: 4 bytes = ``float32``,
3 bytes = ``float32`` with the low mantissa byte dropped (the default
8-byte-per-segment format calibrated to the paper's delta=0 CR of 1.21),
2 bytes = ``float16``.  Lengths are ``uint16``.  The flags byte is
self-describing: bit 0 selects the int8 weight class and two 2-bit
fields carry explicit slope/intercept widths (0 = class default, so
default-format messages are byte-identical to ones written before the
width bits existed).  Formats the body layout cannot represent fail at
*encode* time with :class:`CodecError` — historically they encoded fine
and produced blobs no decoder could parse.  The O(1) header and the
integrity trailer are excluded from compression-ratio accounting,
mirroring the paper's three-fields-per-segment cost model.

Integrity framing (version 3)
-----------------------------
Because the stream is *regenerative* — each ⟨m, q, len⟩ triple expands
into a whole sub-succession of weights — a single flipped bit silently
poisons every weight of its segment (and, via a corrupted length field,
desynchronizes everything after it).  Version 3 therefore frames the
body in groups of :data:`SEGMENTS_PER_FRAME` segments, each covered by a
CRC32 in the trailer, and protects the header fields and the trailer
itself with a header CRC32 (computed over the message with the CRC field
zeroed).  Every single-bit flip anywhere in a v3 message is detected.
Version-2 messages (written before the framing existed) still decode,
with no integrity guarantees — the legacy fallback.

``decode`` raises :class:`IntegrityError` on checksum or finiteness
violations and :class:`CodecError` on structural ones;
:func:`parse_lenient` parses damaged v3 messages without raising so a
degradation policy (see :mod:`repro.resilience`) can salvage the
undamaged frames.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .compression import CompressedStream, StorageFormat
from .errors import CodecError, IntegrityError

__all__ = [
    "encode",
    "encode_legacy",
    "decode",
    "parse_lenient",
    "LenientStream",
    "frame_trailer_bytes",
    "HEADER_BYTES",
    "LEGACY_HEADER_BYTES",
    "SEGMENTS_PER_FRAME",
    "CodecError",
    "IntegrityError",
]

_MAGIC = b"RWCS"
_VERSION = 3
_LEGACY_VERSION = 2
#: v3: magic | version | flags | num_segments | header crc | delta
_HEADER = struct.Struct("<4sBBII d")
#: v2 (legacy, pre-integrity): magic | version | flags | num_segments | delta
_HEADER_V2 = struct.Struct("<4sBBI d")
HEADER_BYTES = _HEADER.size
LEGACY_HEADER_BYTES = _HEADER_V2.size
#: byte offset of the u32 header-CRC field inside the v3 header
_CRC_OFFSET = 4 + 1 + 1 + 4

#: segments covered by one trailer CRC32 — the damage-localization grain
SEGMENTS_PER_FRAME = 64

_FLAG_INT8 = 0x01
#: 2-bit coefficient-width codes (0 = class default, 1/2/3 = 2/3/4 bytes)
_SLOPE_SHIFT = 1
_INTERCEPT_SHIFT = 3
_WIDTH_MASK = 0x03
_KNOWN_FLAGS = (
    _FLAG_INT8 | (_WIDTH_MASK << _SLOPE_SHIFT) | (_WIDTH_MASK << _INTERCEPT_SHIFT)
)

_WIDTH_CODES = {2: 1, 3: 2, 4: 3}
_CODE_WIDTHS = {code: width for width, code in _WIDTH_CODES.items()}


def _format_flags(fmt: StorageFormat) -> int:
    """Pack a storage format into the header flags byte.

    Class-default coefficient widths emit a bare ``0x00``/``0x01`` so
    every message written before the explicit width bits existed — and
    every new message in a default format — stays byte-identical.
    Non-default widths get explicit 2-bit codes; formats the body layout
    cannot represent at all raise :class:`CodecError` here, at encode
    time, instead of producing a blob no decoder can parse.
    """
    if fmt.length_bytes != 2:
        raise CodecError(
            f"wire format requires a 2-byte length field, "
            f"got {fmt.length_bytes}"
        )
    for name, width in (("slope", fmt.slope_bytes), ("intercept", fmt.intercept_bytes)):
        if width not in _WIDTH_CODES:
            raise CodecError(
                f"wire format cannot store {width}-byte {name} coefficients "
                f"(supported widths: 2, 3, 4)"
            )
    flags = _FLAG_INT8 if fmt.weight_bytes == 1 else 0
    default = StorageFormat.int8() if flags else StorageFormat.float32()
    if fmt.slope_bytes != default.slope_bytes:
        flags |= _WIDTH_CODES[fmt.slope_bytes] << _SLOPE_SHIFT
    if fmt.intercept_bytes != default.intercept_bytes:
        flags |= _WIDTH_CODES[fmt.intercept_bytes] << _INTERCEPT_SHIFT
    return flags


def _format_from_flags(flags: int) -> StorageFormat:
    """Inverse of :func:`_format_flags` (width code 0 = class default)."""
    base = StorageFormat.int8() if flags & _FLAG_INT8 else StorageFormat.float32()
    slope_code = (flags >> _SLOPE_SHIFT) & _WIDTH_MASK
    intercept_code = (flags >> _INTERCEPT_SHIFT) & _WIDTH_MASK
    if not (slope_code or intercept_code):
        return base
    return StorageFormat(
        weight_bytes=base.weight_bytes,
        slope_bytes=_CODE_WIDTHS.get(slope_code, base.slope_bytes),
        intercept_bytes=_CODE_WIDTHS.get(intercept_code, base.intercept_bytes),
    )


def frame_trailer_bytes(num_segments: int) -> int:
    """Size of the v3 per-frame CRC trailer for a segment count."""
    return 4 * (-(-int(num_segments) // SEGMENTS_PER_FRAME))


#: the unsigned lane each coefficient width is written through; a 3-byte
#: coefficient goes out as a 4-byte lane whose spare high byte the next
#: field of the record overwrites
_LANES = {2: "<u2", 3: "<u4", 4: "<u4"}


def _coeff_bits(values: np.ndarray, nbytes: int) -> np.ndarray:
    """Coefficients as unsigned integers whose low ``nbytes`` bytes are stored."""
    if nbytes == 2:
        return values.astype(np.float16).view(np.uint16)
    bits = values.astype(np.float32).view(np.uint32)
    if nbytes == 3:
        bits >>= 8  # little-endian: the dropped byte is the low mantissa byte
    return bits


def _record_dtype(fmt: StorageFormat) -> np.dtype:
    """One segment's ⟨slope, intercept, length⟩ record over the body bytes.

    Fields are assigned in that order, so a 3-byte coefficient's spare
    lane byte is overwritten by the field after it; the 2-byte length
    comes last and ends the record exactly.
    """
    return np.dtype(
        {
            "names": ["m", "q", "length"],
            "formats": [_LANES[fmt.slope_bytes], _LANES[fmt.intercept_bytes], "<u2"],
            "offsets": [0, fmt.slope_bytes, fmt.slope_bytes + fmt.intercept_bytes],
            "itemsize": fmt.segment_bytes,
        }
    )


def _unpack_coeff(raw: np.ndarray, nbytes: int) -> np.ndarray:
    """Inverse of :func:`_coeff_bits` over stored bytes; returns float64."""
    if nbytes == 2:
        return raw.reshape(-1, 2).copy().view(np.float16).ravel().astype(np.float64)
    if nbytes == 4:
        return raw.reshape(-1, 4).copy().view(np.float32).ravel().astype(np.float64)
    if nbytes == 3:
        full = np.zeros((raw.shape[0] // 3 if raw.ndim == 1 else raw.shape[0], 4), np.uint8)
        full[:, 1:] = raw.reshape(-1, 3)
        return full.view(np.float32).ravel().astype(np.float64)
    raise ValueError(f"unsupported coefficient width: {nbytes}")


def _frame_crcs(body, segment_bytes: int) -> np.ndarray:
    """CRC32 of each :data:`SEGMENTS_PER_FRAME`-segment group of the body.

    ``body`` is any bytes-like object; each frame is CRC'd as a slice of
    a ``memoryview`` over it, so no frame is copied.
    """
    view = memoryview(body)
    step = SEGMENTS_PER_FRAME * segment_bytes
    return np.array(
        [zlib.crc32(view[i : i + step]) for i in range(0, len(view), step)],
        dtype=np.uint32,
    )


def _pack(
    stream: CompressedStream, header_bytes: int, trailer_bytes: int
) -> tuple[int, bytearray]:
    """Header flags and the message's one buffer, the same in both wire
    versions: the segment body, packed in place after ``header_bytes``
    and followed by ``trailer_bytes``, both left zero for the caller."""
    fmt = stream.fmt
    flags = _format_flags(fmt)
    if stream.lengths.size and int(stream.lengths.max()) > fmt.max_segment_length:
        raise ValueError("segment length exceeds the storage format's length field")
    n = stream.num_segments
    buf = bytearray(header_bytes + n * fmt.segment_bytes + trailer_bytes)
    records = np.frombuffer(buf, dtype=_record_dtype(fmt), count=n, offset=header_bytes)
    records["m"] = _coeff_bits(stream.m, fmt.slope_bytes)
    records["q"] = _coeff_bits(stream.q, fmt.intercept_bytes)
    records["length"] = stream.lengths
    return flags, buf


def encode(stream: CompressedStream) -> bytes:
    """Serialize a compressed stream to bytes (version 3, CRC-framed)."""
    n, fmt = stream.num_segments, stream.fmt
    end = HEADER_BYTES + n * fmt.segment_bytes
    flags, buf = _pack(stream, HEADER_BYTES, frame_trailer_bytes(n))
    view = memoryview(buf)
    view[end:] = _frame_crcs(view[HEADER_BYTES:end], fmt.segment_bytes).astype("<u4").tobytes()
    header0 = _HEADER.pack(_MAGIC, _VERSION, flags, n, 0, float(stream.delta))
    crc = zlib.crc32(view[end:], zlib.crc32(header0))
    _HEADER.pack_into(buf, 0, _MAGIC, _VERSION, flags, n, crc, float(stream.delta))
    return bytes(buf)


def encode_legacy(stream: CompressedStream) -> bytes:
    """Serialize in the pre-integrity version-2 layout (no CRCs).

    Exists for the fault-injection campaign and the legacy-fallback
    tests: it produces exactly the messages archives written before the
    framing version bump contain.  New code should use :func:`encode`.
    """
    flags, buf = _pack(stream, LEGACY_HEADER_BYTES, 0)
    _HEADER_V2.pack_into(
        buf, 0, _MAGIC, _LEGACY_VERSION, flags, stream.num_segments, float(stream.delta)
    )
    return bytes(buf)


@dataclass
class LenientStream:
    """A v3/v2 message parsed without raising on *content* damage.

    ``damaged`` flags the segments whose frame CRC failed (always all-
    False for legacy v2 messages, which carry no CRCs).  ``m``, ``q``
    and ``lengths`` are the raw parsed values — inside damaged frames
    they are not to be trusted.  Structural damage (bad magic, size
    mismatch) still raises, because then nothing about the message can
    be trusted; a header-CRC mismatch alone does *not* — the per-frame
    comparison still localizes the damage, at worst flagging one extra
    frame when the hit landed in the trailer.
    """

    m: np.ndarray
    q: np.ndarray
    lengths: np.ndarray
    delta: float
    fmt: StorageFormat
    damaged: np.ndarray  # bool, per segment

    @property
    def num_segments(self) -> int:
        return int(self.lengths.size)


def _parse(data: bytes, strict: bool) -> LenientStream:
    if len(data) < 5:
        raise CodecError("truncated compressed stream (missing header)")
    magic, version = data[:4], data[4]
    if magic != _MAGIC:
        raise CodecError(f"bad magic {magic!r}, expected {_MAGIC!r}")
    if version == _LEGACY_VERSION:
        if len(data) < LEGACY_HEADER_BYTES:
            raise CodecError("truncated compressed stream (missing header)")
        _, _, flags, num_segments, delta = _HEADER_V2.unpack_from(data)
        header_bytes, trailer_len = LEGACY_HEADER_BYTES, 0
    elif version == _VERSION:
        if len(data) < HEADER_BYTES:
            raise CodecError("truncated compressed stream (missing header)")
        _, _, flags, num_segments, header_crc, delta = _HEADER.unpack_from(data)
        header_bytes, trailer_len = HEADER_BYTES, frame_trailer_bytes(num_segments)
    else:
        raise CodecError(f"unsupported version {version}")
    if flags & ~_KNOWN_FLAGS:
        raise CodecError(f"unknown format flags 0x{flags & ~_KNOWN_FLAGS:02x}")
    fmt = _format_from_flags(flags)
    body_len = num_segments * fmt.segment_bytes
    expected = header_bytes + body_len + trailer_len
    if len(data) != expected:
        raise CodecError(f"body size mismatch: got {len(data)}, expected {expected}")

    damaged = np.zeros(num_segments, dtype=bool)
    if version == _VERSION:
        trailer = data[header_bytes + body_len :]
        crc = zlib.crc32(
            trailer,
            zlib.crc32(
                data[:_CRC_OFFSET] + b"\x00\x00\x00\x00" + data[_CRC_OFFSET + 4 : header_bytes]
            ),
        )
        if crc != header_crc and strict:
            raise IntegrityError("header checksum mismatch (corrupted framing)")
        # lenient + header-CRC mismatch: the hit landed in the header
        # fields or in the trailer itself.  The message is structurally
        # coherent (magic/version/size all checked out), so fall through
        # to the per-frame comparison — body damage is flagged exactly,
        # and a corrupted trailer CRC flags only its own frame (a
        # conservative false positive instead of losing the whole layer)
        body_bytes = memoryview(data)[header_bytes : header_bytes + body_len]
        stored = np.frombuffer(trailer, dtype="<u4")
        actual = _frame_crcs(body_bytes, fmt.segment_bytes)
        bad_frames = np.flatnonzero(stored != actual)
        for f in bad_frames:
            lo = int(f) * SEGMENTS_PER_FRAME
            damaged[lo : lo + SEGMENTS_PER_FRAME] = True
        if strict and bad_frames.size:
            segs = np.flatnonzero(damaged)
            raise IntegrityError(
                f"frame checksum mismatch in {bad_frames.size} frame(s), "
                f"covering segments {segs[0]}..{segs[-1]}",
                segments=tuple(segs.tolist()),
            )

    body = np.frombuffer(
        data, dtype=np.uint8, offset=header_bytes, count=body_len
    ).reshape(num_segments, fmt.segment_bytes)
    m = _unpack_coeff(body[:, : fmt.slope_bytes], fmt.slope_bytes)
    q = _unpack_coeff(
        body[:, fmt.slope_bytes : fmt.slope_bytes + fmt.intercept_bytes],
        fmt.intercept_bytes,
    )
    lengths = body[:, -fmt.length_bytes :].copy().view("<u2").ravel().astype(np.int64)
    return LenientStream(
        m=m, q=q, lengths=lengths, delta=float(delta), fmt=fmt, damaged=damaged
    )


def _validate(parsed: LenientStream, expected_weights: int | None) -> None:
    """Strict bounds validation on the decoded ⟨m, q, len⟩ triples."""
    lengths = parsed.lengths
    bad_len = np.flatnonzero(lengths <= 0)
    if bad_len.size:
        raise CodecError(
            f"segment {int(bad_len[0])} has non-positive length {int(lengths[bad_len[0]])}"
        )
    non_finite = np.flatnonzero(~(np.isfinite(parsed.m) & np.isfinite(parsed.q)))
    if non_finite.size:
        raise IntegrityError(
            f"segment {int(non_finite[0])} has non-finite line coefficients",
            segments=tuple(non_finite.tolist()),
        )
    if expected_weights is not None:
        total = np.cumsum(lengths)
        declared = int(expected_weights)
        over = np.flatnonzero(total > declared)
        if over.size:
            raise CodecError(
                f"segment {int(over[0])} overruns the declared weight count: "
                f"segments sum to {int(total[-1])}, declared {declared}"
            )
        got = int(total[-1]) if lengths.size else 0
        if got != declared:
            raise CodecError(
                f"segment lengths sum to {got}, declared weight count is {declared}"
            )


def decode(data: bytes, expected_weights: int | None = None) -> CompressedStream:
    """Parse bytes produced by :func:`encode` back into a stream.

    Parameters
    ----------
    data:
        A version-3 (CRC-framed) or legacy version-2 message.
    expected_weights:
        When given, the segment lengths must sum to exactly this count;
        the error names the first overrunning segment.

    Raises
    ------
    IntegrityError
        On checksum mismatches (v3) and non-finite coefficients.
    CodecError
        On truncated buffers, bad magic, unknown versions, unknown
        format flags, body-size mismatches, non-positive segment
        lengths, and declared-weight-count violations.
    """
    parsed = _parse(data, strict=True)
    _validate(parsed, expected_weights)
    return CompressedStream(
        m=parsed.m,
        q=parsed.q,
        lengths=parsed.lengths,
        delta=parsed.delta,
        fmt=parsed.fmt,
    )


def parse_lenient(data: bytes) -> LenientStream:
    """Parse a message, flagging (not raising on) damaged v3 frames.

    The entry point of the graceful-degradation path: structurally
    broken messages still raise ``CodecError``/``IntegrityError``, but
    frame-CRC failures come back as the ``damaged`` mask so a policy can
    zero-fill the affected segments (:func:`repro.resilience.decode_degraded`).
    """
    return _parse(data, strict=False)
