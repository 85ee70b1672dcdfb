"""Lossy compression of CNN parameters (Sec. III-B of the paper).

The line-fit codec's internals: :func:`fit_windows` segments one
stream and fits its lines window by window, which the codec packs into
its wire message (:mod:`repro.core.codec`) as they come.
:func:`compress` joins the windows into a :class:`CompressedStream`, the
parsed ⟨m, q, len⟩ form that the wire format packs and parses and the
accumulator kernel (:mod:`repro.core.decompressor`) regenerates.
:class:`StorageFormat` is the byte-cost model of that form.

Callers outside the codec compress through
``get_codec("linefit", ...)``: its :class:`~repro.core.codecs.
CompressedBlob` carries the compression ratio, and
:meth:`~repro.core.codecs.Codec.reconstruction_mse` the MSE.

A *stream* here is the natural C-order serialization of one layer's
weight tensor.  Compressing a whole model layer-by-layer is handled by
:class:`repro.core.pipeline.CompressionPipeline`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .linefit import fit_segments
from .segmentation import segment_windows

__all__ = [
    "StorageFormat",
    "CompressedStream",
    "compress",
    "fit_windows",
    "quantize_coefficient",
]


def quantize_coefficient(values: np.ndarray, nbytes: int) -> np.ndarray:
    """Round line coefficients to the precision a format stores.

    * 4 bytes — plain ``float32`` rounding;
    * 3 bytes — ``float32`` with the low mantissa byte truncated
      (relative error <= 2**-16);
    * 2 bytes — ``float16``.

    Always returns ``float64`` for downstream arithmetic.
    """
    v = np.asarray(values, dtype=np.float64)
    if nbytes >= 4:
        return v.astype(np.float32).astype(np.float64)
    if nbytes == 3:
        bits = v.astype(np.float32).view(np.uint32) & np.uint32(0xFFFFFF00)
        return bits.view(np.float32).astype(np.float64)
    if nbytes == 2:
        return v.astype(np.float16).astype(np.float64)
    raise ValueError(f"unsupported coefficient width: {nbytes} bytes")


@dataclass(frozen=True)
class StorageFormat:
    """Byte costs of the compressed representation.

    The paper stores, per monotonic sub-succession, three parameters: the
    two line coefficients and the segment length.  The default format
    models 24-bit truncated-``float32`` coefficients (low mantissa byte
    dropped — a common hardware packing) plus a ``uint16`` length, i.e.
    **8 bytes per segment** against 4-byte uncompressed weights.  On
    high-entropy weight streams greedy strict-monotonic segments average
    ~2.42 elements, so this format calibrates the delta = 0 compression
    ratio to 4 * 2.42 / 8 = 1.21 — exactly the value the paper reports
    for *all six* network models in Tab. II.

    For streams that are already quantized to int8 (Tab. III) use
    :meth:`int8`, which stores coefficients as ``float16``.
    """

    weight_bytes: int = 4
    slope_bytes: int = 3
    intercept_bytes: int = 3
    length_bytes: int = 2

    @property
    def segment_bytes(self) -> int:
        return self.slope_bytes + self.intercept_bytes + self.length_bytes

    @property
    def max_segment_length(self) -> int:
        """Longest representable segment (length field saturates here)."""
        return (1 << (8 * self.length_bytes)) - 1

    @classmethod
    def float32(cls) -> "StorageFormat":
        return cls()

    @classmethod
    def int8(cls) -> "StorageFormat":
        return cls(weight_bytes=1, slope_bytes=2, intercept_bytes=2, length_bytes=2)


def _split_long_segments(boundaries: np.ndarray, max_len: int) -> np.ndarray:
    """Split segments longer than the length field can encode.

    Long segments are rare (they appear only at large delta), so a thin
    Python loop over the offenders is fine; the common path is a no-op.
    """
    lengths = np.diff(boundaries)
    too_long = np.flatnonzero(lengths > max_len)
    if too_long.size == 0:
        return boundaries
    pieces = [boundaries]
    for i in too_long:
        start, stop = int(boundaries[i]), int(boundaries[i + 1])
        pieces.append(np.arange(start + max_len, stop, max_len, dtype=np.int64))
    return np.unique(np.concatenate(pieces))


@dataclass
class CompressedStream:
    """Result of compressing one weight stream.

    Attributes
    ----------
    m, q:
        Per-segment line coefficients (``float64``; quantized to the
        storage precision when measuring error or serializing).
    lengths:
        Per-segment element counts; ``lengths.sum()`` equals the
        original stream length.
    delta:
        Absolute tolerance used for segmentation.
    fmt:
        Byte-cost model of the representation.
    """

    m: np.ndarray
    q: np.ndarray
    lengths: np.ndarray
    delta: float
    fmt: StorageFormat = field(default_factory=StorageFormat)

    def __post_init__(self) -> None:
        if not (self.m.shape == self.q.shape == self.lengths.shape):
            raise ValueError("m, q and lengths must have identical shapes")
        if self.lengths.size and int(self.lengths.min()) <= 0:
            raise ValueError("segment lengths must be positive")

    # -- sizes -----------------------------------------------------------
    @property
    def num_segments(self) -> int:
        return int(self.lengths.size)

    @property
    def num_weights(self) -> int:
        return int(self.lengths.sum()) if self.lengths.size else 0

    @property
    def original_bytes(self) -> int:
        return self.num_weights * self.fmt.weight_bytes

    @property
    def compressed_bytes(self) -> int:
        return self.num_segments * self.fmt.segment_bytes

    # -- reconstruction --------------------------------------------------
    def storage_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients rounded to the precision actually stored."""
        return (
            quantize_coefficient(self.m, self.fmt.slope_bytes),
            quantize_coefficient(self.q, self.fmt.intercept_bytes),
        )

    def decompress(self, dtype=np.float32) -> np.ndarray:
        """Reconstruct the approximated stream ``w~``.

        Runs the decompression unit's accumulator (Eq. (2)) in ``dtype``
        over the coefficients rounded to the bytes the format stores:
        bit-identical to every streamed read of the same stream
        (:class:`~repro.core.decompressor.WeightStream`).
        """
        from .decompressor import DecodePlan, WeightStream  # late: avoid cycle

        return WeightStream(DecodePlan(self, dtype)).read(self.num_weights)


def fit_windows(
    weights: np.ndarray, delta: float, fmt: StorageFormat
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The segmentation and line fit of one stream, window by window.

    Yields ``(m, q, lengths)`` for each window of
    :func:`~repro.core.segmentation.segment_windows`, in stream order,
    with segments longer than ``fmt``'s length field split; together
    they are bit-identical to a whole-stream fit.  :func:`compress`
    joins them, and the line-fit codec packs each into its message as
    it comes (:func:`~repro.core.codec.encode_windows`).
    """
    for pos, x, b in segment_windows(weights, delta):
        if not np.isfinite(x).all():
            raise ValueError("weight stream contains non-finite values")
        b = _split_long_segments(b, fmt.max_segment_length)
        m, q = fit_segments(x, b, pos)
        yield m, q, np.diff(b)


def compress(
    weights: np.ndarray,
    delta: float,
    fmt: StorageFormat | None = None,
) -> CompressedStream:
    """Compress a weight stream with absolute tolerance ``delta``.

    Implements the full Sec. III-B flow: weak-monotonic greedy
    segmentation, per-segment least-squares line fit, and the
    three-field-per-segment storage model, over the windows of
    :func:`fit_windows` joined into one parsed stream.
    """
    fmt = fmt or StorageFormat()
    ms, qs, lengths = [], [], []
    for m, q, n in fit_windows(weights, delta, fmt):
        ms.append(m)
        qs.append(q)
        lengths.append(n)
    return CompressedStream(
        m=_join(ms),
        q=_join(qs),
        lengths=_join(lengths, np.int64),
        delta=float(delta),
        fmt=fmt,
    )


def _join(pieces: list, dtype=np.float64) -> np.ndarray:
    """Concatenate per-window pieces and drop them, so only one field's
    pieces coexist with its joined copy."""
    out = np.concatenate(pieces) if pieces else np.zeros(0, dtype=dtype)
    pieces.clear()
    return out
