"""The paper's line-fit compressor behind the :class:`Codec` interface.

``get_codec("linefit", ...)`` is the one public way to compress a
weight stream.  ``LineFitCodec`` chains the codec's internals —
weak-monotonic segmentation (:mod:`repro.core.segmentation`), per-segment
least squares (:mod:`repro.core.linefit`), the parsed ⟨m, q, len⟩ form
and its storage-format cost model (:mod:`repro.core.compression`), the
RWCS wire format (:mod:`repro.core.codec`) and the accumulator decoder
(:mod:`repro.core.decompressor`).  The blob's ``compression_ratio`` and
:meth:`~repro.core.codecs.Codec.reconstruction_mse` are the one CR and
MSE formula, and a blob decodes to exactly the weights a streamed
provider serves.
"""

from __future__ import annotations

import numpy as np

from .. import codec as wire
from ..compression import CompressedStream, StorageFormat, fit_windows
from ..errors import CodecError
from ..segmentation import delta_from_percent
from .base import Codec, CompressedBlob, as_stream
from .registry import register_codec

__all__ = ["LineFitCodec"]

_NAMED_FORMATS = {
    "float32": StorageFormat.float32,
    "int8": StorageFormat.int8,
}


def _resolve_fmt(fmt) -> tuple[StorageFormat, object]:
    """Accept ``"float32"``/``"int8"``, a field dict, or a StorageFormat.

    Returns the format plus its JSON-serializable spelling for
    :meth:`LineFitCodec.params`.
    """
    if isinstance(fmt, StorageFormat):
        for name, factory in _NAMED_FORMATS.items():
            if fmt == factory():
                return fmt, name
        return fmt, {
            "weight_bytes": fmt.weight_bytes,
            "slope_bytes": fmt.slope_bytes,
            "intercept_bytes": fmt.intercept_bytes,
            "length_bytes": fmt.length_bytes,
        }
    if isinstance(fmt, dict):
        return StorageFormat(**fmt), dict(fmt)
    if fmt in _NAMED_FORMATS:
        return _NAMED_FORMATS[fmt](), fmt
    raise CodecError(
        f"unknown storage format {fmt!r}; use "
        f"{sorted(_NAMED_FORMATS)}, a StorageFormat or a field dict"
    )


@register_codec("linefit")
class LineFitCodec(Codec):
    """Weak-monotonic segmentation + per-segment least-squares lines.

    Parameters
    ----------
    delta_pct:
        Tolerance as a percentage of the stream's amplitude (the
        paper's convention); ignored when ``delta`` is given.
    delta:
        Absolute tolerance, overriding ``delta_pct`` (used when the
        tolerance must be derived from a different stream than the one
        encoded, e.g. the full-stream range of a sliced evaluation).
    fmt:
        Storage cost model: ``"float32"`` (default, 8 B/segment) or
        ``"int8"`` (6 B/segment, Tab. III), a field dict, or a
        :class:`~repro.core.compression.StorageFormat`.
    """

    lossless = False

    def __init__(
        self,
        delta_pct: float = 0.0,
        delta: float | None = None,
        fmt="float32",
    ) -> None:
        self.delta_pct = float(delta_pct)
        self.delta = None if delta is None else float(delta)
        self.fmt, self._fmt_spec = _resolve_fmt(fmt)

    def params(self) -> dict:
        out: dict = {"delta_pct": self.delta_pct, "fmt": self._fmt_spec}
        if self.delta is not None:
            out["delta"] = self.delta
        return out

    def _delta_for(self, w: np.ndarray) -> float:
        if self.delta is not None:
            return self.delta
        return delta_from_percent(w, self.delta_pct)

    def encode(self, weights: np.ndarray) -> CompressedBlob:
        """Fit ``weights`` window by window, packing each window's
        records into the message as it is fit (no whole-stream ⟨m, q,
        len⟩ array is built)."""
        w = as_stream(weights)
        delta = self._delta_for(w)
        payload, num_segments = wire.encode_windows(
            fit_windows(w, delta, self.fmt), self.fmt, delta
        )
        return CompressedBlob(
            codec=self.name,
            params=self.params(),
            payload=payload,
            meta={
                "num_segments": num_segments,
                "num_weights": int(w.size),
                "dtype": str(w.dtype),
            },
            original_bytes=w.size * self.fmt.weight_bytes,
            compressed_bytes=num_segments * self.fmt.segment_bytes,
        )

    def decode_stream(self, blob: CompressedBlob) -> CompressedStream:
        """The parsed :class:`CompressedStream` behind a blob.

        When the blob declares its weight count (``meta.num_weights``),
        the wire decoder additionally checks that the segment lengths
        sum to exactly it — a length field corrupted in storage can no
        longer silently mis-shape the regenerated stream.
        """
        declared = blob.num_weights
        return wire.decode(
            blob.payload, expected_weights=declared if declared else None
        )

    def decode(self, blob: CompressedBlob) -> np.ndarray:
        return self.decode_stream(blob).decompress()
