"""The ``Codec`` interface and its ``CompressedBlob`` output.

A *codec* turns a 1-D weight stream (any NumPy dtype, C-order) into a
self-describing :class:`CompressedBlob` and back.  The blob carries the
byte-cost accounting used by every downstream consumer: ``original_bytes``
and ``compressed_bytes`` feed the same CR math as
:class:`repro.core.compression.StorageFormat`, so the accuracy leg
(:class:`repro.core.pipeline.CompressionPipeline`), the storage leg
(:class:`repro.core.model_store.ModelArchive`) and the traffic/energy leg
(:meth:`repro.mapping.accelerator.Accelerator.compression_effect`) all work with
any registered codec.

Codecs come in two flavours:

* **terminal** codecs produce the wire payload (``encode``/``decode``);
* **transform** stages (e.g. int8 quantization) re-represent the stream
  for a downstream terminal codec (``transform``/``untransform``) and are
  chained by :class:`repro.core.codecs.composed.ComposedCodec`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import CodecError, IntegrityError

__all__ = ["Codec", "CompressedBlob", "CodecError", "stream_mse"]

#: blob ``meta`` key holding the payload CRC32 (see ``repro.resilience``)
CHECKSUM_KEY = "crc32"


@dataclass(frozen=True)
class CompressedBlob:
    """One codec's output for one weight stream.

    Attributes
    ----------
    codec:
        Registry spec that produced the blob (e.g. ``"linefit"`` or
        ``"quantize-int8|linefit"``).
    params:
        JSON-serializable constructor parameters; ``get_codec(codec,
        **params)`` rebuilds a decoder for this blob.
    payload:
        The wire bytes (for the line-fit codec, exactly the
        :mod:`repro.core.codec` RWCS format).
    meta:
        JSON-serializable per-encode information the decoder needs
        (stream dtype, element count, transform side-info, segment
        counts).
    original_bytes / compressed_bytes:
        CR-accounting byte costs, following the paper's convention:
        the line-fit codec counts ``segments * segment_bytes`` against
        ``weights * weight_bytes`` (O(1) headers excluded); lossless
        codecs count their full payload against the raw stream bytes.
    """

    codec: str
    params: dict
    payload: bytes
    meta: dict = field(default_factory=dict)
    original_bytes: int = 0
    compressed_bytes: int = 0

    @property
    def compression_ratio(self) -> float:
        """CR = uncompressed bytes / compressed bytes (paper Tab. II)."""
        if self.compressed_bytes == 0:
            return float("inf") if self.original_bytes else 1.0
        return self.original_bytes / self.compressed_bytes

    @property
    def num_segments(self) -> int:
        """Segment count for decompressor-timing models (0 if N/A)."""
        return int(self.meta.get("num_segments", 0))

    @property
    def num_weights(self) -> int:
        """Number of stream elements the blob encodes."""
        return int(self.meta.get("num_weights", 0))

    @property
    def streaming(self) -> bool:
        """True when the payload decodes incrementally, tile by tile.

        Only a pure ``linefit`` payload does: its ⟨m, q, len⟩ triples
        regenerate the weights front to back.  Every other codec's
        decoder is whole-payload.  Both the streamed provider
        (:class:`repro.core.provider.BlobProvider`) and the streamed
        timing model (``Accelerator.compression_effect``) read this.
        """
        return self.codec == "linefit"

    def spec(self) -> dict:
        """Everything :meth:`rebuild` needs, minus the payload.

        This is what :class:`repro.core.model_store.ModelArchive`
        persists per layer so archives round-trip under any codec.
        """
        return {
            "name": self.codec,
            "params": dict(self.params),
            "meta": dict(self.meta),
            "original_bytes": int(self.original_bytes),
            "compressed_bytes": int(self.compressed_bytes),
        }

    @classmethod
    def rebuild(cls, spec: dict, payload: bytes) -> "CompressedBlob":
        """Inverse of :meth:`spec` + the payload bytes."""
        return cls(
            codec=spec["name"],
            params=dict(spec.get("params", {})),
            payload=payload,
            meta=dict(spec.get("meta", {})),
            original_bytes=int(spec.get("original_bytes", 0)),
            compressed_bytes=int(spec.get("compressed_bytes", 0)),
        )

    # -- integrity ----------------------------------------------------------
    def with_checksum(self) -> "CompressedBlob":
        """A copy whose ``meta`` records the payload CRC32."""
        meta = dict(self.meta)
        meta[CHECKSUM_KEY] = zlib.crc32(self.payload) & 0xFFFFFFFF
        return CompressedBlob(
            codec=self.codec,
            params=self.params,
            payload=self.payload,
            meta=meta,
            original_bytes=self.original_bytes,
            compressed_bytes=self.compressed_bytes,
        )

    def verify(self, context: str = "") -> bool:
        """Check the payload against the recorded checksum, if any.

        Returns ``True`` when a checksum was present and matched,
        ``False`` when the blob predates checksumming (legacy blobs
        verify vacuously).  Raises
        :class:`~repro.core.errors.IntegrityError` on a mismatch.
        """
        recorded = self.meta.get(CHECKSUM_KEY)
        if recorded is None:
            return False
        actual = zlib.crc32(self.payload) & 0xFFFFFFFF
        if int(recorded) != actual:
            where = f" ({context})" if context else ""
            raise IntegrityError(
                f"payload checksum mismatch{where}: "
                f"recorded 0x{int(recorded):08x}, computed 0x{actual:08x}"
            )
        return True


def as_stream(weights: np.ndarray) -> np.ndarray:
    """Canonical 1-D C-order view of a weight tensor."""
    return np.ascontiguousarray(np.asarray(weights)).ravel()


class Codec:
    """Base class / protocol for registered codecs.

    Subclasses set ``lossless`` and implement :meth:`encode` and
    :meth:`decode`; transform-capable stages additionally implement
    :meth:`transform` / :meth:`untransform`.  Constructors must accept a
    ``delta_pct`` keyword (the sweep knob of the paper's Fig. 8 flow);
    lossless codecs accept and ignore it so one driver loop can sweep
    every registered codec.
    """

    #: registry key, set by ``@register_codec``
    name: str = "?"
    #: True when ``decode(encode(w))`` reproduces ``w`` exactly
    lossless: bool = True

    def params(self) -> dict:
        """JSON-serializable constructor parameters (see ``get_codec``)."""
        return {}

    # -- terminal interface ---------------------------------------------------
    def encode(self, weights: np.ndarray) -> CompressedBlob:
        raise NotImplementedError

    def decode(self, blob: CompressedBlob) -> np.ndarray:
        raise NotImplementedError

    # -- composition interface ------------------------------------------------
    def transform(self, weights: np.ndarray) -> tuple[np.ndarray, dict]:
        """Re-represent the stream for a downstream stage.

        Returns the transformed stream plus JSON-serializable side-info
        consumed by :meth:`untransform`.  Only transform-capable stages
        (e.g. ``quantize-int8``) implement this.
        """
        raise CodecError(f"codec {self.name!r} cannot be a non-terminal stage")

    def untransform(self, stream: np.ndarray, info: dict) -> np.ndarray:
        """Inverse of :meth:`transform` (up to the stage's own loss)."""
        raise CodecError(f"codec {self.name!r} cannot be a non-terminal stage")

    # -- metrics --------------------------------------------------------------
    def reconstruction_mse(self, blob: CompressedBlob, original: np.ndarray) -> float:
        """MSE of ``decode(blob)`` against the original stream (Tab. II)."""
        return stream_mse(self.decode(blob), original)


def stream_mse(decoded: np.ndarray, original: np.ndarray) -> float:
    """MSE of a decoded stream against the original, in float64.

    The one MSE formula: :meth:`Codec.reconstruction_mse` applies it to
    a fresh decode, and a caller that already holds the decoded weights
    applies it directly instead of decoding twice.
    """
    w = np.asarray(original, dtype=np.float64).ravel()
    if w.size == 0:
        return 0.0
    approx = np.asarray(decoded, dtype=np.float64).ravel()
    if approx.size != w.size:
        raise CodecError(
            f"blob encodes {approx.size} weights, original has {w.size}"
        )
    diff = approx - w
    return float(np.mean(diff * diff))
