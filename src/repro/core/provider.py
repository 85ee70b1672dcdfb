"""Streamed weight delivery: the decode→consume boundary as an object.

Before this module, every consumer of compressed weights materialized
the full decoded array first (`codec.decode(blob)` → ndarray → MAC
loop).  A :class:`WeightProvider` inverts that: consumers pull decoded
weights *tile by tile* through a :class:`WeightCursor`, and the provider
decides how the tiles come to exist —

* :class:`ArrayProvider` serves views of an already-materialized array
  (the compatibility path: zero copies, zero behavior change);
* :class:`BlobProvider` adapts any registered codec's
  :class:`~repro.core.codecs.CompressedBlob`.  A blob that decodes
  incrementally (:attr:`CompressedBlob.streaming`: a pure ``linefit``
  payload) streams for real: the provider builds a
  :class:`~repro.core.decompressor.DecodePlan` once and its cursors
  decode on demand through
  :class:`~repro.core.decompressor.WeightStream`, so a cursor holds one
  tile plus one plan block and the full weight array is never
  allocated — the software analogue of the paper's in-PE decompression
  unit feeding the MAC datapath directly.  Each cursor decodes on its
  own: no decoded weight is shared with another cursor.  Other
  codecs (whose decoders are whole-payload) materialize once per
  provider and then serve views — same contract, documented fallback.

Tile values are **bit-identical** to the materialized decode for every
provider: streaming only changes *when* weights exist, never what they
are (property-tested in ``tests/core/test_streamed_decode.py``).

:func:`provider_for` normalizes an ndarray, a ``CompressedBlob`` or an
existing provider, so call sites across ``nn``/``mapping`` accept one
spelling.
"""

from __future__ import annotations

import threading

import numpy as np

from .decompressor import DecodePlan, WeightStream
from .errors import CodecError

__all__ = [
    "WeightCursor",
    "WeightProvider",
    "ArrayProvider",
    "BlobProvider",
    "provider_for",
]


class WeightCursor:
    """Forward read cursor over one pass of a provider's weight stream.

    The base implementation serves slices of a backing array; streaming
    providers return a :class:`~repro.core.decompressor.WeightStream`,
    which has the same interface.  ``read(n)`` returns exactly
    ``min(n, remaining)`` elements; returned arrays may be views and
    must be treated as read-only by consumers.
    """

    def __init__(self, data: np.ndarray) -> None:
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return self._data.size - self._pos

    def read(self, n: int) -> np.ndarray:
        n = min(int(n), self.remaining)
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out


class WeightProvider:
    """Source of one layer's weight stream, consumed tile-by-tile.

    Subclasses implement :meth:`cursor` (a fresh pass over the stream)
    and :attr:`num_weights`; :meth:`materialize` is derived but may be
    overridden with something cheaper.  Providers are reusable: each
    :meth:`cursor` call starts an independent pass, so one provider can
    feed many forward passes.
    """

    #: number of weights a full pass yields
    num_weights: int = 0

    def cursor(self, dtype=np.float32) -> WeightCursor:
        raise NotImplementedError

    def materialize(self, dtype=np.float32) -> np.ndarray:
        """The full decoded stream (compatibility/fallback path)."""
        return self.cursor(dtype=dtype).read(self.num_weights)

    @property
    def streaming(self) -> bool:
        """True when cursors decode incrementally (no full-size buffer)."""
        return False

    #: segment count for decompressor-timing models (0 when N/A)
    num_segments: int = 0
    #: compression ratio of the backing representation (1.0 when raw)
    compression_ratio: float = 1.0


class ArrayProvider(WeightProvider):
    """Provider over an already-materialized weight array (zero-copy)."""

    def __init__(self, weights: np.ndarray) -> None:
        self._w = np.ascontiguousarray(np.asarray(weights)).ravel()
        self.num_weights = int(self._w.size)

    def cursor(self, dtype=np.float32) -> WeightCursor:
        return WeightCursor(self._w.astype(dtype, copy=False))

    def materialize(self, dtype=np.float32) -> np.ndarray:
        return self._w.astype(dtype, copy=False)


class BlobProvider(WeightProvider):
    """Provider over any registered codec's :class:`CompressedBlob`.

    The payload is checked against the blob's recorded checksum once,
    here, so a provider never serves weights from a damaged payload
    (:class:`~repro.core.errors.IntegrityError` instead).

    A blob that decodes incrementally (:attr:`CompressedBlob.streaming`)
    streams for real: the provider parses it into a
    :class:`~repro.core.decompressor.DecodePlan` once per accumulator
    dtype (``float32``, the dtype every nn layer reads, at
    construction) and keeps only the plans; each cursor is a
    :class:`~repro.core.decompressor.WeightStream` over one, holding
    one tile plus one plan block of its own decoded weights.  Other
    codecs' decoders are whole-payload, so the first cursor
    materializes the decode once (cached on the provider) and
    subsequent cursors serve views — the provider contract holds either
    way, only the peak memory differs.

    Providers are safe to share across threads: plan building and the
    materialize-once step are guarded by a lock (each runs exactly once,
    concurrent cursors wait for the finished plan or array instead of
    observing a partial one), and every cursor carries its own read
    position, so interleaved consumers never perturb each other.  The
    cached array is served as a read-only view contract — consumers
    must not write through it.
    """

    def __init__(self, blob) -> None:
        blob.verify(context="weight provider")
        self._blob = blob
        self.num_weights = blob.num_weights
        self.num_segments = blob.num_segments
        self.compression_ratio = blob.compression_ratio
        self._plans: dict[np.dtype, DecodePlan] = {}
        self._decoded: np.ndarray | None = None
        self._lock = threading.Lock()
        if blob.streaming:
            plan = self._plan(np.float32)
            self.num_weights = plan.num_weights
            self.num_segments = plan.num_segments

    @property
    def blob(self):
        return self._blob

    @property
    def streaming(self) -> bool:
        return self._blob.streaming

    def _codec(self):
        from .codecs import get_codec  # local import: codecs -> core cycles

        return get_codec(self._blob.codec, **self._blob.params)

    # Both lazy builds below are double-checked: the lock-free fast path
    # reads state that is only ever assigned a *finished* plan or array
    # under the lock, so concurrent cursors either miss (and queue on
    # the lock) or see the finished object — never a partial one — and
    # each build runs exactly once.
    def _plan(self, dtype) -> DecodePlan:
        dtype = np.dtype(dtype)
        plan = self._plans.get(dtype)
        if plan is None:
            with self._lock:
                plan = self._plans.get(dtype)
                if plan is None:
                    plan = DecodePlan(self._codec().decode_stream(self._blob), dtype)
                    self._plans[dtype] = plan
        return plan

    def _materialized(self) -> np.ndarray:
        decoded = self._decoded
        if decoded is None:
            with self._lock:
                decoded = self._decoded
                if decoded is None:
                    decoded = np.asarray(self._codec().decode(self._blob)).ravel()
                    if self.num_weights and decoded.size != self.num_weights:
                        raise CodecError(
                            f"blob decoded to {decoded.size} weights, "
                            f"declared {self.num_weights}"
                        )
                    self.num_weights = int(decoded.size)
                    self._decoded = decoded
        return decoded

    def cursor(self, dtype=np.float32) -> WeightCursor:
        if self.streaming:
            return WeightStream(self._plan(dtype))
        return WeightCursor(self._materialized().astype(dtype, copy=False))

    def materialize(self, dtype=np.float32) -> np.ndarray:
        if self.streaming:
            return WeightProvider.materialize(self, dtype=dtype)
        return self._materialized().astype(dtype, copy=False)


def provider_for(source) -> WeightProvider:
    """Normalize anything weight-shaped into a :class:`WeightProvider`.

    Accepts an existing provider (returned as-is), any codec's
    :class:`CompressedBlob`, or a raw ndarray.
    """
    if isinstance(source, WeightProvider):
        return source
    if isinstance(source, np.ndarray):
        return ArrayProvider(source)
    # duck-typed CompressedBlob (avoid importing codecs at module import)
    if hasattr(source, "payload") and hasattr(source, "codec"):
        return BlobProvider(source)
    raise TypeError(
        f"cannot build a WeightProvider from {type(source).__name__}"
    )
