"""A :class:`~repro.core.model_store.ModelArchive` wired for serving.

:class:`ServedModel` is the bridge between the deployable artifact (a
compressed archive) and the request path: raw layers and non-weight
state install into the model skeleton once at load time, while
compressed layers stay *compressed* — each forward pass resolves them
through the :class:`~repro.serve.cache.DecodedWeightCache` into the
fused streamed-weight forward
(:meth:`repro.nn.graph.Model.forward_streamed`), so decoded arrays
live in one bounded, shared, evictable place instead of being baked
into every model instance.

Batch forwards run **per sample**: each request's output is produced by
exactly the computation a lone request would get, so batched and serial
serving are bit-identical by construction (BLAS kernels are *not*
batch-invariant — a stacked GEMM changes the answer in the last ulp —
so sample isolation is the only way to keep the service's batching an
invisible latency optimization).  What the batch amortizes is
everything around the MACs: cache lookups and provider resolution
happen once per batch, and the executor/event-loop round trip is paid
once per batch rather than once per request.
"""

from __future__ import annotations

import inspect

import numpy as np

from .. import obs
from ..core.model_store import ModelArchive, check_on_fault
from ..nn.graph import Model
from ..runtime.keys import fingerprint_bytes, result_key
from .cache import DecodedWeightCache

__all__ = ["ServedModel", "decoded_weight_key"]


def decoded_weight_key(payload: bytes, spec: dict | None, shape: tuple) -> str:
    """Content address of one layer's decoded weights.

    The same scheme the sweep runtime uses (:func:`repro.runtime.keys.
    result_key`): payload fingerprint + codec spec + shape.  Legacy
    archives with no codec record hash under the wire-format sentinel.
    """
    codec = (
        {"name": spec["name"], "params": spec.get("params")}
        if spec is not None
        else {"name": "__linefit-wire__", "params": None}
    )
    return result_key(
        "decoded-weights",
        payload=fingerprint_bytes(payload),
        codec=codec,
        shape=[int(s) for s in shape],
    )


class ServedModel:
    """An archive-backed model exposing the serving forward contract.

    The contract the service consumes is just
    ``forward_batch(list_of_samples) -> list_of_outputs`` (plus an
    optional ``input_shape`` for admission-time validation), so tests
    and exotic backends can substitute any duck-typed model.

    Parameters
    ----------
    model:
        Skeleton whose topology matches the archive (e.g. the zoo
        proxy the archive was compressed from).  Raw layers and state
        are installed into it immediately; compressed layers are left
        untouched (their stored weights are never read on the serving
        path).  Every compressed layer must accept a
        ``weight_provider`` in its forward (``Dense``, ``Conv2D``,
        ``DepthwiseConv2D``); any other compressed layer, e.g. a
        batch norm, raises :class:`ValueError` here.
    archive:
        The compressed container to serve.
    cache:
        Decoded-weight cache; a private default-budget cache is created
        when not given, but sharing one cache across served models is
        the intended deployment shape.
    input_shape:
        Per-sample input shape for request validation (``None`` skips
        validation).
    on_fault:
        Per-layer degradation policy when a compressed payload fails
        integrity verification or decoding on the serving path:
        ``"raise"`` (default; the forward fails and the service answers
        ``Failed``), ``"zero"`` or ``"raw"``, exactly as in
        :meth:`ModelArchive.decode_layer`, which every cache fill calls.

        A degraded layer is recorded in :attr:`damage` (layer -> the
        report ``decode_layer`` returns, the same dict
        :meth:`ModelArchive.apply` returns), counted once under
        ``serve.degraded.layers``, and surfaced in every subsequent
        ``Ok`` reply's ``degraded`` metadata — a replica holding a
        damaged archive keeps serving instead of dying.
    """

    def __init__(
        self,
        model: Model,
        archive: ModelArchive,
        cache: DecodedWeightCache | None = None,
        input_shape: tuple[int, ...] | None = None,
        on_fault: str = "raise",
    ) -> None:
        check_on_fault(on_fault)
        self.model = model
        self.archive = archive
        self.cache = cache if cache is not None else DecodedWeightCache()
        self.input_shape = tuple(input_shape) if input_shape is not None else None
        self.on_fault = on_fault
        #: layer -> degradation report; empty while weights are pristine
        self.damage: dict[str, dict] = {}
        #: compressed layer -> content address of its decoded weights
        self._keys: dict[str, str] = {}
        for name, (payload, shape) in archive.compressed.items():
            if name not in model:
                raise ValueError(f"archive layer {name!r} unknown to model")
            layer = model[name]
            if "weight_provider" not in inspect.signature(layer.forward).parameters:
                raise ValueError(
                    f"archive compresses layer {name!r}, but its "
                    f"{type(layer).__name__} forward cannot stream weights"
                )
            self._keys[name] = decoded_weight_key(
                payload, archive.codecs.get(name), shape
            )
        # raw layers + non-weight state install once; compressed layers
        # resolve per forward through the cache
        archive.install_uncompressed(model)

    @property
    def compressed_layers(self) -> list[str]:
        return list(self._keys)

    def _decode(self, name: str) -> np.ndarray:
        """Cache-miss decode honouring :attr:`on_fault`."""
        weights, report = self.archive.decode_layer(name, self.on_fault)
        if report is not None and name not in self.damage:
            self.damage[name] = report
            obs.current().count("serve.degraded.layers")
        return weights

    def providers(self) -> dict[str, object]:
        """Resolve every compressed layer through the cache (hot path).

        Called once per *batch*: the returned providers are zero-copy
        views over cached decoded arrays, reused by every sample in the
        batch — this is where serving amortizes the decode.
        """
        return {
            name: self.cache.provider(key, lambda name=name: self._decode(name))
            for name, key in self._keys.items()
        }

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Single-sample forward (adds/strips the batch dimension)."""
        return self.forward_batch([x])[0]

    def forward_batch(self, samples: list[np.ndarray]) -> list[np.ndarray]:
        """Per-sample forwards sharing one provider resolution.

        Outputs are bit-identical to serial single-request execution by
        construction — see the module docstring for why the samples are
        *not* stacked into one GEMM.
        """
        providers = self.providers()
        return [
            self.model.forward_streamed(np.asarray(x)[None, ...], providers)[0]
            for x in samples
        ]
