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

A batch runs as **one walk** of the layers: its samples are stacked, so
each weight tile is read once per batch, as the paper's PE fetches a
layer's weights once and streams them through its MACs.  Each tile is
applied to the samples by one stacked matmul, which repeats per sample
the BLAS call a lone request makes, so every reply is bit-identical to
the same request served alone, by construction.  (One GEMM over the
stacked rows would not be: BLAS picks its blocking from the row count,
and the answer changes in the last ulp.)  For that, every layer with
weights runs the streamed path: raw layers stream from their installed
weights.  Samples of different shapes (a model with global pooling takes
any input size) walk once per shape.  Cache lookups, provider resolution
and the executor/event-loop round trip are paid once per batch too.
"""

from __future__ import annotations

import inspect

import numpy as np

from .. import obs
from ..core.model_store import ModelArchive, check_on_fault
from ..core.provider import ArrayProvider
from ..nn.graph import Model
from ..runtime.keys import fingerprint_bytes, result_key
from .cache import DecodedWeightCache

__all__ = ["ServedModel", "decoded_weight_key"]


def _streams_weights(layer) -> bool:
    return "weight_provider" in inspect.signature(layer.forward).parameters


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
        are installed into it immediately, and raw layers that can
        stream their weights are served through the streamed path too;
        compressed layers are left untouched (their stored weights are
        never read on the serving path).  Every compressed layer must
        accept a
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
            if not _streams_weights(layer):
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
        #: uncompressed layers that stream from their installed weights:
        #: a materialized GEMM over the stacked batch is not batch-invariant
        self._raw = [
            name
            for name, layer in model.parametric_layers()
            if name not in self._keys and _streams_weights(layer)
        ]

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
        """A weight provider for every streaming layer (hot path).

        Called once per *batch*: compressed layers resolve through the
        cache into zero-copy views over cached decoded arrays, raw layers
        into views over their installed weights, and every sample in the
        batch reads them — this is where serving amortizes the decode.
        """
        providers = {
            name: ArrayProvider(self.model.get_weights(name)) for name in self._raw
        }
        providers.update(
            (name, self.cache.provider(key, lambda name=name: self._decode(name)))
            for name, key in self._keys.items()
        )
        return providers

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Single-sample forward (adds/strips the batch dimension)."""
        return self.forward_batch([x])[0]

    def forward_batch(self, samples: list[np.ndarray]) -> list[np.ndarray]:
        """One walk of the layers per sample shape, one provider resolution.

        The samples of each shape are stacked and run through one
        :meth:`~repro.nn.graph.Model.forward_streamed` call; the replies
        come back in request order, each bit-identical to the same sample
        served alone — see the module docstring.
        """
        # the float32 cast the walk applies to a lone input, per sample
        xs = [np.asarray(x, dtype=np.float32) for x in samples]
        groups: dict[tuple[int, ...], list[int]] = {}
        for i, x in enumerate(xs):
            groups.setdefault(x.shape, []).append(i)
        providers = self.providers()
        replies: list[np.ndarray] = [None] * len(xs)
        for idx in groups.values():
            out = self.model.forward_streamed(np.stack([xs[i] for i in idx]), providers)
            for i, row in zip(idx, out):
                replies[i] = row
        return replies
