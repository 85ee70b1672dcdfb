"""End-to-end evaluation flow of the paper's Fig. 8.

``CompressionPipeline`` wires the blocks together for a trainable proxy
model: the caller's selected layer -> *parameter extraction* ->
*compression (delta)* -> *decompression* -> *approximated network* ->
*test-set accuracy*, returning one record per delta value.  Compression
and decompression go through a :class:`~repro.core.model_store.ModelArchive`
(:func:`~repro.core.model_store.compress_model`, then
:meth:`~repro.core.model_store.ModelArchive.decode_layer`), the route
``apply()`` and serving take, so the accuracy a record reports is that
of the weights the serve path computes.  The latency/energy leg of
Fig. 8 (the simulation platform) lives in
:mod:`repro.mapping.accelerator`; :mod:`repro.experiments.fig10_tradeoff`
joins the two.

Compression goes through the :mod:`repro.core.codecs` registry, so the
same sweep runs under the paper's line-fit codec (the default), any of
the lossless baselines, or a composed chain — the Tab. III stacking
experiment is the ``"quantize-int8|<codec>"`` chain, which
``quantize_first=True`` builds automatically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..nn.graph import Model
from ..nn.train import EvalResult, evaluate
from ..obs import MetricsRegistry
from ..runtime import (
    GridTask,
    ResultCache,
    codec_spec,
    fingerprint_array,
    fingerprint_arrays,
    result_key,
    run_tasks,
)
from .codecs import Codec, CompressedBlob, get_codec
from .codecs.base import stream_mse
from .model_store import ModelArchive, compress_model

__all__ = ["DeltaRecord", "CompressionPipeline"]


@dataclass(frozen=True)
class DeltaRecord:
    """Accuracy outcome of one delta configuration (one Fig. 10 bar)."""

    delta_pct: float
    top1: float
    top5: float
    cr: float
    mse: float
    num_segments: int


def _layer_codec(
    codec: str | Codec, delta_pct: float, quantize_first: bool = False
) -> Codec:
    """Build the per-delta codec instance a sweep step uses.

    A :class:`Codec` instance passes through untouched (its parameters,
    including any tolerance, are fixed at construction).  A string spec
    is instantiated at ``delta_pct``; with ``quantize_first`` the spec
    is prefixed with the ``quantize-int8`` transform stage, and a
    line-fit terminal switches to the int8 storage format (6 bytes per
    segment against 1-byte weights — the Tab. III cost model).
    """
    if isinstance(codec, Codec):
        return codec
    params: dict = {"delta_pct": float(delta_pct)}
    if quantize_first:
        if codec.rsplit("|", 1)[-1].strip() == "linefit":
            params["fmt"] = "int8"
        codec = f"quantize-int8|{codec}"
    return get_codec(codec, **params)


def _sweep_point(pipeline: "CompressionPipeline", delta_pct: float) -> DeltaRecord:
    """One sweep grid point; module-level so process pools can pickle it.

    In-worker the pipeline is a private copy, so the mutate-and-restore
    inside :meth:`CompressionPipeline.run_delta` cannot race; serially
    it is the caller's object and ``run_delta`` restores it as always.
    """
    return pipeline.run_delta(delta_pct)


def _evaluate_archive(
    model: Model, archive: ModelArchive, x_test: np.ndarray, y_test: np.ndarray
) -> tuple[EvalResult, dict[str, np.ndarray]]:
    """Accuracy of ``model`` with ``archive``'s compressed layers installed.

    Each layer's weights come from :meth:`ModelArchive.decode_layer`,
    the path ``apply()`` and serving take.  Returns the evaluation and
    the decoded flat streams (layer -> weights); the model's own tensors
    are back in place on return.
    """
    o = obs.current()
    originals: dict[str, np.ndarray] = {}
    decoded: dict[str, np.ndarray] = {}
    try:
        with o.span("pipeline.decode", cat="pipeline"):
            for name, (_, shape) in archive.compressed.items():
                decoded[name], _ = archive.decode_layer(name)
                originals[name] = model.get_weights(name)
                model.set_weights(name, decoded[name].reshape(shape))
        with o.span("pipeline.evaluate", cat="pipeline"):
            return evaluate(model, x_test, y_test), decoded
    finally:
        for name, weights in originals.items():
            model.set_weights(name, weights)


class CompressionPipeline:
    """Fig. 8 flow for a trained proxy model.

    Parameters
    ----------
    model:
        A *trained* proxy model (training is the caller's business; see
        ``repro.experiments.common.trained_proxy``).
    x_test, y_test:
        Held-out evaluation data.
    layer_name:
        Compression target.  The experiments pass the zoo module's
        ``SELECTED_LAYER`` (Tab. I), the layer their simulation
        compresses.
    quantize_first:
        If True, the selected layer is int8-quantized before compression
        (the Tab. III stacking experiment): the sweep runs the
        ``"quantize-int8|<codec>"`` chain on the int8 value stream.
    codec:
        Registry spec of the compressor to sweep (default
        ``"linefit"``, the paper's).  Lossless baselines (``"huffman"``,
        ``"rle"``, ``"lz"``) run the identical flow with exact
        reconstruction — CR ~= 1 and unchanged accuracy, the
        quantitative form of the paper's Sec. III-B claim.
    """

    def __init__(
        self,
        model: Model,
        x_test: np.ndarray,
        y_test: np.ndarray,
        layer_name: str,
        quantize_first: bool = False,
        codec: str | Codec = "linefit",
    ) -> None:
        self.model = model
        self.x_test = x_test
        self.y_test = y_test
        self.layer_name = layer_name
        self.quantize_first = quantize_first
        self.codec = codec
        self.baseline = evaluate(model, x_test, y_test)
        self._fingerprint: dict | None = None

    def cache_fingerprint(self) -> dict:
        """Content identity of this sweep configuration.

        Everything a :class:`DeltaRecord` depends on besides the delta
        itself: the compressed layer's weight stream, the *full* model
        state (accuracy is a whole-model property), the evaluation set,
        and the codec configuration.  Computed once and reused for every
        grid point's :func:`repro.runtime.result_key`.
        """
        if self._fingerprint is None:
            state = self.model.state_dict()
            self._fingerprint = {
                "weights": fingerprint_array(
                    self.model.get_weights(self.layer_name)
                ),
                "model_state": fingerprint_arrays(
                    *(state[k] for k in sorted(state))
                ),
                "eval_set": fingerprint_arrays(self.x_test, self.y_test),
                "codec": codec_spec(self.codec),
                "quantize_first": bool(self.quantize_first),
                "fmt": None,
                "layer": self.layer_name,
            }
        return self._fingerprint

    def run_delta(self, delta_pct: float) -> DeltaRecord:
        """Evaluate one delta value; the model is restored afterwards.

        The layer is compressed into an archive and evaluated with the
        weights the archive decodes (:func:`_evaluate_archive`); the MSE
        is taken on that one decode.
        """
        o = obs.current()
        layer = self.layer_name
        with o.span(
            "pipeline.run_delta", cat="pipeline", delta_pct=delta_pct, layer=layer
        ):
            codec = _layer_codec(
                self.codec, delta_pct, quantize_first=self.quantize_first
            )
            with o.span("pipeline.encode", cat="pipeline"):
                archive = compress_model(
                    self.model, {layer: delta_pct}, include_state=False, codec=codec
                )
            result, decoded = _evaluate_archive(
                self.model, archive, self.x_test, self.y_test
            )
            mse = stream_mse(decoded[layer], self.model.get_weights(layer))
            blob = CompressedBlob.rebuild(
                archive.codecs[layer], archive.compressed[layer][0]
            )
            o.count("pipeline.deltas_evaluated")
            o.count("pipeline.compressed_bytes", blob.compressed_bytes)
        return DeltaRecord(
            delta_pct=delta_pct,
            top1=result.top1,
            top5=result.top5,
            cr=blob.compression_ratio,
            mse=mse,
            num_segments=blob.num_segments,
        )

    def sweep(
        self,
        delta_grid,
        jobs: int | None = None,
        cache: ResultCache | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> list[DeltaRecord]:
        """Run the full delta sweep of Tab. II / Fig. 10.

        Grid points are independent, so the sweep fans out over a
        process pool (``jobs=`` kwarg, else the ``REPRO_JOBS`` env var,
        else serial) and consults the content-addressed ``cache``
        before dispatch.  Serial, parallel, and warm-cache runs return
        identical records.
        """
        deltas = [float(d) for d in delta_grid]
        keys: list[str | None] = [None] * len(deltas)
        if cache is not None:
            base = self.cache_fingerprint()
            keys = [
                result_key("delta-record", delta_pct=d, **base) for d in deltas
            ]
        tasks = [
            GridTask(fn=_sweep_point, args=(self, d), key=k)
            for d, k in zip(deltas, keys)
        ]
        with obs.current().span(
            "pipeline.sweep",
            cat="pipeline",
            layer=self.layer_name,
            codec=str(self.codec),
            deltas=len(deltas),
        ):
            return run_tasks(tasks, jobs=jobs, cache=cache, metrics=metrics)
