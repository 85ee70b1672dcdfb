"""Multi-layer compression with per-layer tolerance selection.

The paper compresses a single layer and leaves as future work "a
technique aimed at selecting the set of layers to be compressed and,
for each of them, the appropriate compression level to be used
according to the most profitable energy/latency/accuracy trade-off"
(Sec. V).  This module implements that technique for proxy models:

1. **Candidate generation** — for every parametric layer and every
   delta in a grid, compress the layer alone and measure (a) the
   footprint saving on the *full-scale* architecture and (b) the
   accuracy drop on the proxy's test set.
2. **Greedy assembly** — add (layer, delta) assignments in order of
   saving per unit accuracy-drop, re-measuring the *joint* accuracy
   after each addition (per-layer drops do not compose additively;
   the greedy re-check keeps the result feasible), until the accuracy
   budget is exhausted or no candidate helps.

Every accuracy, solo or joint, is measured through a
:class:`~repro.core.model_store.ModelArchive` built from the untouched
model (``compress_model`` -> ``decode_layer``, the route serving
takes), so the model is never left compressed between steps.  The
greedy loop encodes each (layer, delta) once, into a single-layer
archive, and evaluates a trial with those archives' layers installed
together.

The output maps layer names to delta values, directly consumable by
``Accelerator.run_model`` via per-layer ``CompressionEffect``s.  The
compressor is pluggable: any :mod:`repro.core.codecs` spec works, with
the paper's ``"linefit"`` as the default.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..nn.arch import ArchSpec
from ..nn.graph import Model
from ..nn.train import evaluate
from ..obs import MetricsRegistry
from ..runtime import (
    GridTask,
    ResultCache,
    codec_spec,
    fingerprint_arrays,
    result_key,
    run_tasks,
)
from .codecs import Codec, get_codec
from .model_store import ModelArchive, compress_model
from .pipeline import _evaluate_archive

__all__ = ["Candidate", "MultiLayerPlan", "optimize_multilayer"]


@dataclass(frozen=True)
class Candidate:
    layer: str
    delta_pct: float
    #: bytes saved on the full-scale model
    saving_bytes: int
    #: accuracy drop measured with this candidate applied alone
    solo_drop: float


@dataclass
class MultiLayerPlan:
    """Result of the optimizer."""

    assignments: dict[str, float]  # layer -> delta_pct
    accuracy: float
    baseline_accuracy: float
    saving_bytes: int
    total_bytes: int

    @property
    def footprint_reduction(self) -> float:
        return self.saving_bytes / self.total_bytes if self.total_bytes else 0.0

    @property
    def accuracy_drop(self) -> float:
        return self.baseline_accuracy - self.accuracy


def _top_k(res, top_k: int) -> float:
    return res.top1 if top_k == 1 else res.top5


def _archived_accuracy(
    model: Model,
    x_test: np.ndarray,
    y_test: np.ndarray,
    top_k: int,
    assignments: dict[str, float],
    codec: str | Codec,
) -> float:
    """Accuracy with ``assignments`` (layer -> delta) compressed together.

    The layers go through one archive and come back restored.
    Module-level so candidate generation can fan out over a process
    pool; in-worker the model is a pickled private copy.
    """
    archive = compress_model(model, assignments, include_state=False, codec=codec)
    res, _ = _evaluate_archive(model, archive, x_test, y_test)
    return _top_k(res, top_k)


def _layer_savings(
    spec: ArchSpec, layer: str, deltas: tuple[float, ...], codec: str | Codec, seed: int
) -> list[int]:
    """Full-scale footprint savings of one layer across a delta grid.

    Grouped per layer so the expensive ``materialize`` runs once per
    task, whatever the grid size (the role the old in-process memoizer
    played, now compatible with pool fan-out).
    """
    weights = spec.materialize(layer, seed=seed).ravel()
    savings = []
    for delta_pct in deltas:
        codec_obj = (
            codec
            if isinstance(codec, Codec)
            else get_codec(codec, delta_pct=float(delta_pct))
        )
        blob = codec_obj.encode(weights)
        savings.append(max(0, blob.original_bytes - blob.compressed_bytes))
    return savings


def optimize_multilayer(
    model: Model,
    spec: ArchSpec,
    x_test: np.ndarray,
    y_test: np.ndarray,
    max_accuracy_drop: float,
    delta_grid=(5.0, 10.0, 15.0, 20.0),
    top_k: int = 1,
    min_depth_fraction: float = 0.4,
    seed: int = 0,
    codec: str | Codec = "linefit",
    jobs: int | None = None,
    cache: ResultCache | None = None,
    metrics: MetricsRegistry | None = None,
) -> MultiLayerPlan:
    """Greedy multi-layer delta assignment under an accuracy budget.

    ``model`` is the trained proxy (accuracy oracle); ``spec`` is the
    full-scale architecture (footprint accounting).  Only layers present
    in *both* and deep enough (per ``min_depth_fraction``, following the
    sensitivity analysis) are considered.  ``codec`` selects the
    compressor from the :mod:`repro.core.codecs` registry.

    Candidate generation — the ``(layer x delta)`` solo-accuracy grid
    and the per-layer full-scale savings — fans out over the
    :mod:`repro.runtime` pool and result cache; the greedy assembly
    stays serial (each step depends on the previous acceptance).
    """
    if max_accuracy_drop < 0:
        raise ValueError("max_accuracy_drop must be non-negative")
    baseline = _top_k(evaluate(model, x_test, y_test), top_k)

    full_layers = {l.name: l for l in spec.parametric_layers()}
    max_depth = max(l.depth for l in full_layers.values())
    depth_cut = min_depth_fraction * max_depth
    eligible = [
        name
        for name, layer in model.parametric_layers()
        if name in full_layers and full_layers[name].depth >= depth_cut
    ]
    if not eligible:
        raise ValueError("no eligible layers shared between proxy and spec")

    # 1a. solo accuracy of every (layer, delta) grid point
    grid = [(name, float(delta)) for name in eligible for delta in delta_grid]
    acc_base: dict | None = None
    if cache is not None:
        state = model.state_dict()
        acc_base = {
            "model_state": fingerprint_arrays(*(state[k] for k in sorted(state))),
            "eval_set": fingerprint_arrays(x_test, y_test),
            "codec": codec_spec(codec),
            "top_k": int(top_k),
        }
    acc_tasks = [
        GridTask(
            fn=_archived_accuracy,
            args=(model, x_test, y_test, top_k, {name: delta}, codec),
            key=result_key("solo-acc", layer=name, delta_pct=delta, **acc_base)
            if acc_base is not None
            else None,
        )
        for name, delta in grid
    ]
    solo_acc = dict(
        zip(grid, run_tasks(acc_tasks, jobs=jobs, cache=cache, metrics=metrics))
    )
    drops = {point: baseline - acc for point, acc in solo_acc.items()}

    # 1b. full-scale savings, only for the feasible grid points, grouped
    # per layer so each task materializes its layer once
    feasible: dict[str, list[float]] = {}
    for name, delta in grid:
        if drops[(name, delta)] <= max_accuracy_drop:
            feasible.setdefault(name, []).append(delta)
    saving_tasks = [
        GridTask(
            fn=_layer_savings,
            args=(spec, name, tuple(deltas), codec, seed),
            # savings are generator-addressed: ``materialize`` is
            # deterministic in (spec, layer, seed), so those stand in
            # for the full-scale stream bytes
            key=result_key(
                "fullscale-savings",
                spec=spec.name,
                total_params=spec.total_params,
                layer=name,
                deltas=tuple(deltas),
                codec=codec_spec(codec),
                seed=int(seed),
            )
            if cache is not None
            else None,
        )
        for name, deltas in feasible.items()
    ]
    layer_savings = run_tasks(saving_tasks, jobs=jobs, cache=cache, metrics=metrics)
    saving_lookup: dict[tuple[str, float], int] = {}
    for (name, deltas), savings in zip(feasible.items(), layer_savings):
        for delta, saving in zip(deltas, savings):
            saving_lookup[(name, delta)] = int(saving)

    candidates = [
        Candidate(
            layer=name,
            delta_pct=delta,
            saving_bytes=saving_lookup[(name, delta)],
            solo_drop=drops[(name, delta)],
        )
        for name, delta in grid
        if (name, delta) in saving_lookup
    ]
    # best (highest saving) candidate per layer first, ranked by
    # saving per unit of (clamped) solo drop
    candidates.sort(
        key=lambda c: c.saving_bytes / (max(c.solo_drop, 0.0) + 1e-3),
        reverse=True,
    )

    # 2. greedy assembly with joint re-measurement; each (layer, delta)
    # is encoded once, into a single-layer archive a trial shares
    encoded: dict[tuple[str, float], ModelArchive] = {}
    assignments: dict[str, float] = {}
    current_acc = baseline
    for cand in candidates:
        if cand.layer in assignments and assignments[cand.layer] >= cand.delta_pct:
            continue
        # the accepted set plus this candidate (possibly replacing a
        # milder delta of the same layer)
        trial = {**assignments, cand.layer: cand.delta_pct}
        joint = ModelArchive(assignments=trial, compressed={}, raw={})
        for point in trial.items():
            if point not in encoded:
                # the raw copies of the other layers are never read
                encoded[point] = replace(
                    compress_model(model, dict([point]), include_state=False, codec=codec),
                    raw={},
                )
            joint.compressed.update(encoded[point].compressed)
            joint.codecs.update(encoded[point].codecs)
        acc = _top_k(_evaluate_archive(model, joint, x_test, y_test)[0], top_k)
        if baseline - acc <= max_accuracy_drop:
            assignments, current_acc = trial, acc

    saving = sum(
        saving_lookup[(name, delta)] for name, delta in assignments.items()
    )
    return MultiLayerPlan(
        assignments=assignments,
        accuracy=current_acc,
        baseline_accuracy=baseline,
        saving_bytes=saving,
        total_bytes=spec.total_params * 4,
    )
