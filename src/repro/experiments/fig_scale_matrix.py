"""Scale matrix — does the compression win survive a bigger NoC?

The paper evaluates one 4x4 mesh.  This scenario matrix re-runs the
flit-level accelerator on scaled substrates — 8x8 and 16x16 single-die
meshes, a Simba-like 2x2 package of 4x4 chiplets whose die-to-die links
cost extra cycles, and an odd-even-routed 8x8 — with the selected
LeNet-5 layer compressed vs. uncompressed on each.  The question per
scenario is the *ratio*: how much latency/energy does weight
compression buy once the network is bigger (more hops, more
communication latency to hide) or partitioned (boundary links slower)?

Expectations: the compressed/uncompressed latency ratio stays below one
everywhere (less data moved is less time everywhere); communication's
*share* of latency grows with mesh size, so scenarios with a larger
comm share lean harder on compression.

Every grid point is keyed and cacheable; with ``REPRO_SHARDS`` set (or
``shards=`` passed), the grid runs on the sharded, resumable runtime
(:mod:`repro.runtime.shard`) instead of the in-process pool — the
intended driver for matrix sweeps bigger than this one.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from ..analysis.report import render_table
from ..core.codecs import LineFitCodec
from ..core.segmentation import delta_from_percent
from ..mapping import Accelerator
from ..mapping.accelerator import AcceleratorConfig, ModelResult
from ..nn import zoo
from ..obs import MetricsRegistry
from ..runtime import (
    GridTask,
    ResultCache,
    fingerprint_array,
    result_key,
    run_tasks,
)

__all__ = ["SCENARIOS", "MatrixPoint", "run", "render", "main"]

#: the scenario axis: name -> AcceleratorConfig kwargs
SCENARIOS: dict[str, dict] = {
    "mesh-4x4": {"mesh_width": 4, "mesh_height": 4},
    "mesh-8x8": {"mesh_width": 8, "mesh_height": 8},
    "mesh-8x8/oe": {"mesh_width": 8, "mesh_height": 8, "routing": "odd-even"},
    "mesh-16x16": {"mesh_width": 16, "mesh_height": 16},
    # 3x3 dies, not 2x2: with memory interfaces at the package corners,
    # a 2x2 package keeps every nearest-corner flow on-die (each die
    # owns a corner) and the d2d penalty never fires; in a 3x3 package
    # the edge and center dies have no corner and must fetch across
    # boundaries, so the slow links actually carry the weight traffic
    "chiplet-3x3": {
        "mesh_width": 12,
        "mesh_height": 12,
        "topology": "chiplet",
        "chiplet_size": 4,
        "d2d_extra": 2,
    },
}

#: the compression arm: ``None`` = uncompressed, else delta percent
ARMS = (None, 10.0)


@dataclass(frozen=True)
class MatrixPoint:
    scenario: str
    delta_pct: float | None
    result: ModelResult


def _matrix_sim(scenario: str, pct: float | None, fast: bool) -> ModelResult:
    """One scenario x arm grid point on the flit-level simulator.

    Module-level and scalar-argued (the fig10 pattern) so pool and
    shard workers ship three scalars, not weight streams.  ``fast``
    trims the model to the selected layer — the layer whose stream the
    compression arm actually changes."""
    module = zoo.lenet5
    spec = module.full()
    layer = module.SELECTED_LAYER
    if fast:
        spec = dataclasses.replace(spec, layers=[spec.layer(layer)])
    acc = Accelerator(AcceleratorConfig(**SCENARIOS[scenario]))
    compression = None
    if pct is not None:
        weights = module.full().materialize(layer).ravel()
        delta = delta_from_percent(weights, pct)
        blob = LineFitCodec(delta=float(delta)).encode(weights)
        compression = {layer: blob}
    return acc.run_model(spec, compression, mode="flit")


def _default_shards() -> int | None:
    """Shard count from ``REPRO_SHARDS`` (unset/invalid -> in-process)."""
    raw = os.environ.get("REPRO_SHARDS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return None


def run(
    fast: bool = False,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    metrics: MetricsRegistry | None = None,
    shards: int | None = None,
    shard_workers: int = 1,
) -> list[MatrixPoint]:
    keys: list[str | None] = [None] * (len(SCENARIOS) * len(ARMS))
    grid = [(s, pct) for s in SCENARIOS for pct in ARMS]
    if cache is not None:
        module = zoo.lenet5
        fp = fingerprint_array(
            module.full().materialize(module.SELECTED_LAYER).ravel()
        )
        keys = [
            result_key(
                "scale-matrix",
                scenario=s,
                delta_pct=pct,
                fast=bool(fast),
                codec="linefit",
                weights=fp,
            )
            for s, pct in grid
        ]
    tasks = [
        GridTask(fn=_matrix_sim, args=(s, pct, fast), key=k)
        for (s, pct), k in zip(grid, keys)
    ]
    if shards is None:
        shards = _default_shards()
    if shards is not None and cache is None:
        shards = None  # sharding moves results through the cache
    results = run_tasks(
        tasks,
        jobs=jobs,
        cache=cache,
        metrics=metrics,
        shards=shards,
        shard_workers=shard_workers,
    )
    return [
        MatrixPoint(scenario=s, delta_pct=pct, result=r)
        for (s, pct), r in zip(grid, results)
    ]


def render(results: list[MatrixPoint]) -> str:
    base: dict[str, ModelResult] = {
        p.scenario: p.result for p in results if p.delta_pct is None
    }
    rows = []
    for p in results:
        lat = p.result.total_latency
        en = p.result.total_energy
        b = base[p.scenario]
        rows.append(
            [
                p.scenario,
                "orig" if p.delta_pct is None else f"x-{p.delta_pct:.0f}",
                f"{lat.total}",
                f"{lat.communication / lat.total:.3f}",
                f"{lat.total / b.total_latency.total:.3f}",
                f"{en.total / b.total_energy.total:.3f}",
            ]
        )
    return render_table(
        [
            "scenario",
            "config",
            "latency (cyc)",
            "comm share",
            "norm latency",
            "norm energy",
        ],
        rows,
        title="Scale matrix — compression on/off across NoC topologies",
    )


def main() -> list[MatrixPoint]:  # pragma: no cover - CLI entry
    results = run()
    print(render(results))
    return results


if __name__ == "__main__":  # pragma: no cover
    main()
