"""Fig. 10 — accuracy vs inference latency and energy, per model and delta.

The paper's central result: for each of the six networks, sweeping the
tolerance delta trades accuracy for normalized inference latency and
energy.  Two instruments are combined, as in the evaluation flow of
Fig. 8:

* **accuracy** comes from the trained *proxy* network: the selected
  layer (the zoo module's ``SELECTED_LAYER``) is compressed into an
  archive at each delta, decoded the way serving decodes it, and the
  test accuracy measured (``repro.core.pipeline``);
* **latency/energy** come from the accelerator simulation of the
  *full-scale* architecture, with the same layer's weight stream
  compressed at the same delta (flit-level for LeNet-5, transaction
  model for the large networks).

So every point pairs the accuracy and the latency of one layer's
compression.

Reproduction targets: latency and energy fall monotonically with delta
(strongly for LeNet/AlexNet/VGG, weakly for MobileNet/Inception/ResNet
whose selected layer is a small parameter fraction), while accuracy is
flat for small deltas and collapses for large ones.
"""

from __future__ import annotations

from dataclasses import dataclass


from ..analysis.report import render_table
from ..core.codecs import LineFitCodec
from ..core.pareto import DesignPoint, pareto_front
from ..core.pipeline import CompressionPipeline, _sweep_point
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
from .common import trained_proxy

__all__ = ["TradeoffPoint", "ModelTradeoff", "run", "render", "main"]

_FAST_SLICE = 4_000_000


@dataclass(frozen=True)
class TradeoffPoint:
    delta_pct: float
    accuracy: float
    norm_latency: float
    norm_energy: float
    latency_parts: dict[str, float]
    energy_parts: dict[str, float]


@dataclass(frozen=True)
class ModelTradeoff:
    model: str
    layer: str
    baseline_accuracy: float
    points: list[TradeoffPoint]

    def design_points(self) -> list[DesignPoint]:
        return [
            DesignPoint(
                label=f"x-{p.delta_pct:.0f}",
                accuracy=p.accuracy,
                latency=p.norm_latency,
                energy=p.norm_energy,
            )
            for p in self.points
        ]


def _accuracy_of(record, top_k: int) -> float:
    return record.top1 if top_k == 1 else record.top5


def _sim_mode(module, fast: bool) -> str:
    return "flit" if (module is zoo.lenet5 and not fast) else "txn"


def _fig10_sim(
    model_name: str, pct: float | None, fast: bool, streamed: bool = False
) -> ModelResult:
    """Accelerator latency/energy of one grid point (``pct=None`` is the
    uncompressed baseline).  Module-level and re-deriving everything
    from ``(model name, pct, fast, streamed)``, so pool tasks ship four
    scalars instead of a full-scale weight stream.
    """
    module = zoo.BY_NAME[model_name]
    spec = module.full()
    layer = module.SELECTED_LAYER
    acc_sim = Accelerator(AcceleratorConfig(streamed_decode=streamed))
    mode = _sim_mode(module, fast)
    if pct is None:
        return acc_sim.run_model(spec, mode=mode)

    # full-scale stream -> compression effect -> latency/energy
    # (absolute delta from the FULL stream's range; see Tab. II note)
    weights = spec.materialize(layer).ravel()
    stream_src = weights
    if fast and weights.size > _FAST_SLICE:
        stream_src = weights[:_FAST_SLICE]
    delta = delta_from_percent(weights, pct)
    blob = LineFitCodec(delta=float(delta)).encode(stream_src)
    eff = acc_sim.compression_effect(blob)
    if stream_src.size != weights.size:
        # scale segment count up to the full stream for the effect
        scale = weights.size / stream_src.size
        eff = type(eff)(
            cr=eff.cr,
            segments_total=int(eff.segments_total * scale),
            units_per_pe=eff.units_per_pe,
            streamed=eff.streamed,
        )
    return acc_sim.run_model(spec, {layer: eff}, mode=mode)


def tradeoff_for(
    module,
    fast: bool = False,
    seed: int = 7,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    metrics: MetricsRegistry | None = None,
    streamed: bool = False,
) -> ModelTradeoff:
    layer = module.SELECTED_LAYER
    model, split = trained_proxy(module, seed=seed, fast=fast)
    pipeline = CompressionPipeline(model, split.x_test, split.y_test, layer)
    top_k = module.TOP_K
    baseline_acc = _accuracy_of(pipeline.baseline, top_k)

    deltas = [float(pct) for pct in module.DELTA_GRID]
    sim_keys: list[str | None] = [None] * (1 + len(deltas))
    acc_keys: list[str | None] = [None] * len(deltas)
    if cache is not None:
        weights = module.full().materialize(layer).ravel()
        sim_base = {
            "weights": fingerprint_array(weights),
            "fast": bool(fast),
            "mode": _sim_mode(module, fast),
            "codec": "linefit",
            "layer": layer,
            "streamed": bool(streamed),
        }
        sim_keys = [
            result_key("accel-run", delta_pct=pct, **sim_base)
            for pct in (None, *deltas)
        ]
        acc_base = pipeline.cache_fingerprint()
        # same key space as CompressionPipeline.sweep: the accuracy leg
        # of Fig. 10 shares cache entries with standalone sweeps
        acc_keys = [
            result_key("delta-record", delta_pct=pct, **acc_base) for pct in deltas
        ]

    # one grid: the baseline run, per-delta accelerator runs, and
    # per-delta proxy evaluations all fan out together
    tasks = [
        GridTask(fn=_fig10_sim, args=(module.NAME, pct, fast, streamed), key=k)
        for pct, k in zip((None, *deltas), sim_keys)
    ] + [
        GridTask(fn=_sweep_point, args=(pipeline, pct), key=k)
        for pct, k in zip(deltas, acc_keys)
    ]
    results = run_tasks(tasks, jobs=jobs, cache=cache, metrics=metrics)
    base, sims = results[0], results[1 : 1 + len(deltas)]
    records = results[1 + len(deltas) :]
    base_lat = base.total_latency.total
    base_en = base.total_energy.total

    points = []
    for pct, res, record in zip(deltas, sims, records):
        lat = res.total_latency
        en = res.total_energy
        points.append(
            TradeoffPoint(
                delta_pct=pct,
                accuracy=_accuracy_of(record, top_k),
                norm_latency=lat.total / base_lat,
                norm_energy=en.total / base_en,
                latency_parts={
                    "memory": lat.memory / base_lat,
                    "communication": lat.communication / base_lat,
                    "computation": lat.computation / base_lat,
                },
                energy_parts={
                    **{f"{k} (dyn)": v / base_en for k, v in en.dynamic.items()},
                    **{f"{k} (leak)": v / base_en for k, v in en.leakage.items()},
                },
            )
        )
    return ModelTradeoff(
        model=module.NAME,
        layer=layer,
        baseline_accuracy=baseline_acc,
        points=points,
    )


def run(
    fast: bool = False,
    models=None,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    metrics: MetricsRegistry | None = None,
    streamed: bool = False,
) -> list[ModelTradeoff]:
    modules = models if models is not None else zoo.ALL_MODELS
    return [
        tradeoff_for(
            m, fast=fast, jobs=jobs, cache=cache, metrics=metrics, streamed=streamed
        )
        for m in modules
    ]


def render(results: list[ModelTradeoff]) -> str:
    rows = []
    for r in results:
        rows.append([r.model, "orig", f"{r.baseline_accuracy:.4f}", "1.000", "1.000", ""])
        front = {p.label for p in pareto_front(r.design_points())}
        for p in r.points:
            label = f"x-{p.delta_pct:.0f}"
            rows.append(
                [
                    r.model,
                    label,
                    f"{p.accuracy:.4f}",
                    f"{p.norm_latency:.3f}",
                    f"{p.norm_energy:.3f}",
                    "pareto" if label in front else "",
                ]
            )
    return render_table(
        ["model", "config", "accuracy", "norm latency", "norm energy", ""],
        rows,
        title="Fig. 10 — accuracy vs normalized inference latency and energy",
    )


def render_detail(results: list[ModelTradeoff]) -> str:
    """The stacked-bar form of Fig. 10: per-delta latency and energy
    breakdowns, normalized to the uncompressed model."""
    from ..analysis.breakdown import LayerBars
    from ..analysis.report import render_bars

    charts = []
    for r in results:
        lat_bars = [
            LayerBars(label=f"x-{p.delta_pct:.0f}", parts=dict(p.latency_parts))
            for p in r.points
        ]
        en_bars = [
            LayerBars(label=f"x-{p.delta_pct:.0f}", parts=dict(p.energy_parts))
            for p in r.points
        ]
        charts.append(
            render_bars(
                lat_bars,
                title=f"Fig. 10 — {r.model}: normalized latency breakdown "
                f"(baseline accuracy {r.baseline_accuracy:.4f})",
            )
        )
        charts.append(
            render_bars(en_bars, title=f"Fig. 10 — {r.model}: normalized energy breakdown")
        )
    return "\n\n".join(charts)


def main() -> list[ModelTradeoff]:  # pragma: no cover - CLI entry
    results = run()
    print(render(results))
    return results


if __name__ == "__main__":  # pragma: no cover
    main()
