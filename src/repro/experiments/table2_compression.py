"""Tab. II — compression efficiency per model and tolerance threshold.

For every zoo model: materialize the selected layer, sweep the paper's
delta grid, and report CR, weighted CR, memory-footprint reduction and
MSE — the exact columns of Tab. II.

In fast mode the two largest streams (VGG-16's 102.8M and AlexNet's
16.8M weights) are evaluated on a slice, with the tolerance still
derived from the *full* stream's range (the range is pinned by the
tail outliers, so a slice alone would misestimate it).

Each sweep also carries a cross-codec comparison: the selected layer's
stream pushed through every baseline codec in the registry at the
paper's zero-tolerance anchor.  The lossless baselines land at CR ~= 1
(or below — RLE *expands* weight streams) while the line-fit codec
already reaches ~1.21, the quantitative form of the paper's Sec. III-B
argument for a bespoke compressor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.report import render_table
from ..core.codecs import get_codec
from ..core.compression import StorageFormat
from ..core.metrics import CompressionReport, layer_report
from ..core.segmentation import delta_from_percent
from ..nn import zoo
from ..obs import MetricsRegistry
from ..runtime import (
    GridTask,
    ResultCache,
    fingerprint_array,
    result_key,
    run_tasks,
)

__all__ = ["ModelSweep", "cross_codec_crs", "run", "render", "main", "PAPER"]

#: the paper's Tab. II (delta% -> (CR, weighted CR, mem fp %, MSE))
PAPER: dict[str, dict[float, tuple[float, float, int, float]]] = {
    "LeNet-5": {
        0: (1.21, 1.17, 14, 5.90e-5), 5: (1.38, 1.30, 24, 8.80e-5),
        10: (1.74, 1.58, 39, 1.38e-4), 15: (2.50, 2.17, 57, 2.01e-4),
        20: (4.02, 3.36, 74, 2.55e-4),
    },
    "AlexNet": {
        0: (1.21, 1.15, 12, 9.23e-7), 5: (1.51, 1.35, 24, 1.69e-6),
        10: (2.38, 1.97, 41, 3.04e-6), 15: (4.77, 3.63, 55, 4.25e-6),
        20: (11.44, 8.28, 64, 4.96e-6),
    },
    "VGG-16": {
        0: (1.21, 1.16, 13, 3.63e-8), 2: (1.43, 1.32, 22, 5.62e-8),
        4: (1.94, 1.70, 36, 8.97e-8), 6: (3.04, 2.51, 50, 1.25e-7),
        8: (5.28, 4.18, 61, 1.57e-7),
    },
    "MobileNet": {
        0: (1.21, 1.05, 4, 1.40e-5), 2: (1.42, 1.10, 7, 2.06e-5),
        4: (1.87, 1.21, 11, 3.20e-5), 6: (2.74, 1.42, 15, 4.49e-5),
        8: (4.31, 1.80, 19, 5.59e-5),
    },
    "Inception-v3": {
        0: (1.22, 1.02, 2, 4.16e-6), 5: (1.65, 1.06, 3, 7.97e-6),
        10: (2.82, 1.16, 5, 1.37e-5), 15: (5.46, 1.38, 7, 1.83e-5),
        20: (11.42, 1.89, 8, 2.12e-5),
    },
    "ResNet50": {
        0: (1.21, 1.02, 2, 4.40e-6), 2: (1.76, 1.06, 4, 8.03e-6),
        4: (3.31, 1.18, 6, 1.33e-5), 6: (6.57, 1.45, 7, 1.71e-5),
        8: (12.79, 1.94, 8, 1.95e-5),
    },
}

_FAST_SLICE = 4_000_000

#: codecs of the comparison column, with per-codec byte caps keeping the
#: pure-Python baselines affordable (CR is stable well below these)
_CODEC_COLUMN: dict[str, int | None] = {
    "linefit": None,
    "huffman": 1 << 18,
    "rle": 1 << 20,
    "lz": 1 << 14,
}


@dataclass(frozen=True)
class ModelSweep:
    model: str
    layer: str
    reports: list[CompressionReport]
    #: codec name -> CR on the selected layer's stream at delta = 0
    codec_crs: dict[str, float] = field(default_factory=dict)


def cross_codec_crs(
    weights: np.ndarray, codecs: dict[str, int | None] = _CODEC_COLUMN
) -> dict[str, float]:
    """CR of each registry codec on one stream, at zero tolerance.

    ``codecs`` maps names to an optional byte cap (the stream is sliced
    before encoding; ``None`` encodes it whole).
    """
    crs = {}
    for name, cap in codecs.items():
        stream = weights
        if cap is not None and stream.nbytes > cap:
            stream = stream[: max(1, cap // stream.itemsize)]
        blob = get_codec(name, delta_pct=0.0).encode(stream)
        crs[name] = blob.compression_ratio
    return crs


def _layer_stream(module, seed: int, fast: bool):
    """(full weights, evaluation stream) of the selected layer.

    Workers re-derive this from ``(model name, seed, fast)`` —
    ``ArchSpec.materialize`` is deterministic, so shipping three scalars
    to a pool worker beats pickling a multi-hundred-MB stream per task.
    """
    spec = module.full()
    weights = spec.materialize(module.SELECTED_LAYER, seed=seed).ravel()
    stream = weights
    if fast and weights.size > _FAST_SLICE:
        stream = weights[:_FAST_SLICE]
    return spec, weights, stream


def _tab2_report(
    model_name: str, seed: int, fast: bool, pct: float
) -> CompressionReport:
    """One Tab. II grid point (module-level: pool-picklable)."""
    module = zoo.BY_NAME[model_name]
    spec, weights, stream = _layer_stream(module, seed, fast)
    total_params = spec.total_params
    layer_params = weights.size
    # the tolerance comes from the range of the FULL stream
    codec = get_codec("linefit", delta=delta_from_percent(weights, pct))
    blob = codec.encode(stream)
    report = layer_report(
        blob,
        codec.reconstruction_mse(blob, stream),
        total_params=total_params,
        delta_pct=pct,
    )
    if stream.size != layer_params:
        # rescale the whole-model figures for the sliced evaluation
        from ..core.metrics import footprint_ratio, param_weighted_cr

        fp = footprint_ratio(total_params, layer_params, report.cr)
        report = CompressionReport(
            delta_pct=pct,
            cr=report.cr,
            weighted_cr=param_weighted_cr(total_params, layer_params, report.cr),
            mem_fp_reduction=1 - 1 / fp,
            mse=report.mse,
        )
    return report


def _tab2_codec_cr(
    model_name: str, seed: int, fast: bool, codec_name: str, cap: int | None
) -> float:
    """One cross-codec comparison cell (module-level: pool-picklable)."""
    module = zoo.BY_NAME[model_name]
    _, _, stream = _layer_stream(module, seed, fast)
    return cross_codec_crs(stream, {codec_name: cap})[codec_name]


def sweep_model(
    module,
    fast: bool = False,
    seed: int = 0,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    metrics: MetricsRegistry | None = None,
) -> ModelSweep:
    deltas = [float(pct) for pct in module.DELTA_GRID]
    report_keys: list[str | None] = [None] * len(deltas)
    codec_keys: list[str | None] = [None] * len(_CODEC_COLUMN)
    if cache is not None:
        _, weights, _ = _layer_stream(module, seed, fast)
        base = {
            "weights": fingerprint_array(weights),
            "fast": bool(fast),
            "fmt": StorageFormat(),
        }
        report_keys = [
            result_key("tab2-report", delta_pct=pct, codec="linefit", **base)
            for pct in deltas
        ]
        codec_keys = [
            result_key("tab2-codec-cr", codec=name, cap=cap, **base)
            for name, cap in _CODEC_COLUMN.items()
        ]
    tasks = [
        GridTask(fn=_tab2_report, args=(module.NAME, seed, fast, pct), key=k)
        for pct, k in zip(deltas, report_keys)
    ] + [
        GridTask(fn=_tab2_codec_cr, args=(module.NAME, seed, fast, name, cap), key=k)
        for (name, cap), k in zip(_CODEC_COLUMN.items(), codec_keys)
    ]
    results = run_tasks(tasks, jobs=jobs, cache=cache, metrics=metrics)
    reports = results[: len(deltas)]
    codec_crs = dict(zip(_CODEC_COLUMN, results[len(deltas) :]))
    return ModelSweep(
        model=module.NAME,
        layer=module.SELECTED_LAYER,
        reports=reports,
        codec_crs=codec_crs,
    )


def run(
    fast: bool = False,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    metrics: MetricsRegistry | None = None,
) -> list[ModelSweep]:
    return [
        sweep_model(m, fast=fast, jobs=jobs, cache=cache, metrics=metrics)
        for m in zoo.ALL_MODELS
    ]


def render(sweeps: list[ModelSweep]) -> str:
    rows = []
    for sweep in sweeps:
        for r in sweep.reports:
            paper = PAPER[sweep.model].get(r.delta_pct)
            rows.append(
                [
                    sweep.model,
                    f"{r.delta_pct:.0f}%",
                    f"{r.cr:.2f}",
                    f"{paper[0]:.2f}" if paper else "-",
                    f"{r.weighted_cr:.2f}",
                    f"{paper[1]:.2f}" if paper else "-",
                    f"{100 * r.mem_fp_reduction:.0f}%",
                    f"{paper[2]}%" if paper else "-",
                    f"{r.mse:.2e}",
                    f"{paper[3]:.2e}" if paper else "-",
                ]
            )
    table = render_table(
        ["model", "delta", "CR", "(paper)", "wCR", "(paper)",
         "mem-fp", "(paper)", "MSE", "(paper)"],
        rows,
        title="Tab. II — compression efficiency for different tolerance thresholds",
    )
    codec_sweeps = [s for s in sweeps if s.codec_crs]
    if not codec_sweeps:
        return table
    names = list(codec_sweeps[0].codec_crs)
    codec_rows = [
        [s.model] + [f"{s.codec_crs.get(n, float('nan')):.3f}" for n in names]
        for s in codec_sweeps
    ]
    comparison = render_table(
        ["model"] + names,
        codec_rows,
        title="Cross-codec CR at delta = 0 (Sec. III-B: lossless baselines ~1)",
    )
    return table + "\n\n" + comparison


def main() -> list[ModelSweep]:  # pragma: no cover - CLI entry
    sweeps = run()
    print(render(sweeps))
    return sweeps


if __name__ == "__main__":  # pragma: no cover
    main()
