"""Benches for the paper's extension/future-work features.

* multi-layer compression with per-layer delta selection (Sec. V
  future work, implemented in ``repro.core.multilayer``);
* stacking on magnitude pruning (Sec. I contribution 2);
* lossless-baseline comparison (Sec. III-B motivation).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.entropy import english_like_text
from repro.analysis.report import render_table
from repro.baselines import huffman_ratio, lz_ratio, rle_ratio
from repro.core import get_codec
from repro.core.multilayer import optimize_multilayer
from repro.core.pruning import prune_magnitude, pruned_footprint_bytes
from repro.experiments.common import trained_proxy
from repro.nn import zoo


def test_multilayer_optimizer(benchmark, fast_mode, save_artifact):
    """Future work: multi-layer delta assignment under an accuracy budget."""
    model, split = trained_proxy(zoo.lenet5, fast=fast_mode)
    spec = zoo.lenet5.full()

    def run():
        rows = []
        for budget in (0.02, 0.05, 0.10):
            plan = optimize_multilayer(
                model,
                spec,
                split.x_test,
                split.y_test,
                max_accuracy_drop=budget,
            )
            rows.append(
                [
                    f"{budget:.0%}",
                    ", ".join(f"{k}@{v:.0f}%" for k, v in plan.assignments.items())
                    or "(none)",
                    f"{plan.footprint_reduction:.1%}",
                    f"{plan.accuracy_drop:.4f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_artifact(
        "extension_multilayer",
        render_table(
            ["accuracy budget", "assignments", "footprint reduction", "measured drop"],
            rows,
            title="Extension — multi-layer compression (paper future work), LeNet-5",
        ),
    )
    # reductions grow with the budget; every measured drop stays within it
    reductions = [float(r[2].rstrip("%")) for r in rows]
    assert reductions == sorted(reductions)
    for r in rows:
        assert float(r[3]) <= float(r[0].rstrip("%")) / 100 + 1e-9


def test_pruning_stacking(benchmark, save_artifact):
    """Contribution 2: the compressor applies on top of pruning."""
    spec = zoo.lenet5.full()
    w = spec.materialize("dense_1").ravel()

    def run():
        rows = []
        for sparsity in (0.0, 0.5, 0.8, 0.9):
            pt = prune_magnitude(w, sparsity)
            blob = get_codec("linefit", delta_pct=15.0).encode(pt.values)
            rows.append(
                [
                    f"{sparsity:.0%}",
                    f"{pruned_footprint_bytes(pt):,}",
                    f"{blob.compressed_bytes:,}",
                    f"{blob.compression_ratio:.2f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_artifact(
        "extension_pruning_stacking",
        render_table(
            ["sparsity", "bitmap+values bytes", "compressed bytes", "CR (delta=15%)"],
            rows,
            title="Extension — compression on top of magnitude pruning (dense_1)",
        ),
    )
    crs = [float(r[3]) for r in rows]
    assert crs == sorted(crs)  # more sparsity, longer zero runs, better CR
    assert crs[-1] > 1.8 * crs[0]


def test_lossless_baselines_fail_on_weights(benchmark, save_artifact):
    """Sec. III-B, quantified: RLE/Huffman/LZ vs the proposed compressor."""
    spec = zoo.lenet5.full()
    w = spec.materialize("dense_1").ravel()
    wbytes = np.ascontiguousarray(w).view(np.uint8).tobytes()
    text = english_like_text(len(wbytes) // 4)

    def run():
        return [
            ["RLE", f"{rle_ratio(wbytes):.3f}", f"{rle_ratio(text):.3f}"],
            ["Huffman", f"{huffman_ratio(wbytes):.3f}", f"{huffman_ratio(text):.3f}"],
            ["LZSS", f"{lz_ratio(wbytes):.3f}", f"{lz_ratio(text):.3f}"],
            [
                "proposed (delta=15%, lossy)",
                f"{get_codec('linefit', delta_pct=15.0).encode(w).compression_ratio:.3f}",
                "-",
            ],
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_artifact(
        "extension_lossless_baselines",
        render_table(
            ["compressor", "CR on weights", "CR on text"],
            rows,
            title="Motivation — traditional compressors vs the weight stream",
        ),
    )
    for name, cr_w, _ in rows[:3]:
        assert float(cr_w) < 1.25, name
    assert float(rows[3][1]) > 2.0


def test_activation_compression(benchmark, fast_mode, save_artifact):
    """Extension: the codec on activation streams — high CRs thanks to
    ReLU zero runs, but real accuracy cost even at delta=0, supporting
    the paper's weights-only design choice."""
    from repro.core.activation_compression import (
        activation_cr_profile,
        evaluate_with_compressed_activations,
    )
    from repro.nn.train import evaluate

    model, split = trained_proxy(zoo.lenet5, fast=fast_mode)
    base = evaluate(model, split.x_test, split.y_test).top1

    def run():
        rows = []
        for delta in (0.0, 1.0, 3.0):
            profiles = activation_cr_profile(
                model, split.x_test[:64], delta_pct=delta
            )
            mean_cr = float(np.mean([p.cr for p in profiles]))
            acc = evaluate_with_compressed_activations(
                model, split.x_test, split.y_test, delta_pct=delta
            )
            rows.append([f"{delta:.0f}%", f"{mean_cr:.2f}", f"{acc:.4f}"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_artifact(
        "extension_activation_compression",
        render_table(
            ["delta", "mean activation CR", "top-1"],
            rows,
            title=f"Extension — activation-stream compression (LeNet-5, "
            f"baseline {base:.4f})",
        ),
    )
    # high compressibility (zero runs) but accuracy already pays at 0%
    assert float(rows[0][1]) > 1.5
    assert float(rows[0][2]) < base
