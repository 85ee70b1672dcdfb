"""Experiment harness: the cheap artifacts run end to end in test time.

The heavy artifacts (Tab. II full sweep, Fig. 10, Tab. III) are
exercised by the benchmark harness; here we cover the harness machinery
and the fast paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    fig2_breakdown,
    fig3_entropy,
    fig_scale_matrix,
    table1_layers,
    table2_compression,
)
from repro.experiments.common import proxy_dataset, trained_proxy
from repro.nn import zoo


class TestRegistry:
    def test_all_artifacts_registered(self):
        assert set(ALL_EXPERIMENTS) == {
            "fig2", "fig3", "tab1", "tab2", "fig9", "fig10", "tab3",
            "fig_fault_campaign", "fig_scale_matrix", "fig_ablation",
        }

    def test_every_experiment_has_run_and_render(self):
        for module in ALL_EXPERIMENTS.values():
            assert callable(module.run) and callable(module.render)


class TestTable1:
    def test_rows_cover_all_models(self):
        rows = table1_layers.run()
        assert [r.model for r in rows] == [m.NAME for m in zoo.ALL_MODELS]

    def test_render_contains_paper_columns(self):
        text = table1_layers.render(table1_layers.run())
        assert "dense_1" in text and "conv_preds" in text and "(paper)" in text


class TestFig3:
    def test_ordering(self):
        result = fig3_entropy.run(fast=True)
        assert result["random"] > result["LeNet-5"] > result["text"]

    def test_render(self):
        text = fig3_entropy.render(fig3_entropy.run(fast=True))
        assert "bits/byte" in text


class TestFig2:
    def test_fast_mode_runs_txn(self):
        result = fig2_breakdown.run(fast=True)
        assert len(result.layers) == 7
        text = fig2_breakdown.render(result)
        assert "Fig. 2a" in text and "Fig. 2b" in text


class TestScaleMatrix:
    def test_fast_matrix_compression_wins_on_every_topology(self):
        points = fig_scale_matrix.run(fast=True)
        base = {p.scenario: p.result for p in points if p.delta_pct is None}
        assert set(base) == set(fig_scale_matrix.SCENARIOS)
        for p in points:
            if p.delta_pct is None:
                continue
            b = base[p.scenario]
            assert p.result.total_latency.total < b.total_latency.total
            assert p.result.total_energy.total < b.total_energy.total

    def test_comm_share_grows_with_mesh_size(self):
        points = fig_scale_matrix.run(fast=True)
        share = {
            p.scenario: p.result.total_latency.communication
            / p.result.total_latency.total
            for p in points
            if p.delta_pct is None
        }
        assert share["mesh-4x4"] < share["mesh-8x8"] < share["mesh-16x16"]

    def test_render(self):
        text = fig_scale_matrix.render(fig_scale_matrix.run(fast=True))
        assert "mesh-16x16" in text and "chiplet-3x3" in text


class TestTable2Fast:
    def test_lenet_sweep_matches_paper_band(self):
        sweep = table2_compression.sweep_model(zoo.lenet5, fast=True)
        crs = {r.delta_pct: r.cr for r in sweep.reports}
        paper = table2_compression.PAPER["LeNet-5"]
        for delta, cr in crs.items():
            assert cr == pytest.approx(paper[delta][0], rel=0.30)

    def test_sliced_evaluation_keeps_whole_model_accounting(self):
        sweep = table2_compression.sweep_model(zoo.resnet50, fast=True)
        for r in sweep.reports:
            assert r.weighted_cr < r.cr
            assert 0 <= r.mem_fp_reduction < 0.15  # fc1000 is only 8%


class TestCommonInfra:
    def test_dataset_shapes(self):
        split = proxy_dataset("VGG-16", fast=True)
        assert split.x_train.shape[1:] == (3, 32, 32)
        assert split.num_classes == 50

    def test_lenet_dataset_is_digits(self):
        split = proxy_dataset("LeNet-5", fast=True)
        assert split.x_train.shape[1:] == (1, 28, 28)
        assert split.num_classes == 10

    def test_trained_proxy_cached(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        m1, _ = trained_proxy(zoo.lenet5, seed=3, fast=True)
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        m2, _ = trained_proxy(zoo.lenet5, seed=3, fast=True)
        np.testing.assert_array_equal(
            m1.get_weights("dense_1"), m2.get_weights("dense_1")
        )

    def test_trained_proxy_accuracy_floor(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        model, split = trained_proxy(zoo.lenet5, seed=3, fast=True)
        from repro.nn.train import evaluate

        assert evaluate(model, split.x_test, split.y_test).top1 > 0.8


class TestCLI:
    def test_cli_runs_tab1(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "tab1"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "Tab. I" in result.stdout

    def test_cli_rejects_unknown(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "nope"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 2
        assert "unknown experiments" in result.stdout


class TestFig10Rendering:
    def _fake_results(self):
        from repro.experiments.fig10_tradeoff import ModelTradeoff, TradeoffPoint

        points = [
            TradeoffPoint(
                delta_pct=d,
                accuracy=1.0 - d / 100,
                norm_latency=1.0 - d / 40,
                norm_energy=1.0 - d / 30,
                latency_parts={"memory": 0.5, "communication": 0.2, "computation": 0.1},
                energy_parts={"main_mem (dyn)": 0.6},
            )
            for d in (0.0, 10.0)
        ]
        return [
            ModelTradeoff(
                model="Toy", layer="dense_1", baseline_accuracy=1.0, points=points
            )
        ]

    def test_summary_table(self):
        from repro.experiments import fig10_tradeoff

        text = fig10_tradeoff.render(self._fake_results())
        assert "Toy" in text and "x-10" in text and "pareto" in text

    def test_detail_bars(self):
        from repro.experiments import fig10_tradeoff

        text = fig10_tradeoff.render_detail(self._fake_results())
        assert "latency breakdown" in text and "energy breakdown" in text


class TestBestStateRestore:
    """Regression: the best-stage snapshot must carry BN buffers.

    A staged-LR run whose final stage *degrades* restores the best
    stage's parameters; batch-norm running statistics estimated under
    those parameters must come back with them, not stay at the values
    the worse final stage left behind.
    """

    class _Module:
        NAME = "LeNet-5"  # reuse the real proxy dataset
        TOP_K = 1
        PROXY_LR = 0.05
        PROXY_EPOCHS = 1

        @staticmethod
        def proxy(rng=None):
            from repro.nn.layers import Conv2D
            from repro.nn.layers.norm import BatchNorm2D
            from repro.nn.sequential import Sequential

            rng = rng or np.random.default_rng(0)
            return Sequential(
                [
                    ("conv_1", Conv2D(1, 2, 3, rng=rng)),
                    ("bn_1", BatchNorm2D(2, name="bn_1")),
                ]
            )

    def test_degrading_final_stage_restores_bn_buffers(self, monkeypatch):
        from repro.experiments import common
        from repro.nn.layers.norm import BatchNorm2D
        from repro.nn.train import EvalResult

        # Stage 1 reaches 0.5 (the best); stage 2 converges lower
        # (prev > 4*chance, improvement < 0.02) and ends the schedule.
        accs = iter([0.5, 0.35])
        stage = {"n": 0}

        def fake_train(model, x, y, cfg):
            stage["n"] += 1
            for p in model.params():
                p.data[...] = float(stage["n"])
            for layer in model.layers():
                for arr in layer.buffers().values():
                    arr[...] = float(stage["n"])

        def fake_evaluate(model, x, y, batch_size=128):
            return EvalResult(top1=next(accs), top5=1.0, n=1)

        monkeypatch.setattr(common, "train", fake_train)
        monkeypatch.setattr(common, "evaluate", fake_evaluate)

        model, _ = common.trained_proxy(self._Module, seed=0, fast=True, use_cache=False)

        assert stage["n"] == 2  # both stages ran, second was worse
        bn = next(l for l in model.layers() if isinstance(l, BatchNorm2D))
        np.testing.assert_array_equal(bn.gamma.data, 1.0)
        # the bug: params were restored but buffers kept stage-2 values
        np.testing.assert_array_equal(bn.running_mean, 1.0)
        np.testing.assert_array_equal(bn.running_var, 1.0)


class TestAccuracyLayerIsSimulatedLayer:
    """Fig. 10 and Tab. III measure accuracy with the layer their
    simulation and weighted CR compress: the module's ``SELECTED_LAYER``.

    Nothing is trained or simulated: the proxies are untrained, the
    split is six samples, the full-scale legs are stubbed, and a spy on
    the pipeline's ``evaluate`` records which layers differ from the
    baseline's weights each time a compressed proxy is measured.
    """

    @pytest.fixture
    def changed_layers(self, monkeypatch):
        from types import SimpleNamespace

        from repro.core import pipeline
        from repro.datasets import Split
        from repro.experiments import common, fig10_tradeoff, table3_quantized

        def untrained_proxy(module, seed=7, fast=None):
            shape = common.PROXY_INPUT_SHAPES[module.NAME]
            x = np.random.default_rng(0).standard_normal((6, *shape)).astype(np.float32)
            y = np.arange(6) % 5
            return module.proxy(np.random.default_rng(seed)), Split(x, y, x, y)

        def no_sim(model_name, pct, fast, streamed=False):
            return SimpleNamespace(
                total_latency=SimpleNamespace(
                    total=1.0, memory=0.5, communication=0.25, computation=0.25
                ),
                total_energy=SimpleNamespace(total=1.0, dynamic={}, leakage={}),
            )

        seen: list[set[str]] = []
        baseline: dict[str, np.ndarray] = {}
        real_evaluate = pipeline.evaluate

        def spy(model, x, y, *args, **kwargs):
            weights = {n: l.params()[0].data for n, l in model.parametric_layers()}
            if not baseline:  # the pipeline's own baseline evaluation
                baseline.update((n, w.copy()) for n, w in weights.items())
            else:
                seen.append({n for n, w in weights.items() if not np.array_equal(w, baseline[n])})
            return real_evaluate(model, x, y, *args, **kwargs)

        monkeypatch.setattr(fig10_tradeoff, "trained_proxy", untrained_proxy)
        monkeypatch.setattr(table3_quantized, "trained_proxy", untrained_proxy)
        monkeypatch.setattr(fig10_tradeoff, "_fig10_sim", no_sim)
        monkeypatch.setattr(table3_quantized, "_full_scale_quant_cr", lambda *a: 1.0)
        monkeypatch.setattr(pipeline, "evaluate", spy)
        return seen

    @pytest.mark.parametrize("module", zoo.ALL_MODELS, ids=lambda m: m.NAME)
    def test_fig10(self, module, changed_layers, monkeypatch):
        from repro.experiments import fig10_tradeoff

        monkeypatch.setattr(module, "DELTA_GRID", (10.0,))
        result = fig10_tradeoff.tradeoff_for(module, fast=True, jobs=1)
        assert result.layer == module.SELECTED_LAYER
        assert changed_layers == [{module.SELECTED_LAYER}]

    @pytest.mark.parametrize(
        "module", [zoo.lenet5, zoo.alexnet, zoo.vgg16], ids=lambda m: m.NAME
    )
    def test_table3(self, module, changed_layers, monkeypatch):
        from repro.experiments import table3_quantized

        monkeypatch.setitem(table3_quantized._DELTAS, module.NAME, (10.0,))
        table3_quantized.sweep_model(module, fast=True, jobs=1)
        assert changed_layers == [{module.SELECTED_LAYER}]
