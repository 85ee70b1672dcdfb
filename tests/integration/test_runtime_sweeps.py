"""The runtime acceptance contract: serial, parallel, and warm-cache
sweeps produce identical records, and warm reruns skip the work.

One LeNet-5 proxy is trained once (module-scoped, in a temp cache) and
shared by the pipeline-level and experiment-level assertions.
"""

from __future__ import annotations

import pytest

from repro.core.multilayer import optimize_multilayer
from repro.core.pipeline import CompressionPipeline
from repro.experiments import table2_compression
from repro.experiments.common import trained_proxy
from repro.nn import zoo
from repro.obs import MetricsRegistry
from repro.runtime import ResultCache

DELTAS = (5.0, 15.0)


@pytest.fixture(scope="module")
def lenet_proxy(tmp_path_factory):
    cache_root = tmp_path_factory.mktemp("repro-cache")
    import os

    old = os.environ.get("REPRO_CACHE")
    os.environ["REPRO_CACHE"] = str(cache_root)
    try:
        model, split = trained_proxy(zoo.lenet5, seed=3, fast=True)
        yield model, split
    finally:
        if old is None:
            os.environ.pop("REPRO_CACHE", None)
        else:
            os.environ["REPRO_CACHE"] = old


class TestPipelineSweep:
    def test_serial_parallel_warm_identical(self, lenet_proxy, tmp_path):
        model, split = lenet_proxy
        pipeline = CompressionPipeline(model, split.x_test, split.y_test, "dense_1")
        cache = ResultCache(tmp_path, enabled=True)

        serial = pipeline.sweep(DELTAS, jobs=1)
        parallel = pipeline.sweep(DELTAS, jobs=4)
        cold, warm = MetricsRegistry(), MetricsRegistry()
        cached = pipeline.sweep(DELTAS, jobs=4, cache=cache, metrics=cold)
        warmed = pipeline.sweep(DELTAS, jobs=1, cache=cache, metrics=warm)

        assert serial == parallel == cached == warmed
        assert cold.value("tasks_run") == len(DELTAS)
        # the warm rerun did no encode/evaluate work at all
        assert warm.value("tasks_run") == 0
        assert warm.value("cache_hits") == len(DELTAS)
        assert warm.value("task_seconds") == 0.0

    def test_cache_distinguishes_codec_and_delta(self, lenet_proxy, tmp_path):
        model, split = lenet_proxy
        cache = ResultCache(tmp_path, enabled=True)
        linefit = CompressionPipeline(model, split.x_test, split.y_test, "dense_1")
        huffman = CompressionPipeline(
            model, split.x_test, split.y_test, "dense_1", codec="huffman"
        )
        linefit.sweep((5.0,), cache=cache)
        t = MetricsRegistry()
        huffman.sweep((5.0,), cache=cache, metrics=t)  # same delta, other codec
        linefit.sweep((10.0,), cache=cache, metrics=t)  # other delta
        assert t.value("tasks_run") == 2
        assert t.value("cache_hits") == 0

    def test_cache_distinguishes_weights(self, lenet_proxy, tmp_path):
        model, split = lenet_proxy
        cache = ResultCache(tmp_path, enabled=True)
        CompressionPipeline(model, split.x_test, split.y_test, "dense_1").sweep(
            (5.0,), cache=cache
        )
        original = model.get_weights("dense_1").copy()
        try:
            model.set_weights("dense_1", original * 1.01)
            t = MetricsRegistry()
            CompressionPipeline(model, split.x_test, split.y_test, "dense_1").sweep(
                (5.0,), cache=cache, metrics=t
            )
        finally:
            model.set_weights("dense_1", original)
        assert t.value("tasks_run") == 1


class TestTable2Sweep:
    def test_serial_parallel_warm_identical(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        serial = table2_compression.sweep_model(zoo.lenet5, fast=True)
        parallel = table2_compression.sweep_model(zoo.lenet5, fast=True, jobs=4)
        cold, warm = MetricsRegistry(), MetricsRegistry()
        cached = table2_compression.sweep_model(
            zoo.lenet5, fast=True, jobs=4, cache=cache, metrics=cold
        )
        warmed = table2_compression.sweep_model(
            zoo.lenet5, fast=True, cache=cache, metrics=warm
        )
        assert serial == parallel == cached == warmed
        assert cold.value("tasks_run") == cold.value("tasks")
        assert warm.value("tasks_run") == 0
        assert warm.value("cache_hits") == warm.value("tasks")


class TestMultilayerSweep:
    def test_parallel_candidates_match_serial(self, lenet_proxy, tmp_path):
        model, split = lenet_proxy
        kwargs = dict(
            spec=zoo.lenet5.full(),
            x_test=split.x_test,
            y_test=split.y_test,
            max_accuracy_drop=0.05,
            delta_grid=(5.0, 15.0),
            top_k=zoo.lenet5.TOP_K,
        )
        serial = optimize_multilayer(model, **kwargs)
        parallel = optimize_multilayer(model, jobs=4, **kwargs)
        cache = ResultCache(tmp_path, enabled=True)
        cold = optimize_multilayer(model, cache=cache, **kwargs)
        t = MetricsRegistry()
        warm = optimize_multilayer(model, cache=cache, metrics=t, **kwargs)
        assert serial == parallel == cold == warm
        assert t.value("tasks_run") == 0
