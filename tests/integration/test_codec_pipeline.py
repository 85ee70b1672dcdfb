"""End-to-end: any registered codec through pipeline, archive, accelerator.

The acceptance test of the codec subsystem: the same Fig. 8 flow runs
under the paper's line-fit compressor and the lossless baselines, the
lossless runs change nothing (CR ~= 1, accuracy exactly the baseline),
and the line-fit run reproduces the reference implementation's CR
figures unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.codecs import get_codec
from repro.core.model_store import compress_model, load_archive
from repro.core.multilayer import optimize_multilayer
from repro.core.pipeline import CompressionPipeline
from repro.datasets import train_test
from repro.mapping import Accelerator
from repro.nn import TrainConfig, evaluate, train
from repro.nn.zoo import lenet5


@pytest.fixture(scope="module")
def trained():
    split = train_test("digits", 2500, 500, seed=13)
    model = lenet5.proxy(np.random.default_rng(13))
    train(model, split.x_train, split.y_train, TrainConfig(epochs=6, lr=0.05))
    return model, split


DELTAS = (0.0, 10.0, 20.0)


class TestCrossCodecSweep:
    @pytest.mark.parametrize("codec", ["huffman", "rle"])
    def test_lossless_codecs_change_nothing(self, trained, codec):
        model, split = trained
        pipe = CompressionPipeline(
            model, split.x_test, split.y_test, "dense_1", codec=codec
        )
        base = pipe.baseline
        for rec in pipe.sweep(DELTAS):
            # exact reconstruction: accuracy is bit-identical to baseline
            assert rec.top1 == base.top1
            assert rec.top5 == base.top5
            assert rec.mse == 0.0
            # weight streams are high-entropy: CR stays ~1 (RLE even
            # expands; Huffman squeezes only a few % of byte skew) —
            # nowhere near the line-fit codec's lossy ratios
            assert 0.4 <= rec.cr <= 1.15
            assert rec.num_segments == 0

    def test_linefit_reproduces_reference_crs(self, trained):
        model, split = trained
        pipe = CompressionPipeline(model, split.x_test, split.y_test, "dense_1")
        w = model.get_weights(pipe.layer_name).ravel()
        for rec in pipe.sweep(DELTAS):
            codec = get_codec("linefit", delta_pct=rec.delta_pct)
            ref = codec.encode(w)
            assert rec.cr == pytest.approx(ref.compression_ratio, rel=1e-12)
            assert rec.num_segments == ref.num_segments
            assert rec.mse == pytest.approx(codec.reconstruction_mse(ref, w), rel=1e-12)

    def test_linefit_zero_delta_hits_paper_anchor(self, trained):
        model, split = trained
        pipe = CompressionPipeline(model, split.x_test, split.y_test, "dense_1")
        rec = pipe.run_delta(0.0)
        # the paper's Tab. II delta=0 anchor (all models land on ~1.21)
        assert rec.cr == pytest.approx(1.21, abs=0.03)


class TestArchiveAcrossCodecs:
    @pytest.mark.parametrize("codec", ["linefit", "huffman"])
    def test_file_roundtrip_restores_inference(self, trained, tmp_path, codec):
        model, split = trained
        archive = compress_model(model, {"dense_1": 10.0}, codec=codec)
        path = tmp_path / f"{codec}.npz"
        archive.to_file(path)
        loaded = load_archive(path)
        assert loaded.codecs["dense_1"]["name"] == codec

        fresh = lenet5.proxy(np.random.default_rng(77))
        loaded.apply(fresh)
        if codec == "huffman":
            # lossless archive restores the exact trained model
            np.testing.assert_array_equal(
                fresh.get_weights("dense_1"), model.get_weights("dense_1")
            )
        base = evaluate(model, split.x_test, split.y_test).top1
        acc = evaluate(fresh, split.x_test, split.y_test).top1
        assert acc > base - 0.10

    def test_lossless_archive_is_not_smaller(self, trained):
        model, _ = trained
        linefit = compress_model(model, {"dense_1": 15.0}, codec="linefit")
        huffman = compress_model(model, {"dense_1": 15.0}, codec="huffman")
        assert linefit.weights_footprint() < huffman.weights_footprint()


class TestAcceleratorAcrossCodecs:
    def test_effects_for_every_codec(self):
        from repro.core.codecs import get_codec

        spec = lenet5.full()
        acc = Accelerator()
        base = acc.run_model(spec, mode="txn").total_latency.total
        weights = spec.materialize("dense_1", seed=0).ravel()
        latencies = {}
        for codec in ("linefit", "huffman", "rle"):
            blob = get_codec(codec, delta_pct=15.0).encode(weights)
            res = acc.run_model(spec, {"dense_1": blob}, mode="txn")
            latencies[codec] = res.total_latency.total
        # line-fit at delta 15% genuinely shrinks the weight traffic
        assert latencies["linefit"] < base
        # RLE expands the stream: latency must not improve on baseline
        assert latencies["rle"] >= base
        # lossless codecs stay within a whisker of the uncompressed run
        assert latencies["huffman"] == pytest.approx(base, rel=0.10)

    def test_run_model_accepts_raw_blobs(self):
        from repro.core.codecs import get_codec

        spec = lenet5.full()
        acc = Accelerator()
        blob = get_codec("linefit", delta_pct=15.0).encode(
            spec.materialize("dense_1", seed=0).ravel()
        )
        via_blob = acc.run_model(spec, {"dense_1": blob}, mode="txn")
        via_effect = acc.run_model(
            spec, {"dense_1": acc.compression_effect(blob)}, mode="txn"
        )
        assert via_blob.total_latency.total == via_effect.total_latency.total


class TestOptimizerAcrossCodecs:
    def test_lossless_codec_yields_no_saving_and_no_drop(self, trained):
        model, split = trained
        plan = optimize_multilayer(
            model,
            lenet5.full(),
            split.x_test,
            split.y_test,
            max_accuracy_drop=0.05,
            delta_grid=(10.0,),
            codec="rle",
        )
        # RLE expands float32 weight streams -> savings clamp to zero,
        # and exact reconstruction keeps accuracy at the baseline
        assert plan.saving_bytes == 0
        assert plan.accuracy == plan.baseline_accuracy
