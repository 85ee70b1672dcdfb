"""Whole-system integration: the Fig.-8 flow joined with the accelerator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CompressedBlob, get_codec, knee_point, pareto_front, provider_for
from repro.core.pareto import DesignPoint
from repro.core.pipeline import CompressionPipeline
from repro.datasets import train_test
from repro.mapping import Accelerator
from repro.nn import TrainConfig, train
from repro.nn.zoo import lenet5


@pytest.fixture(scope="module")
def system():
    split = train_test("digits", 2000, 500, seed=11)
    model = lenet5.proxy(np.random.default_rng(11))
    train(model, split.x_train, split.y_train, TrainConfig(epochs=5, lr=0.05))
    acc = Accelerator()
    spec = lenet5.full()
    return model, split, acc, spec


class TestFullFlow:
    def test_delta_sweep_produces_usable_pareto_space(self, system):
        model, split, acc, spec = system
        pipeline = CompressionPipeline(model, split.x_test, split.y_test, "dense_1")
        weights = spec.materialize("dense_1").ravel()
        base = acc.run_model(spec, mode="txn")

        points = []
        for delta in (0.0, 10.0, 20.0):
            record = pipeline.run_delta(delta)
            eff = acc.compression_effect(get_codec("linefit", delta_pct=delta).encode(weights))
            res = acc.run_model(spec, {"dense_1": eff}, mode="txn")
            points.append(
                DesignPoint(
                    label=f"x-{delta:.0f}",
                    accuracy=record.top1,
                    latency=res.total_latency.total / base.total_latency.total,
                    energy=res.total_energy.total / base.total_energy.total,
                )
            )
        front = pareto_front(points)
        assert front  # never empty
        best = knee_point(points, max_accuracy_drop=0.5)
        assert best.latency <= min(p.latency for p in points) + 1e-9

    def test_compressed_stream_survives_transport(self, system):
        """Compress -> ship the blob's bytes and spec (as the MC would) ->
        rebuild -> decode: the same approximated weights the PE's
        streamed decode produces."""
        _, _, _, spec = system
        w = spec.materialize("dense_1").ravel()
        blob = get_codec("linefit", delta_pct=10.0).encode(w)
        shipped = CompressedBlob.rebuild(blob.spec(), bytes(blob.payload))
        decoded = get_codec(shipped.codec, **shipped.params).decode(shipped)
        np.testing.assert_array_equal(decoded, provider_for(blob).materialize())

    def test_wire_size_matches_simulated_traffic(self, system):
        """The byte volume the accelerator simulates for the compressed
        layer equals the actual codec output size (minus the O(1) header)."""
        _, _, acc, spec = system
        from repro.core.codec import HEADER_BYTES, frame_trailer_bytes
        from repro.noc.flit import TrafficClass

        w = spec.materialize("dense_1").ravel()
        blob = get_codec("linefit", delta_pct=10.0).encode(w)
        eff = acc.compression_effect(blob)
        layer = spec.layer("dense_1")
        sched = acc.schedule_layer(layer, compression=eff)
        simulated = sum(
            t.nbytes
            for t in sched.transfers
            if t.traffic_class is TrafficClass.WEIGHTS
        )
        # the O(1) header and the integrity trailer are excluded from the
        # CR accounting (and thus from the simulated traffic volume)
        actual = (
            len(blob.payload)
            - HEADER_BYTES
            - frame_trailer_bytes(blob.num_segments)
        )
        assert simulated == pytest.approx(actual, rel=0.02)

    def test_accuracy_latency_energy_all_move_as_claimed(self, system):
        """The paper's abstract, qualitatively: at a moderate delta the
        latency and energy drop substantially while accuracy moves little."""
        model, split, acc, spec = system
        pipeline = CompressionPipeline(model, split.x_test, split.y_test, "dense_1")
        weights = spec.materialize("dense_1").ravel()
        base = acc.run_model(spec, mode="txn")
        record = pipeline.run_delta(15.0)
        eff = acc.compression_effect(get_codec("linefit", delta_pct=15.0).encode(weights))
        res = acc.run_model(spec, {"dense_1": eff}, mode="txn")
        assert record.top1 >= pipeline.baseline.top1 - 0.10
        assert res.total_latency.total < 0.85 * base.total_latency.total
        assert res.total_energy.total < 0.80 * base.total_energy.total
