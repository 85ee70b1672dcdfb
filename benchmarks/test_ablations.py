"""Ablation benches for the design choices called out in DESIGN.md."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.report import render_table
from repro.core import (
    LineFitCodec,
    StorageFormat,
    footprint_ratio,
    get_codec,
    select_multi,
)
from repro.mapping import Accelerator, AcceleratorConfig
from repro.nn import zoo


class TestWeakVsStrictMonotonicity:
    """DESIGN.md ablation 1: the tolerance threshold is what rescues the
    adversarial streams of the paper's Fig. 5."""

    def test_adversarial_stream(self, benchmark, save_artifact):
        rng = np.random.default_rng(0)
        n = 100_000
        # pairwise-alternating worst case, Fig. 5a
        adversarial = (np.arange(n) * 0.01 + (np.arange(n) % 2) * 0.5).astype(np.float32)
        gaussian = rng.normal(size=n).astype(np.float32)

        def sweep():
            return [
                [name, f"{pct}%", get_codec("linefit", delta_pct=pct).encode(w).compression_ratio]
                for name, w in (("adversarial", adversarial), ("gaussian", gaussian))
                for pct in (0, 5, 15, 30)
            ]

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        save_artifact(
            "ablation_weak_vs_strict",
            render_table(["stream", "delta", "CR"], rows,
                         title="Ablation — strict (delta=0) vs weak monotonicity"),
        )
        by = {(r[0], r[1]): r[2] for r in rows}
        # strict sense on the adversarial stream: CR pinned near 1
        assert by[("adversarial", "0%")] == pytest.approx(1.0, abs=0.05)
        # the weak sense recovers it spectacularly (one long ramp)
        assert by[("adversarial", "30%")] > 100


class TestDecompressorThroughput:
    """DESIGN.md ablation 3: decompression units per PE."""

    def test_units_sweep(self, benchmark, save_artifact):
        spec = zoo.lenet5.full()
        weights = spec.materialize("dense_1").ravel()
        blob = get_codec("linefit", delta_pct=15.0).encode(weights)

        def sweep():
            rows = []
            for units in (1, 2, 4, 8):
                acc = Accelerator(AcceleratorConfig(decompressor_units=units))
                eff = acc.compression_effect(blob)
                res = acc.run_model(spec, {"dense_1": eff}, mode="txn")
                rows.append([units, res.total_latency.computation,
                             res.total_latency.total])
            return rows

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        save_artifact(
            "ablation_decompressor_units",
            render_table(["units/PE", "compute cycles", "total cycles"], rows,
                         title="Ablation — decompression units per PE (delta=15%)"),
        )
        compute = [r[1] for r in rows]
        assert compute == sorted(compute, reverse=True)


class TestStorageFormatOverhead:
    """DESIGN.md ablation 4: bytes per segment set the delta=0 CR."""

    def test_format_sweep(self, benchmark, save_artifact):
        w = np.random.default_rng(1).normal(size=500_000).astype(np.float32)

        formats = {
            "f32+f32+u16 (10B)": StorageFormat(4, 4, 4, 2),
            "f24+f24+u16 (8B, default)": StorageFormat(),
            "f16+f16+u16 (6B)": StorageFormat(4, 2, 2, 2),
        }

        def sweep():
            rows = []
            for name, fmt in formats.items():
                codec = LineFitCodec(delta=0.0, fmt=fmt)
                blob = codec.encode(w)
                rows.append([name, blob.compression_ratio, codec.reconstruction_mse(blob, w)])
            return rows

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        save_artifact(
            "ablation_storage_format",
            render_table(["format", "CR @ delta=0", "MSE"], rows,
                         title="Ablation — segment storage format"),
        )
        by = {r[0]: r for r in rows}
        assert by["f24+f24+u16 (8B, default)"][1] == pytest.approx(1.21, abs=0.02)
        # cheaper coefficients: better CR, worse MSE
        assert by["f16+f16+u16 (6B)"][1] > by["f32+f32+u16 (10B)"][1]
        assert by["f16+f16+u16 (6B)"][2] > by["f32+f32+u16 (10B)"][2]


class TestMultiLayerSelection:
    """DESIGN.md ablation 5 / the paper's future work: compressing
    multiple deep layers lifts the weighted CR of the Amdahl-limited
    models."""

    def test_resnet_multi_layer(self, benchmark, save_artifact):
        spec = zoo.resnet50.full()

        def sweep():
            rows = []
            for k in (1, 2, 4, 8):
                chosen = select_multi(spec, max_layers=k)
                compressed_params = sum(l.weight_params for l in chosen)
                # assume each chosen layer compresses at the fc1000 delta=6% CR
                wcr = footprint_ratio(spec.total_params, compressed_params, 6.0)
                rows.append([k, compressed_params / spec.total_params, wcr])
            return rows

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        save_artifact(
            "ablation_multi_layer",
            render_table(
                ["layers", "param fraction", "weighted CR (layer CR=6)"],
                rows,
                title="Ablation — multi-layer selection on ResNet50 (future work)",
            ),
        )
        wcrs = [r[2] for r in rows]
        assert wcrs == sorted(wcrs)
        assert wcrs[-1] > 1.5 * wcrs[0]


class TestTransactionModelAgreement:
    """DESIGN.md ablation 2: transaction model vs flit-level truth."""

    def test_agreement_sweep(self, benchmark, save_artifact):
        acc = Accelerator()
        spec = zoo.lenet5.full()

        def sweep():
            rows = []
            flit = acc.run_model(spec, mode="flit")
            txn = acc.run_model(spec, mode="txn")
            for lf, lt in zip(flit.layers, txn.layers):
                ratio = lt.latency.total / lf.latency.total
                rows.append([lf.layer_name, lf.latency.total, lt.latency.total, ratio])
            rows.append(
                ["TOTAL", flit.total_latency.total, txn.total_latency.total,
                 txn.total_latency.total / flit.total_latency.total]
            )
            return rows

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        save_artifact(
            "ablation_txn_vs_flit",
            render_table(["layer", "flit cycles", "txn cycles", "txn/flit"], rows,
                         title="Ablation — transaction model vs flit-level simulator"),
        )
        total_ratio = rows[-1][3]
        assert 0.85 < total_ratio < 1.25
        for r in rows[:-1]:
            assert 0.7 < r[3] < 1.5, r[0]


class TestRoutingAlgorithms:
    """Routing ablation: XY vs YX vs partially adaptive west-first
    under the transpose pattern (the classic case where dimension-order
    routing concentrates load and adaptivity helps)."""

    def test_routing_sweep(self, benchmark, save_artifact):
        from repro.noc.patterns import characterize, transpose

        rate = 0.10

        def sweep():
            rows = []
            for name in ("xy", "yx", "west-first"):
                from repro.noc.mesh import Mesh

                pts = characterize(
                    transpose,
                    [rate],
                    mesh_factory=lambda n=name: Mesh(4, 4, routing=n),
                    duration=1500,
                )
                rows.append([name, f"{pts[0].mean_latency:.1f}",
                             f"{pts[0].throughput:.3f}"])
            return rows

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        save_artifact(
            "ablation_routing",
            render_table(
                ["routing", "mean latency", "throughput"],
                rows,
                title=f"Ablation — routing algorithm, transpose traffic @ {rate} flits/node/cycle",
            ),
        )
        by = {r[0]: float(r[1]) for r in rows}
        # the adaptive algorithm should not be significantly worse than
        # the best dimension-order variant on this pattern
        assert by["west-first"] <= 1.5 * min(by["xy"], by["yx"])


class TestStaticVsDemandScheduling:
    """DESIGN.md ablation 8: pre-programmed memory interfaces vs
    PE-issued request packets.  Demand mode pays the request round trip
    and loses both the shared-ifmap DRAM read and chunked streaming
    (a whole requested block is read before the first flit ships)."""

    def test_scheduling_modes(self, benchmark, save_artifact):
        spec = zoo.lenet5.full()

        def sweep():
            rows = []
            for demand in (False, True):
                acc = Accelerator(AcceleratorConfig(demand_mode=demand))
                res = acc.run_model(spec, mode="flit")
                t = res.total_latency
                rows.append(
                    ["demand" if demand else "static", t.total, t.memory,
                     t.communication]
                )
            return rows

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        save_artifact(
            "ablation_scheduling",
            render_table(
                ["scheduling", "total cycles", "memory", "comm"],
                rows,
                title="Ablation — static vs demand-driven memory scheduling (LeNet-5)",
            ),
        )
        static, demand = rows[0][1], rows[1][1]
        assert demand > static            # the round trips are not free
        assert demand < 2.5 * static      # but the cost stays bounded


class TestVirtualChannels:
    """VC-count ablation under mixed worm/short traffic: more VCs cut
    the latency of short packets stuck behind long worms."""

    def test_vc_sweep(self, benchmark, save_artifact):
        from repro.noc.patterns import characterize, uniform_random
        from repro.noc.mesh import Mesh

        rate = 0.10

        def sweep():
            rows = []
            for vcs in (1, 2, 4):
                pts = characterize(
                    uniform_random,
                    [rate],
                    mesh_factory=lambda v=vcs: Mesh(4, 4, buffer_depth=2, num_vcs=v),
                    duration=1500,
                    payload_bytes=96,
                )
                rows.append([vcs, f"{pts[0].mean_latency:.1f}", f"{pts[0].throughput:.3f}"])
            return rows

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        save_artifact(
            "ablation_virtual_channels",
            render_table(
                ["VCs", "mean latency", "throughput"],
                rows,
                title=f"Ablation — virtual channels, uniform traffic @ {rate}",
            ),
        )
        lats = [float(r[1]) for r in rows]
        assert lats[-1] <= lats[0]  # VCs never hurt at this load
