"""Accelerator end-to-end: modes, compression effects, model runs."""

from __future__ import annotations

import pytest

from repro.core import get_codec
from repro.mapping import Accelerator, AcceleratorConfig
from repro.nn import zoo
from repro.nn.arch import ArchBuilder


@pytest.fixture(scope="module")
def acc():
    return Accelerator()


@pytest.fixture(scope="module")
def lenet_spec():
    return zoo.lenet5.full()


def _small_layer():
    b = ArchBuilder("t", (1, 1, 1))
    b.set_shape((400,))
    b.fc("dense_1", 120)
    return b.build().layer("dense_1")


class TestModes:
    def test_flit_and_txn_agree_on_layer(self, acc):
        sched = acc.schedule_layer(_small_layer())
        flit = acc.run_layer(sched, mode="flit")
        txn = acc.run_layer(sched, mode="txn")
        assert txn.latency.total == pytest.approx(flit.latency.total, rel=0.25)
        assert txn.energy.total == pytest.approx(flit.energy.total, rel=0.15)

    def test_unknown_mode(self, acc):
        sched = acc.schedule_layer(_small_layer())
        with pytest.raises(ValueError):
            acc.run_layer(sched, mode="magic")

    def test_event_counts_agree(self, acc):
        sched = acc.schedule_layer(_small_layer())
        flit = acc.run_layer(sched, mode="flit")
        txn = acc.run_layer(sched, mode="txn")
        assert flit.events["main_mem_bytes"] == txn.events["main_mem_bytes"]
        assert flit.events["macs"] == txn.events["macs"]
        assert flit.events["flit_hops"] == pytest.approx(
            txn.events["flit_hops"], rel=0.05
        )


class TestModelRun:
    def test_lenet_layer_coverage(self, acc, lenet_spec):
        res = acc.run_model(lenet_spec, mode="txn")
        names = [l.layer_name for l in res.layers]
        assert "conv2d_1" in names and "dense_1" in names
        assert "flatten" not in names  # no traffic of its own

    def test_memory_dominates_latency(self, acc, lenet_spec):
        """The paper's Fig. 2 headline: main memory is the main
        responsible for inference latency."""
        res = acc.run_model(lenet_spec, mode="txn")
        t = res.total_latency
        assert t.memory > t.communication
        assert t.memory > t.computation

    def test_main_memory_dominates_energy(self, acc, lenet_spec):
        res = acc.run_model(lenet_spec, mode="txn")
        e = res.total_energy
        assert e.component_total("main_mem") > 0.5 * e.total

    def test_compression_reduces_latency_and_energy(self, acc, lenet_spec):
        base = acc.run_model(lenet_spec, mode="txn")
        w = lenet_spec.materialize("dense_1")
        eff = acc.compression_effect(get_codec("linefit", delta_pct=15.0).encode(w.ravel()))
        comp = acc.run_model(lenet_spec, {"dense_1": eff}, mode="txn")
        assert comp.total_latency.total < base.total_latency.total
        assert comp.total_energy.total < base.total_energy.total

    def test_larger_delta_larger_savings(self, acc, lenet_spec):
        w = lenet_spec.materialize("dense_1").ravel()
        totals = []
        for pct in (0.0, 10.0, 20.0):
            eff = acc.compression_effect(get_codec("linefit", delta_pct=pct).encode(w))
            res = acc.run_model(lenet_spec, {"dense_1": eff}, mode="txn")
            totals.append(res.total_latency.total)
        assert totals == sorted(totals, reverse=True)

    def test_unknown_compressed_layer_rejected(self, acc, lenet_spec):
        w = lenet_spec.materialize("dense_1").ravel()
        eff = acc.compression_effect(get_codec("linefit", delta_pct=5.0).encode(w))
        with pytest.raises(ValueError, match="unknown layers"):
            acc.run_model(lenet_spec, {"nope": eff})

    def test_flit_mode_full_lenet(self, acc, lenet_spec):
        """Cycle-accurate run of the whole LeNet-5 (the Fig. 2 workload)."""
        res = acc.run_model(lenet_spec, mode="flit")
        assert len(res.layers) == 7
        assert res.total_latency.total > 0
        # dense_1 carries ~78% of the params -> the largest layer latency
        by_name = {l.layer_name: l.latency.total for l in res.layers}
        assert max(by_name, key=by_name.get) == "dense_1"


class TestDecompressorThroughputAblation:
    def test_single_unit_can_bottleneck(self, lenet_spec):
        """With one decompressor per PE the datapath may slow down; with
        eight (one per lane) compression is a pure win."""
        w = lenet_spec.materialize("dense_1").ravel()
        blob = get_codec("linefit", delta_pct=15.0).encode(w)
        fast = Accelerator(AcceleratorConfig(decompressor_units=8))
        slow = Accelerator(AcceleratorConfig(decompressor_units=1))
        r_fast = fast.run_model(lenet_spec, {"dense_1": fast.compression_effect(blob)}, mode="txn")
        r_slow = slow.run_model(lenet_spec, {"dense_1": slow.compression_effect(blob)}, mode="txn")
        assert r_slow.total_latency.computation >= r_fast.total_latency.computation


class TestDemandModeAccelerator:
    def test_demand_mode_runs_and_costs_more(self, lenet_spec):
        static = Accelerator(AcceleratorConfig(demand_mode=False))
        demand = Accelerator(AcceleratorConfig(demand_mode=True))
        t_static = static.run_model(lenet_spec, mode="flit").total_latency.total
        t_demand = demand.run_model(lenet_spec, mode="flit").total_latency.total
        assert t_demand > t_static
        assert t_demand < 2.5 * t_static

    def test_demand_mode_moves_same_payload(self, lenet_spec):
        static = Accelerator(AcceleratorConfig(demand_mode=False))
        demand = Accelerator(AcceleratorConfig(demand_mode=True))
        e_static = static.run_model(lenet_spec, mode="flit")
        e_demand = demand.run_model(lenet_spec, mode="flit")
        # same MACs; memory bytes differ only by the lost shared-read
        # optimization (demand requests are per PE)
        s = sum(l.events["macs"] for l in e_static.layers)
        d = sum(l.events["macs"] for l in e_demand.layers)
        assert s == d


class TestDefaultConfigIsolation:
    """Regression: default-constructed accelerators must not share one
    ``AcceleratorConfig`` instance (the B008 evaluated-once-at-import
    pattern), or mutating one instance's view of the config would leak
    into every other default-constructed accelerator."""

    def test_each_instance_gets_its_own_config(self):
        a, b = Accelerator(), Accelerator()
        assert a.config is not b.config
        assert a.config.dram is not b.config.dram
        assert a.config.pe is not b.config.pe
        assert a.config == b.config  # same values, distinct objects

    def test_explicit_config_is_kept(self):
        cfg = AcceleratorConfig(mesh_width=2, mesh_height=2)
        assert Accelerator(cfg).config is cfg
