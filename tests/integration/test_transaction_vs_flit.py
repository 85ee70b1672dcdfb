"""Transaction-level model validation against the flit-level simulator.

DESIGN.md ablation 2: the fast model must track the cycle-accurate
ground truth across layer shapes and compression levels, because the
paper's large-network results are produced with it.
"""

from __future__ import annotations

import pytest

from repro.core import get_codec
from repro.mapping import Accelerator
from repro.nn import zoo
from repro.nn.arch import ArchBuilder


def _layers():
    out = []
    b = ArchBuilder("fc", (1, 1, 1))
    b.set_shape((400,))
    b.fc("fc_small", 120)
    out.append(b.build().layer("fc_small"))
    b = ArchBuilder("fc2", (1, 1, 1))
    b.set_shape((1024,))
    b.fc("fc_large", 2048)
    out.append(b.build().layer("fc_large"))
    b = ArchBuilder("conv", (3, 28, 28))
    b.conv("conv", 16, 5, pad=2)
    out.append(b.build().layer("conv"))
    b = ArchBuilder("pool", (16, 14, 14))
    b.pool("pool", 2)
    out.append(b.build().layer("pool"))
    return out


class TestAgreement:
    @pytest.mark.parametrize("layer", _layers(), ids=lambda l: l.name)
    def test_layer_latency_within_25pct(self, layer):
        acc = Accelerator()
        sched = acc.schedule_layer(layer)
        flit = acc.run_layer(sched, mode="flit")
        txn = acc.run_layer(sched, mode="txn")
        assert txn.latency.total == pytest.approx(flit.latency.total, rel=0.25)

    def test_whole_lenet_within_15pct(self):
        acc = Accelerator()
        spec = zoo.lenet5.full()
        flit = acc.run_model(spec, mode="flit").total_latency.total
        txn = acc.run_model(spec, mode="txn").total_latency.total
        assert txn == pytest.approx(flit, rel=0.15)

    def test_compressed_lenet_within_15pct(self):
        acc = Accelerator()
        spec = zoo.lenet5.full()
        w = spec.materialize("dense_1").ravel()
        eff = acc.compression_effect(get_codec("linefit", delta_pct=15.0).encode(w))
        flit = acc.run_model(spec, {"dense_1": eff}, mode="flit").total_latency.total
        txn = acc.run_model(spec, {"dense_1": eff}, mode="txn").total_latency.total
        assert txn == pytest.approx(flit, rel=0.15)

    def test_savings_predictions_agree(self):
        """The *relative* savings — the paper's actual metric — must
        match even more tightly than absolute latency."""
        acc = Accelerator()
        spec = zoo.lenet5.full()
        w = spec.materialize("dense_1").ravel()
        eff = acc.compression_effect(get_codec("linefit", delta_pct=15.0).encode(w))
        flit_base = acc.run_model(spec, mode="flit").total_latency.total
        flit_comp = acc.run_model(spec, {"dense_1": eff}, mode="flit").total_latency.total
        txn_base = acc.run_model(spec, mode="txn").total_latency.total
        txn_comp = acc.run_model(spec, {"dense_1": eff}, mode="txn").total_latency.total
        assert txn_comp / txn_base == pytest.approx(flit_comp / flit_base, abs=0.06)

    def test_energy_within_10pct(self):
        acc = Accelerator()
        spec = zoo.lenet5.full()
        flit = acc.run_model(spec, mode="flit").total_energy.total
        txn = acc.run_model(spec, mode="txn").total_energy.total
        assert txn == pytest.approx(flit, rel=0.10)
