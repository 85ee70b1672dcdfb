"""Traffic schedules and the compression effect."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import get_codec
from repro.mapping import Accelerator
from repro.mapping.schedule import DRAM_CHUNK_BYTES, CompressionEffect, build_schedule
from repro.noc import Mesh, TrafficClass
from repro.nn.arch import ArchBuilder


def _fc_layer(in_f=400, out_f=1200):
    b = ArchBuilder("t", (1, 1, 1))
    b.set_shape((in_f,))
    b.fc("dense_1", out_f)
    return b.build().layer("dense_1")


class TestBuildSchedule:
    def test_every_pe_gets_work(self):
        sched = build_schedule(_fc_layer(), Mesh(4, 4))
        assert set(sched.pe_work) == set(Mesh(4, 4).pe_ids())

    def test_transfers_target_nearest_corner(self):
        mesh = Mesh(4, 4)
        sched = build_schedule(_fc_layer(), mesh)
        for t in sched.transfers:
            assert t.mc == mesh.nearest_corner(t.pe)

    def test_fig1_traffic_classes_present(self):
        sched = build_schedule(_fc_layer(), Mesh(4, 4))
        classes = {t.traffic_class for t in sched.transfers}
        assert classes == {TrafficClass.WEIGHTS, TrafficClass.IFMAP}
        assert sched.total_write_bytes > 0

    def test_totals_match_plan(self):
        sched = build_schedule(_fc_layer(), Mesh(4, 4))
        assert sched.total_read_bytes == sched.plan.total_read_bytes
        assert sched.total_write_bytes == sched.plan.total_write_bytes

    def test_dram_reads_preserve_private_bytes(self):
        sched = build_schedule(_fc_layer(4000, 4000), Mesh(4, 4))
        jobs = sched.dram_reads()
        weights = [j for j in jobs if j.traffic_class is TrafficClass.WEIGHTS]
        # weights are private: one copy per PE, volumes preserved
        assert sum(j.nbytes for j in weights) == sum(
            t.nbytes for t in sched.transfers
            if t.traffic_class is TrafficClass.WEIGHTS
        )
        assert max(j.nbytes for j in jobs) <= DRAM_CHUNK_BYTES
        # the MC programs are the unchunked jobs split in order: full
        # chunks, then the remainder, job after job
        expanded = []
        for j in sched.dram_jobs():
            remaining = j.nbytes
            while remaining > 0:
                n = min(DRAM_CHUNK_BYTES, remaining)
                expanded.append((j.mc, j.dsts, n, j.traffic_class))
                remaining -= n
        assert any(n % DRAM_CHUNK_BYTES for _, _, n, _ in expanded)
        assert [(j.mc, j.dsts, j.nbytes, j.traffic_class) for j in jobs] == expanded

    def test_shared_ifmap_read_once_per_mc(self):
        mesh = Mesh(4, 4)
        sched = build_schedule(_fc_layer(4000, 4000), mesh)
        assert sched.shared_class is TrafficClass.IFMAP
        ifmap_jobs = [
            j for j in sched.dram_jobs()
            if j.traffic_class is TrafficClass.IFMAP
        ]
        # one grouped job per memory interface, fanning out to its PEs
        assert len(ifmap_jobs) == 4
        assert sorted(len(j.dsts) for j in ifmap_jobs) == [3, 3, 3, 3]
        # DRAM volume = 4 reads; NoC volume = 12 copies
        dram = sum(j.nbytes for j in ifmap_jobs)
        noc = sum(
            t.nbytes for t in sched.transfers
            if t.traffic_class is TrafficClass.IFMAP
        )
        assert noc == 3 * dram


class TestCompressionEffect:
    def _effect(self, delta=10.0, units=8):
        w = np.random.default_rng(0).normal(size=40_000).astype(np.float32)
        return Accelerator().compression_effect(
            get_codec("linefit", delta_pct=delta).encode(w), units_per_pe=units
        ), w

    def test_weight_traffic_shrinks_by_cr(self):
        layer = _fc_layer(400, 1200)
        base = build_schedule(layer, Mesh(4, 4))
        eff, _ = self._effect(delta=15.0)
        comp = build_schedule(layer, Mesh(4, 4), compression=eff)
        base_w = [t for t in base.transfers if t.traffic_class is TrafficClass.WEIGHTS]
        comp_w = [t for t in comp.transfers if t.traffic_class is TrafficClass.WEIGHTS]
        ratio = sum(t.nbytes for t in base_w) / sum(t.nbytes for t in comp_w)
        assert ratio == pytest.approx(eff.cr, rel=0.01)

    def test_ifmap_traffic_unchanged(self):
        layer = _fc_layer(400, 1200)
        base = build_schedule(layer, Mesh(4, 4))
        eff, _ = self._effect()
        comp = build_schedule(layer, Mesh(4, 4), compression=eff)
        get = lambda s: sum(
            t.nbytes for t in s.transfers if t.traffic_class is TrafficClass.IFMAP
        )
        assert get(base) == get(comp)

    def test_decompress_cycles_appear(self):
        layer = _fc_layer(400, 1200)
        eff, _ = self._effect()
        comp = build_schedule(layer, Mesh(4, 4), compression=eff)
        decomp = {w[4] for w in comp.pe_work.values()}
        assert decomp != {0}

    def test_more_units_fewer_cycles(self):
        eff1 = CompressionEffect(cr=2.0, segments_total=1000, units_per_pe=1)
        eff8 = CompressionEffect(cr=2.0, segments_total=1000, units_per_pe=8)
        assert eff8.decompress_cycles(8000, 100) < eff1.decompress_cycles(8000, 100)
        assert eff1.decompress_cycles(8000, 100) == 8000 + 100

    def test_uncompressed_layer_kinds_unaffected(self):
        b = ArchBuilder("t", (16, 8, 8))
        b.pool("p", 2)
        eff = CompressionEffect(cr=4.0, segments_total=10)
        sched = build_schedule(b.build().layer("p"), Mesh(4, 4), compression=eff)
        assert all(w[4] == 0 for w in sched.pe_work.values())


class TestBatching:
    def test_weights_amortized_activations_scale(self):
        layer = _fc_layer(400, 1200)
        one = build_schedule(layer, Mesh(4, 4), batch=1)
        eight = build_schedule(layer, Mesh(4, 4), batch=8)
        get = lambda s, cls: sum(
            t.nbytes for t in s.transfers if t.traffic_class is cls
        )
        assert get(eight, TrafficClass.WEIGHTS) == get(one, TrafficClass.WEIGHTS)
        assert get(eight, TrafficClass.IFMAP) == 8 * get(one, TrafficClass.IFMAP)
        assert eight.total_write_bytes == 8 * one.total_write_bytes

    def test_macs_scale_with_batch(self):
        layer = _fc_layer(400, 1200)
        one = build_schedule(layer, Mesh(4, 4), batch=1)
        four = build_schedule(layer, Mesh(4, 4), batch=4)
        assert four.plan.total_macs == 4 * one.plan.total_macs

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            build_schedule(_fc_layer(), Mesh(4, 4), batch=0)
