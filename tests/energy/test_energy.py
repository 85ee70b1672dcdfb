"""Energy models: accounting structure, CACTI scaling laws."""

from __future__ import annotations

import pytest

from repro.energy import (
    COMPONENTS,
    EnergyAccount,
    EnergyBreakdown,
    estimate_sram,
)


class TestBreakdown:
    def test_components_cover_paper_figure(self):
        assert set(COMPONENTS) == {"communication", "computation", "local_mem", "main_mem"}

    def test_addition(self):
        a = EnergyBreakdown()
        a.dynamic["communication"] = 1.0
        b = EnergyBreakdown()
        b.dynamic["communication"] = 2.0
        b.leakage["main_mem"] = 0.5
        c = a + b
        assert c.dynamic["communication"] == 3.0
        assert c.leakage["main_mem"] == 0.5
        assert c.total == pytest.approx(3.5)

    def test_scaling(self):
        a = EnergyBreakdown()
        a.dynamic["main_mem"] = 2.0
        assert a.scaled(0.5).total == pytest.approx(1.0)

    def test_component_total(self):
        a = EnergyBreakdown()
        a.dynamic["computation"] = 1.0
        a.leakage["computation"] = 0.25
        assert a.component_total("computation") == 1.25


class TestAccount:
    def test_zero_events_zero_energy(self):
        assert EnergyAccount().breakdown().total == 0.0

    def test_additivity_in_events(self):
        a = EnergyAccount(flit_hops=100, macs=1000, cycles=50)
        b = EnergyAccount(flit_hops=200, macs=2000, cycles=100)
        assert a.breakdown().total * 2 == pytest.approx(b.breakdown().total)

    def test_all_components_nonnegative(self):
        bd = EnergyAccount(
            flit_hops=10, nic_flits=5, macs=7, decompressed_weights=3,
            local_mem_bytes=100, main_mem_bytes=50, cycles=1000,
        ).breakdown()
        for c in COMPONENTS:
            assert bd.dynamic[c] >= 0 and bd.leakage[c] >= 0

    def test_main_memory_dominates_realistic_mix(self):
        """The Fig. 2 shape: per byte moved, DRAM energy >> the rest."""
        nbytes = 10_000
        bd = EnergyAccount(
            flit_hops=(nbytes // 8) * 3,
            nic_flits=2 * nbytes // 8,
            macs=nbytes // 4,
            local_mem_bytes=2 * nbytes,
            main_mem_bytes=nbytes,
            cycles=nbytes // 8,
        ).breakdown()
        assert bd.dynamic["main_mem"] > 3 * bd.dynamic["communication"]
        assert bd.dynamic["main_mem"] > 3 * bd.dynamic["computation"]

    def test_multiplier_free_decompressor_cheaper(self):
        add = EnergyAccount(decompressed_weights=1000)
        mul = EnergyAccount(decompressed_weights=1000, decompress_multiplies=True)
        assert add.breakdown().total < mul.breakdown().total

    def test_leakage_scales_with_time(self):
        a = EnergyAccount(cycles=1000).breakdown()
        b = EnergyAccount(cycles=2000).breakdown()
        assert b.total == pytest.approx(2 * a.total)
        assert a.total > 0  # leakage alone is nonzero


class TestCacti:
    def test_anchor_point(self):
        est = estimate_sram(8 * 1024)
        assert est.energy_per_byte == pytest.approx(1.0e-12)
        assert est.leakage_w == pytest.approx(0.3e-3)

    def test_energy_scales_sublinearly(self):
        small, big = estimate_sram(8 * 1024), estimate_sram(32 * 1024)
        assert big.energy_per_byte == pytest.approx(2 * small.energy_per_byte)

    def test_leakage_scales_linearly(self):
        small, big = estimate_sram(8 * 1024), estimate_sram(16 * 1024)
        assert big.leakage_w == pytest.approx(2 * small.leakage_w)

    def test_latency_monotonic(self):
        sizes = [2**k * 1024 for k in range(2, 8)]
        lats = [estimate_sram(s).access_latency_s for s in sizes]
        assert lats == sorted(lats)

    def test_latency_cycles_positive(self):
        assert estimate_sram(1024).access_latency_cycles >= 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            estimate_sram(0)
