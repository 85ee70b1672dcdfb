"""Entropy, breakdowns and report rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.breakdown import LayerBars
from repro.analysis.entropy import byte_entropy, english_like_text, random_bytes
from repro.analysis.report import render_bars, render_table


class TestEntropy:
    def test_uniform_bytes_max_entropy(self):
        assert byte_entropy(random_bytes(1 << 20)) == pytest.approx(8.0, abs=0.01)

    def test_constant_bytes_zero_entropy(self):
        assert byte_entropy(b"\x00" * 1000) == 0.0

    def test_two_symbols_one_bit(self):
        assert byte_entropy(b"ab" * 5000) == pytest.approx(1.0, abs=1e-9)

    def test_text_entropy_in_known_band(self):
        bits = byte_entropy(english_like_text(1 << 18))
        assert 3.5 < bits < 5.0

    def test_gaussian_float32_near_random(self):
        w = np.random.default_rng(0).normal(size=200_000).astype(np.float32)
        assert byte_entropy(w) > 7.0

    def test_empty(self):
        assert byte_entropy(b"") == 0.0

    def test_array_measured_over_raw_bytes(self):
        w = np.zeros(1000, dtype=np.float32)
        assert byte_entropy(w) == 0.0

    def test_deterministic_sources(self):
        assert random_bytes(100, seed=1) == random_bytes(100, seed=1)
        assert english_like_text(100, seed=1) == english_like_text(100, seed=1)


class TestBreakdownHelpers:
    def test_layer_bars_total(self):
        b = LayerBars(label="x", parts={"a": 1.0, "b": 2.0})
        assert b.total == 3.0


class TestRendering:
    def test_table_alignment(self):
        out = render_table(["a", "bb"], [["x", 1.5], ["yy", 2.25]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "1.50" in out and "2.25" in out

    def test_table_scientific_for_tiny_values(self):
        out = render_table(["v"], [[1.5e-7]])
        assert "1.50e-07" in out

    def test_bars_contain_labels_and_totals(self):
        bars = [
            LayerBars("conv1", {"mem": 0.8, "comm": 0.2}),
            LayerBars("dense", {"mem": 0.4, "comm": 0.1}),
        ]
        out = render_bars(bars, title="B")
        assert "conv1" in out and "dense" in out
        assert "(1.000)" in out and "(0.500)" in out

    def test_bars_empty(self):
        assert render_bars([], title="nothing") == "nothing"
