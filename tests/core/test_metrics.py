"""Compression metrics: weighted CR, footprint reduction, reports."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.codecs import get_codec
from repro.core.metrics import CompressionReport, footprint_ratio, layer_report


class TestWeightedRatio:
    def test_whole_model_compressed(self):
        # layer == model: weighted CR equals layer CR
        assert footprint_ratio(1000, 1000, 4.0) == pytest.approx(4.0)

    def test_nothing_compressed(self):
        assert footprint_ratio(1000, 0, 4.0) == pytest.approx(1.0)

    def test_half_compressed(self):
        # half the params at CR=2: footprint 0.5 + 0.25 = 0.75 -> wCR 4/3
        assert footprint_ratio(1000, 500, 2.0) == pytest.approx(4.0 / 3.0)

    def test_amdahl_limit(self):
        # infinite layer CR cannot beat 1 / (1 - fraction)
        w = footprint_ratio(1000, 100, 1e9)
        assert w == pytest.approx(1.0 / 0.9, rel=1e-6)

    def test_mobilenet_shape_from_paper(self):
        """Tab. II MobileNet: layer CR 4.31 but weighted CR only 1.8
        because the layer holds ~24% of the params."""
        from repro.core.metrics import param_weighted_cr

        w = footprint_ratio(4_250_000, 1_025_000, 4.31)
        assert 1.1 < w < 1.35  # true footprint ratio: Amdahl-limited
        paper = param_weighted_cr(4_250_000, 1_025_000, 4.31)
        assert paper == pytest.approx(1.80, abs=0.02)  # the printed figure

    def test_paper_weighted_cr_reproduces_alexnet_row(self):
        """Tab. II AlexNet delta=20%: CR 11.44 -> weighted CR 8.28 is only
        reachable as the param-weighted mean (the footprint ratio caps
        at 1/0.3 = 3.3)."""
        from repro.core.metrics import param_weighted_cr

        got = param_weighted_cr(24_000_000, 16_800_000, 11.44)
        assert got == pytest.approx(8.3, abs=0.05)
        assert footprint_ratio(24_000_000, 16_800_000, 11.44) < 3.33

    def test_validation(self):
        with pytest.raises(ValueError):
            footprint_ratio(0, 0, 1.0)
        with pytest.raises(ValueError):
            footprint_ratio(10, 20, 1.0)
        with pytest.raises(ValueError):
            footprint_ratio(10, 5, 0.0)


class TestLayerReport:
    def test_fields_consistent(self, rng):
        w = rng.normal(size=10_000).astype(np.float32)
        codec = get_codec("linefit", delta_pct=10.0)
        blob = codec.encode(w)
        mse = codec.reconstruction_mse(blob, w)
        report = layer_report(blob, mse, total_params=40_000, delta_pct=10.0)
        assert report.cr == blob.compression_ratio
        # the paper's weighted CR: param-weighted mean of layer CRs
        frac = 10_000 / 40_000
        assert report.weighted_cr == pytest.approx(frac * report.cr + (1 - frac))
        # the footprint reduction is the true byte saving
        assert report.mem_fp_reduction == pytest.approx(frac * (1 - 1 / report.cr))
        assert report.mse == mse
        assert report.weighted_cr < report.cr  # only 25% of params compressed

    def test_row_rendering(self):
        row = CompressionReport(
            delta_pct=15.0, cr=2.5, weighted_cr=2.17, mem_fp_reduction=0.57, mse=2.01e-4
        ).as_row()
        assert "15%" in row and "2.50" in row and "57%" in row and "2.01e-04" in row
