"""Shared pytest fixtures and numerical helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compression import compress
from repro.core.segmentation import delta_from_percent


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. ``x`` in place."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = float(x[i])
        x[i] = orig + eps
        fp = f()
        x[i] = orig - eps
        fm = f()
        x[i] = orig
        g[i] = (fp - fm) / (2 * eps)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Max absolute error normalized by the max magnitude of ``b``."""
    denom = np.abs(b).max() + 1e-12
    return float(np.abs(np.asarray(a) - np.asarray(b)).max() / denom)


def compress_pct(weights, delta_pct: float, fmt=None):
    """The line-fit codec's parsed stream at a percentage tolerance.

    For tests of the codec internals (wire format, decoder); everything
    else compresses through ``get_codec("linefit", delta_pct=...)``.
    """
    w = np.asarray(weights).ravel()
    return compress(w, delta_from_percent(w, delta_pct), fmt=fmt)
