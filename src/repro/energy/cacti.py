"""CACTI-like analytical SRAM estimator.

The paper uses CACTI [20] to obtain energy (dynamic + leakage) and
timing for the local and main memories.  This module reproduces the
*scaling behaviour* of CACTI with simple technology-anchored models so
that architecture sweeps (local-memory size ablations) respond the way
CACTI would:

* dynamic energy per access grows ~ sqrt(capacity) (bitline/wordline
  length grows with the array side);
* access latency grows ~ sqrt(capacity) beyond a fixed decoder cost;
* leakage power grows linearly with capacity.

Anchored at a 45 nm 8 KB SRAM bank (~1 pJ/byte, ~1 ns, ~0.3 mW), which
is the paper's PE-local memory configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SramEstimate", "estimate_sram"]

_ANCHOR_BYTES = 8 * 1024
_ANCHOR_ENERGY_PER_BYTE = 1.0e-12
_ANCHOR_LATENCY_S = 1.0e-9
_ANCHOR_LEAKAGE_W = 0.3e-3
_DECODER_LATENCY_S = 0.2e-9


@dataclass(frozen=True)
class SramEstimate:
    capacity_bytes: int
    energy_per_byte: float  # J/byte, dynamic
    access_latency_s: float
    leakage_w: float

    @property
    def access_latency_cycles(self) -> int:
        from .params import CLOCK_HZ

        return max(1, int(np.ceil(self.access_latency_s * CLOCK_HZ)))


def estimate_sram(capacity_bytes: int) -> SramEstimate:
    """CACTI-style estimate for one SRAM bank of the given capacity."""
    if capacity_bytes <= 0:
        raise ValueError("capacity must be positive")
    ratio = capacity_bytes / _ANCHOR_BYTES
    side = np.sqrt(ratio)
    return SramEstimate(
        capacity_bytes=capacity_bytes,
        energy_per_byte=_ANCHOR_ENERGY_PER_BYTE * side,
        access_latency_s=_DECODER_LATENCY_S
        + (_ANCHOR_LATENCY_S - _DECODER_LATENCY_S) * side,
        leakage_w=_ANCHOR_LEAKAGE_W * ratio,
    )
