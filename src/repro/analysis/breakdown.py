"""Latency/energy breakdown structures for Figs. 2 and 10."""

from __future__ import annotations

from dataclasses import dataclass

from ..energy.model import COMPONENTS
from ..mapping.accelerator import ModelResult

__all__ = ["LayerBars", "latency_bars", "energy_bars"]

LATENCY_PARTS = ("memory", "communication", "computation")


@dataclass(frozen=True)
class LayerBars:
    """One stacked bar: a label plus named non-negative parts."""

    label: str
    parts: dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.parts.values())


def latency_bars(result: ModelResult, normalize: bool = True) -> list[LayerBars]:
    """Per-layer latency breakdown (the paper's Fig. 2, left).

    With ``normalize=True`` each bar is scaled by the largest layer
    total, matching the paper's normalized y-axis.
    """
    bars = [
        LayerBars(
            label=l.layer_name,
            parts={
                "memory": float(l.latency.memory),
                "communication": float(l.latency.communication),
                "computation": float(l.latency.computation),
            },
        )
        for l in result.layers
    ]
    return _maybe_normalize(bars, normalize)


def energy_bars(result: ModelResult, normalize: bool = True) -> list[LayerBars]:
    """Per-layer energy breakdown with dyn/leak split (Fig. 2, right)."""
    bars = []
    for l in result.layers:
        parts: dict[str, float] = {}
        for c in COMPONENTS:
            parts[f"{c} (dyn)"] = l.energy.dynamic[c]
            parts[f"{c} (leak)"] = l.energy.leakage[c]
        bars.append(LayerBars(label=l.layer_name, parts=parts))
    return _maybe_normalize(bars, normalize)


def _maybe_normalize(bars: list[LayerBars], normalize: bool) -> list[LayerBars]:
    if not normalize or not bars:
        return bars
    peak = max(b.total for b in bars)
    if peak <= 0:
        return bars
    return [
        LayerBars(label=b.label, parts={k: v / peak for k, v in b.parts.items()})
        for b in bars
    ]
