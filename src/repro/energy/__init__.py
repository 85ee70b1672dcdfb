"""CACTI-style energy/timing models and accounting (see DESIGN.md)."""

from .cacti import SramEstimate, estimate_sram
from .model import COMPONENTS, EnergyAccount, EnergyBreakdown
from .params import CLOCK_HZ, EnergyParams

__all__ = [
    "SramEstimate",
    "estimate_sram",
    "COMPONENTS",
    "EnergyAccount",
    "EnergyBreakdown",
    "CLOCK_HZ",
    "EnergyParams",
]
