"""Entropy, breakdown and report-rendering utilities."""

from .breakdown import LayerBars, energy_bars, latency_bars
from .entropy import byte_entropy, english_like_text, random_bytes
from .linkstats import LinkUtilization, link_utilization, render_link_report
from .report import render_bars, render_table

__all__ = [
    "LayerBars",
    "energy_bars",
    "latency_bars",
    "byte_entropy",
    "english_like_text",
    "random_bytes",
    "render_bars",
    "render_table",
    "LinkUtilization",
    "link_utilization",
    "render_link_report",
]
