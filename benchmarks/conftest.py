"""Benchmark-harness configuration.

Every ``test_*`` module here regenerates one table or figure of the
paper (plus ablation studies), prints it paper-style, and saves it
under ``benchmarks/out/``.  Run times are collected with
pytest-benchmark; the *content* of the regenerated artifact is the
point, the timing is a bonus.

By default the heavy experiments run in reduced ("fast") form so the
whole suite completes in minutes; set ``REPRO_FULL=1`` for the
full-fidelity run used in EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"


def pytest_configure(config):
    if os.environ.get("REPRO_FULL", "") in ("", "0"):
        os.environ.setdefault("REPRO_FAST", "1")
    OUT_DIR.mkdir(exist_ok=True)


@pytest.fixture(scope="session")
def fast_mode() -> bool:
    return os.environ.get("REPRO_FAST", "") not in ("", "0")


@pytest.fixture
def save_artifact():
    """Print a rendered table/figure and persist it to benchmarks/out/."""

    def _save(name: str, text: str) -> None:
        print("\n" + text)
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")

    return _save
