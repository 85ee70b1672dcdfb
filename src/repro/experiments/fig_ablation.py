"""Ablation delta table — every design choice toggled and measured.

Runs the full default feature registry (:mod:`repro.ablation.toggles`)
baseline-vs-variant and renders the delta table: metric deltas (CR,
MSE, cycles, latency components, energy) plus per-comparison wall-time
cost.  ``identical``-class features double as a correctness net — their
deltas are asserted bitwise zero, and a nonzero one fails the run
*after* the table artifacts are written (set ``REPRO_ABLATION_OUT`` to
persist ``ablation.json`` / ``ablation.csv`` / ``ablation.md``).

Like the other sweep experiments this rides the grid runner: arms are
content-addressed and cached, ``REPRO_JOBS`` fans them out, and
``REPRO_SHARDS`` moves the grid onto the sharded resumable runtime.
"""

from __future__ import annotations

import os

from ..ablation import AblationConfig, AblationReport, run_ablation
from ..obs import MetricsRegistry
from ..runtime import ResultCache

__all__ = ["run", "render", "main"]


def _default_shards() -> int | None:
    raw = os.environ.get("REPRO_SHARDS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return None


def run(
    fast: bool = False,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    metrics: MetricsRegistry | None = None,
    shards: int | None = None,
    shard_workers: int = 1,
) -> AblationReport:
    if shards is None:
        shards = _default_shards()
    if shards is not None and cache is None:
        shards = None  # sharding moves results through the cache
    report = run_ablation(
        AblationConfig(fast=fast),
        jobs=jobs,
        cache=cache,
        metrics=metrics,
        shards=shards,
        shard_workers=shard_workers,
    )
    out_dir = os.environ.get("REPRO_ABLATION_OUT", "")
    if out_dir:
        report.write(out_dir)
    # the correctness net: artifacts above are written first so a
    # violation still leaves the full table on disk for debugging
    report.check_identical()
    return report


def render(report: AblationReport) -> str:
    identical = [r for r in report.rows if r.delta_class == "identical"]
    summary = (
        f"\n{len(report.rows)} delta rows over "
        f"{len({r.feature for r in report.rows})} features; "
        f"{len(identical)} identical-class rows all bitwise zero"
    )
    return (
        "Ablation — baseline vs variant for every registered feature\n\n"
        + report.render()
        + summary
    )


def main() -> AblationReport:  # pragma: no cover - CLI entry
    report = run()
    print(render(report))
    return report


if __name__ == "__main__":  # pragma: no cover
    main()
