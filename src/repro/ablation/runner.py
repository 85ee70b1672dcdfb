"""Baseline-vs-variant execution and the delta table.

:func:`run_ablation` expands an :class:`~repro.ablation.registry.
AblationConfig` into a grid of ``(feature, workload, arm)`` tasks and
drives them through :func:`repro.runtime.run_tasks` — so the grid fans
out over the process pool (``jobs=``), consults the content-addressed
result cache, and scales onto the sharded resumable runtime
(``shards=``) exactly like every other sweep in the repo.  Each task
records its wall time (also exported as the ``ablation.arm_seconds``
histogram via :mod:`repro.obs`), so the delta table reports the *cost*
of every design choice next to its metric deltas.

The report is the correctness net: :meth:`AblationReport.violations`
lists every ``identical``-class row whose delta is not bitwise zero,
and :meth:`AblationReport.check_identical` raises
:class:`IdenticalDeltaViolation` on the first one — the assertion CI
and the tier-1 smoke stand on.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from .. import obs
from ..obs import MetricsRegistry
from ..runtime import GridTask, ResultCache, result_key, run_tasks
from . import workloads as wl
from .registry import (
    IDENTICAL,
    AblationConfig,
    AblationError,
    Feature,
    FeatureRegistry,
)

__all__ = [
    "DeltaRow",
    "ArmCost",
    "AblationReport",
    "IdenticalDeltaViolation",
    "run_ablation",
]

#: bump to invalidate cached arm results when runner semantics change
KEY_VERSION = 2


class IdenticalDeltaViolation(AblationError):
    """An ``identical``-class feature produced a nonzero delta."""


@dataclass(frozen=True)
class DeltaRow:
    """One (feature, workload, metric) comparison."""

    feature: str
    workload: str
    delta_class: str
    metric: str
    baseline: float | str
    variant: float | str
    #: numeric difference (variant - baseline); None for digest metrics
    delta: float | None
    #: bitwise equality of the two arms for this metric
    identical: bool


@dataclass(frozen=True)
class ArmCost:
    """Wall-time cost of one feature x workload comparison."""

    feature: str
    workload: str
    baseline_seconds: float
    variant_seconds: float


def _run_arm(feature_name: str, workload: str, on: bool, fast: bool) -> dict:
    """Execute one arm; module-level so pool/shard workers can pickle it.

    The feature is resolved from the default registry inside the worker
    (custom registries run serially in-process; see
    :func:`run_ablation`).  Returns ``{"metrics": ..., "wall_seconds":
    ...}`` — wall time measured around the runner only, and mirrored
    into the ambient obs scope.
    """
    from .toggles import DEFAULT_FEATURES

    feature = DEFAULT_FEATURES.get(feature_name)
    return _execute_arm(feature, workload, on, fast)


def _execute_arm(feature: Feature, workload: str, on: bool, fast: bool) -> dict:
    o = obs.current()
    with o.span(
        "ablation.arm",
        cat="ablation",
        feature=feature.name,
        workload=workload,
        on=on,
    ):
        start = time.perf_counter()
        metrics = feature.runner(workload, on, fast)
        seconds = time.perf_counter() - start
    if not isinstance(metrics, dict) or not metrics:
        raise AblationError(
            f"feature {feature.name!r} runner returned "
            f"{type(metrics).__name__}; expected a non-empty metric dict"
        )
    o.observe("ablation.arm_seconds", seconds)
    o.count("ablation.arms")
    return {"metrics": metrics, "wall_seconds": float(seconds)}


def _diff_rows(
    feature: Feature, workload: str, baseline: dict, variant: dict
) -> list[DeltaRow]:
    if set(baseline) != set(variant):
        raise AblationError(
            f"feature {feature.name!r} on {workload!r} returned mismatched "
            f"metric keys: baseline {sorted(baseline)} vs variant "
            f"{sorted(variant)}"
        )
    rows = []
    for metric in sorted(baseline):
        b, v = baseline[metric], variant[metric]
        numeric = isinstance(b, (int, float)) and isinstance(v, (int, float))
        rows.append(
            DeltaRow(
                feature=feature.name,
                workload=workload,
                delta_class=feature.delta_class,
                metric=metric,
                baseline=b,
                variant=v,
                delta=float(v) - float(b) if numeric else None,
                identical=b == v,
            )
        )
    return rows


class AblationReport:
    """Delta table plus per-comparison wall-time costs."""

    def __init__(
        self,
        config: AblationConfig,
        rows: list[DeltaRow],
        costs: list[ArmCost],
    ) -> None:
        self.config = config
        self.rows = rows
        self.costs = costs

    # -- the correctness net -------------------------------------------------

    def violations(self) -> list[DeltaRow]:
        """``identical``-class rows whose delta is not bitwise zero."""
        return [
            r for r in self.rows if r.delta_class == IDENTICAL and not r.identical
        ]

    def check_identical(self) -> None:
        bad = self.violations()
        if bad:
            lines = "; ".join(
                f"{r.feature}[{r.workload}].{r.metric}: "
                f"baseline={r.baseline!r} variant={r.variant!r}"
                for r in bad
            )
            raise IdenticalDeltaViolation(
                f"{len(bad)} identical-class delta(s) are nonzero — "
                f"this is a correctness bug, not a measurement: {lines}"
            )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "config": json.loads(self.config.to_json()),
            "rows": [asdict(r) for r in self.rows],
            "costs": [asdict(c) for c in self.costs],
            "violations": len(self.violations()),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(
            [
                "feature",
                "workload",
                "delta_class",
                "metric",
                "baseline",
                "variant",
                "delta",
                "identical",
            ]
        )
        for r in self.rows:
            writer.writerow(
                [
                    r.feature,
                    r.workload,
                    r.delta_class,
                    r.metric,
                    r.baseline,
                    r.variant,
                    "" if r.delta is None else repr(r.delta),
                    int(r.identical),
                ]
            )
        return out.getvalue()

    def digest(self) -> str:
        """SHA-256 over the metric rows (costs excluded — wall time is
        the one legitimately nondeterministic column), the witness the
        determinism and serial == sharded identity tests compare."""
        payload = json.dumps(
            [asdict(r) for r in self.rows], sort_keys=True
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def render(self) -> str:
        """The delta table as a GitHub-flavored markdown table."""

        def fmt(value: float | str) -> str:
            if isinstance(value, str):
                return value[:12]  # digest prefix is plenty for a table
            if isinstance(value, float) and not value.is_integer():
                return f"{value:.6g}"
            return f"{value:.0f}"

        cost = {
            (c.feature, c.workload): c for c in self.costs
        }
        lines = [
            "| feature | workload | class | metric | baseline | variant "
            "| delta | cost (base/var s) |",
            "|---|---|---|---|---|---|---|---|",
        ]
        for r in self.rows:
            if r.delta is None:
                delta = "0 (bitwise)" if r.identical else "DIFFERS"
            else:
                delta = fmt(r.delta)
            c = cost[(r.feature, r.workload)]
            lines.append(
                f"| {r.feature} | {r.workload} | {r.delta_class} "
                f"| {r.metric} | {fmt(r.baseline)} | {fmt(r.variant)} "
                f"| {delta} "
                f"| {c.baseline_seconds:.3f}/{c.variant_seconds:.3f} |"
            )
        return "\n".join(lines)

    def write(self, out_dir: str | Path) -> Path:
        """Persist ablation.json / ablation.csv / ablation.md."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "ablation.json").write_text(self.to_json() + "\n")
        (out / "ablation.csv").write_text(self.to_csv())
        (out / "ablation.md").write_text(self.render() + "\n")
        return out


def run_ablation(
    config: AblationConfig | None = None,
    *,
    registry: FeatureRegistry | None = None,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    metrics: MetricsRegistry | None = None,
    policy=None,
    shards: int | None = None,
    shard_workers: int = 1,
) -> AblationReport:
    """Execute baseline-vs-variant for every selected feature.

    With the default registry the grid rides :func:`run_tasks` — pool
    parallelism, result caching, and (``shards=``) the resumable
    sharded runtime all apply, and arm results are content-addressed by
    ``(feature, workload, arm, fast)`` plus the workload fingerprint.
    A custom ``registry`` (tests) runs serially in-process, since its
    features cannot be resolved by name inside a worker.
    """
    from .toggles import DEFAULT_FEATURES

    config = config if config is not None else AblationConfig()
    custom = registry is not None
    registry = registry if custom else DEFAULT_FEATURES
    config.validate(registry)
    features = config.selected(registry)

    grid: list[tuple[Feature, str, bool]] = []
    for feature in features:
        names = feature.workloads
        if config.workloads:
            names = tuple(n for n in names if n in config.workloads)
        for workload in names:
            for on in (feature.default_on, not feature.default_on):
                grid.append((feature, workload, on))

    with obs.current().span(
        "ablation.run", cat="ablation", features=len(features), arms=len(grid)
    ):
        if custom:
            payloads = [
                _execute_arm(f, w, on, config.fast) for f, w, on in grid
            ]
        else:
            keys: list[str | None] = [None] * len(grid)
            if cache is not None:
                keys = [
                    result_key(
                        "ablation-arm",
                        version=KEY_VERSION,
                        feature=f.name,
                        workload=w,
                        on=on,
                        fast=config.fast,
                        stream=wl.stream_fingerprint(w, config.fast)
                        if w in wl.STREAM_WORKLOADS
                        else w,
                    )
                    for f, w, on in grid
                ]
            tasks = [
                GridTask(fn=_run_arm, args=(f.name, w, on, config.fast), key=k)
                for (f, w, on), k in zip(grid, keys)
            ]
            payloads = run_tasks(
                tasks,
                jobs=jobs,
                cache=cache,
                metrics=metrics,
                policy=policy,
                shards=shards,
                shard_workers=shard_workers,
            )

    by_arm = {
        (f.name, w, on): p for (f, w, on), p in zip(grid, payloads)
    }
    rows: list[DeltaRow] = []
    costs: list[ArmCost] = []
    seen: set[tuple[str, str]] = set()
    for feature, workload, _ in grid:
        if (feature.name, workload) in seen:
            continue
        seen.add((feature.name, workload))
        base = by_arm[(feature.name, workload, feature.default_on)]
        var = by_arm[(feature.name, workload, not feature.default_on)]
        rows.extend(
            _diff_rows(feature, workload, base["metrics"], var["metrics"])
        )
        costs.append(
            ArmCost(
                feature=feature.name,
                workload=workload,
                baseline_seconds=base["wall_seconds"],
                variant_seconds=var["wall_seconds"],
            )
        )
    return AblationReport(config, rows, costs)
