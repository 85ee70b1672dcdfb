"""Fault campaign — accuracy under storage bit errors, by storage format.

Not a figure from the paper: a robustness study the resilience layer
makes possible.  The question it answers is *what compression does to
fault tolerance*.  A bit flip in raw fp32 storage perturbs exactly one
weight; the same flip in a line-fit payload perturbs a whole segment's
slope/intercept — or, if it lands in a length field, desynchronizes the
rest of the stream.  Compression concentrates risk.  The campaign
measures that concentration, and what the CRC framing buys back, by
sweeping bit-error rate x delta over three storage arms:

* ``raw``          — fp32 weights, bit flips land in weights directly
                     (silent corruption; no detection possible);
* ``unprotected``  — line-fit payload in the legacy v2 wire format (no
                     checksums): damage either decodes into garbage
                     coefficients silently or breaks framing, which
                     zeroes the whole layer;
* ``protected``    — v3 wire format: per-frame CRC32s localize the
                     damage and :func:`repro.resilience.decode_degraded`
                     zero-fills only the hit frames.

Every point is seeded: the injector seed derives from ``(arm, ber,
delta)``, so the same campaign always flips the same bits — the
corrupted-payload SHA-256 digests reported per point are the
reproducibility witness.  Accuracy is measured on the LeNet-5 proxy with
its selected layer (the paper's Tab. I choice) stored per-arm.

Run it: ``python -m repro.experiments fig_fault_campaign`` (honours
``REPRO_FAST``, ``REPRO_JOBS`` and the result cache like every other
artifact).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..analysis.report import render_table
from ..core import codec as wire
from ..core.compression import compress
from ..core.errors import CodecError
from ..core.segmentation import delta_from_percent
from ..nn import zoo
from ..nn.train import evaluate
from ..resilience import BitFlipInjector, decode_degraded, digest
from ..obs import MetricsRegistry
from ..runtime import (
    GridTask,
    ResultCache,
    RunPolicy,
    fingerprint_array,
    result_key,
    run_tasks,
)
from .common import is_fast, trained_proxy

__all__ = ["CampaignPoint", "CampaignResult", "ARMS", "run", "render", "main"]

ARMS = ("raw", "unprotected", "protected")

#: bit-error rates swept (per stored bit, uniform)
_BERS = (1e-6, 1e-5, 1e-4, 1e-3)
_FAST_BERS = (1e-5, 1e-4)
#: line-fit tolerances swept for the compressed arms (percent of range)
_DELTAS = (2.0, 8.0)
_FAST_DELTAS = (2.0,)

_SEED = 7


@dataclass(frozen=True)
class CampaignPoint:
    arm: str
    ber: float
    delta_pct: float | None  # None for the raw arm
    accuracy: float
    #: SHA-256 of the corrupted stored bytes — the determinism witness
    digest: str
    #: what the decode path did (segments zeroed, silent decode, ...)
    detail: str


@dataclass(frozen=True)
class CampaignResult:
    model: str
    layer: str
    baseline_accuracy: float
    points: list[CampaignPoint]


def _trial_seed(arm: str, ber: float, pct: float | None) -> int:
    """Deterministic injector seed for one grid point."""
    return _SEED ^ zlib.crc32(f"{arm}|{ber!r}|{pct!r}".encode())


def _campaign_point(
    model_name: str,
    seed: int,
    fast: bool,
    arm: str,
    ber: float,
    pct: float | None,
    trial_seed: int,
) -> dict:
    """One grid point: corrupt the stored form, restore, evaluate.

    Module-level and argument-only so pool workers rebuild everything
    from scalars (the trained proxy comes off the on-disk weight cache).
    """
    module = zoo.BY_NAME[model_name]
    model, split = trained_proxy(module, seed=seed, fast=fast)
    layer = module.SELECTED_LAYER
    weights = model.get_weights(layer)
    shape, count = weights.shape, weights.size
    injector = BitFlipInjector(trial_seed, ber)

    if arm == "raw":
        tensor = injector.corrupt_array(weights.astype(np.float32))
        flipped = int(np.count_nonzero(tensor != weights.astype(np.float32)))
        dig = digest(tensor)
        detail = f"{flipped} weights hit (undetected)"
    else:
        delta = delta_from_percent(weights.ravel(), float(pct))
        stream = compress(weights.ravel().astype(np.float64), delta)
        if arm == "unprotected":
            damaged = injector.corrupt_bytes(wire.encode_legacy(stream))
            dig = digest(damaged)
            try:
                tensor = (
                    wire.decode(damaged, expected_weights=count)
                    .decompress(dtype=np.float32)
                    .reshape(shape)
                )
                detail = "decoded silently (garbage coefficients possible)"
            except CodecError:
                tensor = np.zeros(shape, dtype=np.float32)
                detail = "framing broken: whole layer zeroed"
        elif arm == "protected":
            damaged = injector.corrupt_bytes(wire.encode(stream))
            dig = digest(damaged)
            try:
                values, report = decode_degraded(damaged, count)
                tensor = values.astype(np.float32).reshape(shape)
                detail = (
                    f"{report.damaged_segments}/{report.num_segments} "
                    f"segments zeroed"
                )
            except CodecError:
                tensor = np.zeros(shape, dtype=np.float32)
                detail = "framing destroyed: whole layer zeroed"
        else:
            raise ValueError(f"unknown campaign arm {arm!r}")

    model.set_weights(layer, tensor)
    # raw-arm flips can produce inf/NaN weights; the measurement is the
    # resulting accuracy, not the overflow warnings along the way
    with np.errstate(over="ignore", invalid="ignore"):
        res = evaluate(model, split.x_test, split.y_test)
    accuracy = res.top1 if module.TOP_K == 1 else res.top5
    return {"accuracy": float(accuracy), "digest": dig, "detail": detail}


def _grid(fast: bool) -> list[tuple[str, float, float | None]]:
    bers = _FAST_BERS if fast else _BERS
    deltas = _FAST_DELTAS if fast else _DELTAS
    grid: list[tuple[str, float, float | None]] = []
    for ber in bers:
        grid.append(("raw", ber, None))
        for pct in deltas:
            grid.append(("unprotected", ber, pct))
            grid.append(("protected", ber, pct))
    return grid


def run(
    fast: bool | None = None,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    metrics: MetricsRegistry | None = None,
    policy: RunPolicy | None = None,
) -> CampaignResult:
    fast = is_fast() if fast is None else fast
    module = zoo.lenet5
    # train (or load) the proxy up front so fanned-out workers hit the
    # weight cache instead of each training their own copy
    model, split = trained_proxy(module, seed=_SEED, fast=fast)
    layer = module.SELECTED_LAYER
    base = evaluate(model, split.x_test, split.y_test)
    baseline = base.top1 if module.TOP_K == 1 else base.top5

    grid = _grid(fast)
    keys: list[str | None] = [None] * len(grid)
    if cache is not None:
        wfp = fingerprint_array(model.get_weights(layer))
        efp = fingerprint_array(split.x_test)
        keys = [
            result_key(
                "fault-campaign",
                model=module.NAME,
                weights=wfp,
                eval_set=efp,
                arm=arm,
                ber=ber,
                delta_pct=pct,
                trial_seed=_trial_seed(arm, ber, pct),
                fast=bool(fast),
            )
            for arm, ber, pct in grid
        ]
    tasks = [
        GridTask(
            fn=_campaign_point,
            args=(module.NAME, _SEED, fast, arm, ber, pct, _trial_seed(arm, ber, pct)),
            key=key,
        )
        for (arm, ber, pct), key in zip(grid, keys)
    ]
    # a campaign that injects faults should survive them too: one retry
    # by default, so a flaky worker doesn't void the whole sweep
    policy = policy if policy is not None else RunPolicy(retries=1)
    outcomes = run_tasks(tasks, jobs=jobs, cache=cache, metrics=metrics, policy=policy)

    points = [
        CampaignPoint(
            arm=arm,
            ber=ber,
            delta_pct=pct,
            accuracy=out["accuracy"],
            digest=out["digest"],
            detail=out["detail"],
        )
        for (arm, ber, pct), out in zip(grid, outcomes)
    ]
    return CampaignResult(
        model=module.NAME,
        layer=layer,
        baseline_accuracy=float(baseline),
        points=points,
    )


def render(result: CampaignResult) -> str:
    rows = [
        [
            p.arm,
            f"{p.ber:.0e}",
            "-" if p.delta_pct is None else f"x-{p.delta_pct:.0f}",
            f"{p.accuracy:.4f}",
            f"{p.accuracy - result.baseline_accuracy:+.4f}",
            p.digest[:12],
            p.detail,
        ]
        for p in result.points
    ]
    return render_table(
        ["arm", "BER", "delta", "accuracy", "vs clean", "digest", "decode path"],
        rows,
        title=(
            f"Fault campaign — {result.model} ({result.layer}), "
            f"clean accuracy {result.baseline_accuracy:.4f}"
        ),
    )


def main() -> CampaignResult:  # pragma: no cover - CLI entry
    result = run()
    print(render(result))
    return result


if __name__ == "__main__":  # pragma: no cover
    main()
