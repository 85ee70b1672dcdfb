"""Serving saturation benchmark: batching throughput and degradation.

``BENCH_serve.json`` is the committed baseline.  Two workloads:

* **batched vs serial** — the same closed-loop client at concurrency 1
  (every batch is a single request: pure service overhead per reply)
  and at high concurrency (batches fill, overhead amortizes).  The
  guarded ratio is machine-independent; the absolute batched
  throughput is additionally guarded through the calibration-spin
  machine scale, like the NoC baselines.
* **saturation sweep** — offered load swept past the knee (closed-loop
  concurrency ramp against a small admission queue).  Past the knee
  the service must *degrade, not collapse*: every request still gets a
  typed reply, admitted p99 stays under the deadline, and the overflow
  shows up as explicit shed replies.

The model is the tiny bench MLP on purpose: its ~10 µs forward makes
per-request *service* overhead (event-loop round trip, queueing,
dispatch) the dominant cost, which is exactly what micro-batching
amortizes and therefore what this benchmark must be sensitive to.

A third workload times the forward itself: a cache-hot
``ServedModel.forward_batch`` of LeNet-5 served from a δ = 10 % archive
(every conv and dense layer line-fit compressed), per sample, guarded
through the same calibration-spin machine scale.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.model_store import compress_model
from repro.nn import zoo
from repro.runtime.pool import RunPolicy
from repro.serve import InferenceService, Ok, ServeConfig, ServedModel
from repro.serve.demo import BENCH_INPUT_SHAPE, bench_model, demo_inputs

BASELINE_PATH = Path(__file__).parent / "BENCH_serve.json"
BASELINE = json.loads(BASELINE_PATH.read_text())

#: fail when throughput drops more than this factor below the committed
#: (machine-scaled) baseline
MAX_SLOWDOWN = 2.0

#: per-request deadline used by every workload (admitted p99 must stay
#: under this — the service discards later results as typed errors)
DEADLINE_S = 1.0


def _spin(n: int = 2_000_000) -> int:
    acc = 0
    for i in range(n):
        acc += i * i
    return acc


@pytest.fixture(scope="module")
def machine_scale() -> float:
    """This host's speed relative to the baseline-recording host."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _spin()
        best = min(best, time.perf_counter() - t0)
    return best / BASELINE["calibration_seconds"]


def _percentile(xs: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(xs), q)) if xs else float("nan")


async def _closed_loop(
    served, total: int, concurrency: int, max_queue: int
) -> tuple[list, float, InferenceService]:
    """``concurrency`` workers submit ``total`` requests back to back."""
    config = ServeConfig(
        max_batch=32,
        max_queue=max_queue,
        policy=RunPolicy(timeout=DEADLINE_S),
    )
    svc = InferenceService(served, config)
    xs = demo_inputs(64, BENCH_INPUT_SHAPE)
    replies: list = []

    async def worker(k: int) -> None:
        for j in range(k, total, concurrency):
            replies.append(await svc.submit(xs[j % len(xs)]))

    async with svc:
        t0 = time.perf_counter()
        await asyncio.gather(*(worker(k) for k in range(concurrency)))
        elapsed = time.perf_counter() - t0
    return replies, elapsed, svc


def _run(served, total, concurrency, max_queue=128):
    return asyncio.run(_closed_loop(served, total, concurrency, max_queue))


def test_batched_vs_serial_throughput(
    benchmark, machine_scale, fast_mode, save_artifact
):
    """Micro-batching must amortize service overhead >= the committed ratio."""
    served = bench_model()
    total = 600 if fast_mode else 4000
    entry = BASELINE["benchmarks"]["serve_batched"]

    def measure():
        serial_replies, serial_s, _ = _run(served, total, concurrency=1)
        batched_replies, batched_s, svc = _run(served, total, concurrency=64)
        return serial_replies, serial_s, batched_replies, batched_s, svc

    serial_replies, serial_s, batched_replies, batched_s, svc = (
        benchmark.pedantic(measure, rounds=1, iterations=1)
    )
    assert all(isinstance(r, Ok) for r in serial_replies)
    assert all(isinstance(r, Ok) for r in batched_replies)

    serial_rps = total / serial_s
    batched_rps = total / batched_s
    ratio = batched_rps / serial_rps
    mean_batch = svc.ok / svc.batches
    lat = [r.latency_s for r in batched_replies]
    save_artifact(
        "serve_batched_vs_serial",
        "\n".join(
            [
                "serve: batched vs serial closed-loop throughput",
                f"  requests          {total}",
                f"  serial            {serial_rps:,.0f} rps (batch size 1)",
                f"  batched (c=64)    {batched_rps:,.0f} rps "
                f"(mean batch {mean_batch:.1f})",
                f"  speedup           {ratio:.2f}x "
                f"(floor {entry['min_speedup_vs_serial']}x)",
                f"  batched latency   p50={_percentile(lat, 50) * 1e3:.2f}ms "
                f"p99={_percentile(lat, 99) * 1e3:.2f}ms",
            ]
        ),
    )

    # bit-identity: batched replies == direct serial forwards, bitwise
    xs = demo_inputs(64, BENCH_INPUT_SHAPE)
    for i, r in enumerate(batched_replies[: len(xs)]):
        assert np.array_equal(r.output, served.forward(xs[i % len(xs)])), (
            "batched serving output diverged from serial execution"
        )

    # p99 of admitted requests stays under the deadline
    assert _percentile(lat, 99) <= DEADLINE_S

    # the machine-independent ratio floor (the headline guard)
    assert ratio >= entry["min_speedup_vs_serial"], (
        f"batched/serial = {ratio:.2f}x is below the "
        f"{entry['min_speedup_vs_serial']}x floor — micro-batching is no "
        "longer amortizing service overhead; if intentional, re-record "
        "benchmarks/BENCH_serve.json"
    )

    # absolute floor, scaled to this host
    required = entry["batched_rps"] / (machine_scale * MAX_SLOWDOWN)
    assert batched_rps >= required, (
        f"batched throughput {batched_rps:,.0f} rps below the "
        f"{required:,.0f} rps floor (committed {entry['batched_rps']} rps / "
        f"machine scale {machine_scale:.2f} / slowdown guard {MAX_SLOWDOWN}) "
        "— the serving path has regressed; if intentional, re-record "
        "benchmarks/BENCH_serve.json"
    )


def test_saturation_sweep(benchmark, fast_mode, save_artifact):
    """Past the knee: typed degradation, bounded admitted latency."""
    served = bench_model()
    levels = BASELINE["saturation"]["concurrency_levels"]
    max_queue = BASELINE["saturation"]["max_queue"]
    per_level = 400 if fast_mode else 2000

    def measure():
        rows = []
        for c in levels:
            replies, elapsed, svc = _run(
                served, per_level, concurrency=c, max_queue=max_queue
            )
            ok_lat = [r.latency_s for r in replies if isinstance(r, Ok)]
            rows.append(
                {
                    "concurrency": c,
                    "replies": len(replies),
                    "ok": svc.ok,
                    "shed": svc.shed,
                    "expired": svc.deadline_expired + svc.deadline_exceeded,
                    "ok_rps": svc.ok / elapsed,
                    "p50_ms": _percentile(ok_lat, 50) * 1e3,
                    "p99_ms": _percentile(ok_lat, 99) * 1e3,
                    "p99_s": _percentile(ok_lat, 99),
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    lines = [
        "serve: saturation sweep (closed loop, "
        f"max_queue={max_queue}, deadline={DEADLINE_S}s)",
        f"  {'conc':>5} {'ok_rps':>9} {'p50_ms':>7} {'p99_ms':>7} "
        f"{'ok':>6} {'shed':>6} {'expired':>7}",
    ]
    for r in rows:
        lines.append(
            f"  {r['concurrency']:>5} {r['ok_rps']:>9,.0f} {r['p50_ms']:>7.2f} "
            f"{r['p99_ms']:>7.2f} {r['ok']:>6} {r['shed']:>6} {r['expired']:>7}"
        )
    save_artifact("serve_saturation", "\n".join(lines))

    for r in rows:
        # zero silent drops: every request resolved to a typed reply
        assert r["replies"] == per_level
        assert r["ok"] + r["shed"] + r["expired"] == per_level, (
            f"c={r['concurrency']}: "
            f"{per_level - r['ok'] - r['shed'] - r['expired']} requests "
            "got no typed outcome"
        )
        # admitted requests meet their deadline (or get typed errors)
        if r["ok"]:
            assert r["p99_s"] <= DEADLINE_S, (
                f"c={r['concurrency']}: admitted p99 {r['p99_s']:.3f}s "
                f"exceeds the {DEADLINE_S}s deadline"
            )
    # the ramp actually crossed the knee: the top level sheds
    assert rows[-1]["shed"] > 0, (
        "saturation sweep never saturated — raise the concurrency ramp "
        "or shrink max_queue in BENCH_serve.json"
    )
    # and the service survived it: still serving at the top level
    assert rows[-1]["ok"] > 0


def test_lenet5_forward(benchmark, machine_scale, save_artifact):
    """Cache-hot served LeNet-5 forward stays within ``MAX_SLOWDOWN``.

    The decoded-weight cache holds every layer after the warm-up batch,
    so a pass times the forward alone: im2col, the conv GEMMs, max-pool
    and the dense tiles.  A slower forward means the inference layers
    have regressed.
    """
    entry = BASELINE["benchmarks"]["lenet5_forward"]
    model = zoo.lenet5.proxy(np.random.default_rng(0))
    archive = compress_model(
        model, {name: entry["delta_pct"] for name, _ in model.parametric_layers()}
    )
    served = ServedModel(
        zoo.lenet5.proxy(np.random.default_rng(0)),
        archive,
        input_shape=zoo.lenet5.INPUT_SHAPE,
    )
    rng = np.random.default_rng(1)
    xs = [
        rng.standard_normal(zoo.lenet5.INPUT_SHAPE).astype(np.float32)
        for _ in range(entry["inputs"])
    ]
    batch = entry["batch"]
    served.forward_batch(xs[:batch])  # fills the cache

    def measure():
        """Median µs per sample over ``trials`` passes over the inputs."""
        per_sample = []
        for _ in range(entry["trials"]):
            t0 = time.perf_counter()
            for i in range(0, len(xs), batch):
                served.forward_batch(xs[i : i + batch])
            per_sample.append((time.perf_counter() - t0) / len(xs) * 1e6)
        return float(np.median(per_sample))

    us = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert served.cache.misses == len(served.compressed_layers)
    required = entry["post_us"] * machine_scale * MAX_SLOWDOWN
    save_artifact(
        "serve_lenet5_forward",
        "\n".join(
            [
                "serve: cache-hot LeNet-5 forward_batch (delta 10%)",
                f"  measured          {us:.1f} us/sample "
                f"(machine scale {machine_scale:.2f})",
                f"  committed         pre {entry['pre_us']} / post "
                f"{entry['post_us']} us/sample (recording host)",
                f"  ceiling           {required:.1f} us/sample",
            ]
        ),
    )
    assert us <= required, (
        f"served LeNet-5 forward {us:.1f} us/sample over the "
        f"{required:.1f} us ceiling (committed {entry['post_us']} us x "
        f"machine scale {machine_scale:.2f} x slowdown guard {MAX_SLOWDOWN}) "
        "— the inference forward has regressed; if intentional, re-record "
        "benchmarks/BENCH_serve.json"
    )
