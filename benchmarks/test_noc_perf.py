"""Perf smoke: guard the NoC fast path against throughput regressions.

``BENCH_noc.json`` is the committed baseline: wall-clock for the two
characterization workloads on the recording host, before and after the
fast-path rework, plus a calibration constant (a fixed pure-Python spin
timed on the same host).  This test re-times the workloads and fails if
either runs more than 2x slower than the recorded post-rework time —
after scaling the budget by how much slower *this* host runs the
calibration spin, so a slow CI runner doesn't trip the guard and a fast
one doesn't mask a real regression.

The calibration spin deliberately shares no code with the simulator:
calibrating against the simulator itself would scale the budget up by
exactly the regression being hunted.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path

import pytest

import numpy as np

from repro.core.codecs import LineFitCodec, get_codec
from repro.core.provider import BlobProvider, provider_for
from repro.mapping import Accelerator
from repro.mapping.accelerator import AcceleratorConfig
from repro.noc import (
    Mesh,
    MemoryInterface,
    NocSimulator,
    PETask,
    ProcessingElement,
    ReadJob,
)
from repro.noc.patterns import characterize, transpose, uniform_random
from repro.nn import zoo

BASELINE_PATH = Path(__file__).parent / "BENCH_noc.json"
BASELINE = json.loads(BASELINE_PATH.read_text())

#: fail when a workload runs more than this factor slower than the
#: committed (machine-scaled) baseline
MAX_SLOWDOWN = 2.0

#: fail when an encode's traced peak grows past this factor of the
#: committed bytes per segment
MAX_PEAK_GROWTH = 1.1


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


def _budget(name: str, machine_scale: float) -> float:
    return BASELINE["benchmarks"][name]["post_seconds"] * machine_scale * MAX_SLOWDOWN


def _assert_within_budget(name, elapsed, machine_scale):
    budget = _budget(name, machine_scale)
    assert elapsed <= budget, (
        f"{name}: {elapsed:.3f}s exceeds {budget:.3f}s "
        f"(committed baseline {BASELINE['benchmarks'][name]['post_seconds']}s "
        f"x machine scale {machine_scale:.2f} x slowdown guard {MAX_SLOWDOWN}) — "
        f"the NoC fast path has regressed by more than {MAX_SLOWDOWN}x; "
        "if the slowdown is intentional, re-record benchmarks/BENCH_noc.json"
    )


def test_latency_sweep_throughput(benchmark, machine_scale):
    rates = (0.01, 0.03, 0.06, 0.10, 0.14)
    duration = BASELINE["duration"]

    def run():
        characterize(uniform_random, rates, duration=duration)
        characterize(transpose, rates, duration=duration)

    t0 = time.perf_counter()
    benchmark.pedantic(run, rounds=1, iterations=1)
    _assert_within_budget("noc_latency_sweep", time.perf_counter() - t0, machine_scale)


def _layer_hotspot_run(acc, layer, compression=None):
    sched = acc.schedule_layer(layer, compression=compression)
    sim = NocSimulator(Mesh(4, 4))
    mcs = {c: MemoryInterface(c) for c in sim.mesh.corner_ids()}
    for mc in mcs.values():
        sim.attach_node(mc)
    for pe_id, (w, i, o, comp, dec, macs) in sched.pe_work.items():
        pe = ProcessingElement(pe_id)
        pe.assign(
            PETask(
                w,
                i,
                o,
                sim.mesh.nearest_corner(pe_id),
                comp,
                dec,
                macs,
                streamed=sched.streamed,
            )
        )
        sim.attach_node(pe)
    for job in sched.dram_reads():
        mcs[job.mc].schedule_read(ReadJob(job.dsts, job.nbytes, job.traffic_class))
    return sim.run()


def test_layer_hotspot_throughput(benchmark, machine_scale):
    acc = Accelerator()
    layer = zoo.lenet5.full().layer("dense_1")

    t0 = time.perf_counter()
    benchmark.pedantic(lambda: _layer_hotspot_run(acc, layer), rounds=1, iterations=1)
    _assert_within_budget("noc_layer_hotspot", time.perf_counter() - t0, machine_scale)


def test_layer_hotspot_fused_throughput(benchmark, machine_scale):
    """The fused streamed-decode arm of the layer hotspot.

    Compressed weight flits plus decode/fetch overlap must keep this
    workload at least ``min_speedup_vs_seed`` times faster than the
    pre-rework (seed) materialized run — the roadmap's fused-kernel
    target — in addition to the usual slowdown guard on its own
    baseline.
    """
    acc = Accelerator(AcceleratorConfig(streamed_decode=True))
    spec = zoo.lenet5.full()
    layer = spec.layer("dense_1")
    blob = LineFitCodec(delta=0.05).encode(spec.materialize("dense_1").ravel())
    effect = acc.compression_effect(provider_for(blob))
    assert effect.streamed

    t0 = time.perf_counter()
    benchmark.pedantic(
        lambda: _layer_hotspot_run(acc, layer, compression=effect),
        rounds=1,
        iterations=1,
    )
    elapsed = time.perf_counter() - t0
    _assert_within_budget("noc_layer_hotspot_fused", elapsed, machine_scale)

    entry = BASELINE["benchmarks"]["noc_layer_hotspot_fused"]
    seed_budget = entry["pre_seconds"] * machine_scale / entry["min_speedup_vs_seed"]
    assert elapsed <= seed_budget, (
        f"fused layer run: {elapsed:.3f}s misses the "
        f"{entry['min_speedup_vs_seed']}x-over-seed target "
        f"({entry['pre_seconds']}s x machine scale {machine_scale:.2f} / "
        f"{entry['min_speedup_vs_seed']} = {seed_budget:.3f}s)"
    )


def test_txn_model_throughput(benchmark, machine_scale):
    """The transaction model over the paper's large networks (Fig. 10).

    VGG-16, ResNet50 and Inception-v3 at full scale, one ``mode="txn"``
    pass each.  The model counts every DRAM read job and ofmap write in
    closed form, so a pass must stay within ``MAX_SLOWDOWN`` of its
    committed time; serving the same jobs chunk by chunk
    (``pre_seconds``) misses this budget many times over.
    """
    acc = Accelerator()
    specs = [zoo.vgg16.full(), zoo.resnet50.full(), zoo.inception_v3.full()]

    def run():
        for spec in specs:
            acc.run_model(spec, mode="txn")

    best = benchmark.pedantic(
        lambda: min(_timed(run) for _ in range(3)), rounds=1, iterations=1
    )
    _assert_within_budget("txn_model_zoo", best, machine_scale)


def test_decode_throughput(benchmark, machine_scale):
    """Per-codec decode bandwidth, materialized and streamed arms.

    Each codec must stay within ``MAX_SLOWDOWN`` of its committed MB/s
    on both arms (after machine scaling); a drop means the decode plan,
    its kernel or a provider cursor has regressed.  Besides the Gaussian
    stream every codec decodes, a line-fit ramp of 65535-weight segments
    (the length field's limit) guards the kernel's long-segment branch.
    """
    spec = BASELINE["decode_throughput"]
    weights = (
        np.random.default_rng(42)
        .standard_normal(spec["num_weights"])
        .astype(np.float32)
    )
    ramp_spec = spec["long_segments"]
    ramp = np.linspace(-1.0, 1.0, ramp_spec["num_weights"], dtype=np.float32)
    tile = spec["tile_weights"]

    def rates(codec, stream):
        blob = codec.encode(stream)
        t_mat = min(_timed(codec.decode, blob) for _ in range(2))

        def streamed():
            cur = BlobProvider(blob).cursor()
            while cur.remaining:
                cur.read(tile)

        t_str = min(_timed(streamed) for _ in range(2))
        mb = stream.nbytes / 1e6
        return mb / t_mat, mb / t_str

    def measure():
        out = {
            name: rates(get_codec(name, delta_pct=10.0), weights)
            for name in spec["codecs"]
        }
        out["long_segments"] = rates(LineFitCodec(delta_pct=10.0), ramp)
        return out

    measured = benchmark.pedantic(measure, rounds=1, iterations=1)
    entries = {**spec["codecs"], "long_segments": ramp_spec}
    for name, entry in entries.items():
        for arm, got in zip(("materialized_mbps", "streamed_mbps"), measured[name]):
            required = entry[arm] / (machine_scale * MAX_SLOWDOWN)
            assert got >= required, (
                f"{name} {arm}: {got:.1f} MB/s below the "
                f"{required:.1f} MB/s floor (committed {entry[arm]} MB/s / "
                f"machine scale {machine_scale:.2f} / slowdown guard "
                f"{MAX_SLOWDOWN}) — decode throughput has regressed; if "
                "intentional, re-record benchmarks/BENCH_noc.json"
            )


def test_encode_throughput(benchmark, machine_scale):
    """Line-fit encode bandwidth at both ends of the sweep's δ range.

    ``LineFitCodec.encode`` segments, fits and packs a 2 M-weight
    Gaussian stream.  Each δ must stay within ``MAX_SLOWDOWN`` of its
    committed MB/s (after machine scaling); a drop means the windowed
    segmentation, the line fit or the wire packer has regressed.
    """
    spec = BASELINE["encode_throughput"]
    weights = (
        np.random.default_rng(42)
        .standard_normal(spec["num_weights"])
        .astype(np.float32)
    )
    mb = weights.nbytes / 1e6

    def measure():
        return {
            pct: mb
            / min(
                _timed(LineFitCodec(delta_pct=float(pct)).encode, weights)
                for _ in range(2)
            )
            for pct in spec["delta_pct"]
        }

    measured = benchmark.pedantic(measure, rounds=1, iterations=1)
    for pct, entry in spec["delta_pct"].items():
        required = entry["post_mbps"] / (machine_scale * MAX_SLOWDOWN)
        assert measured[pct] >= required, (
            f"linefit encode at delta_pct={pct}: {measured[pct]:.1f} MB/s "
            f"below the {required:.1f} MB/s floor (committed "
            f"{entry['post_mbps']} MB/s / machine scale {machine_scale:.2f} / "
            f"slowdown guard {MAX_SLOWDOWN}) — encode throughput has "
            "regressed; if intentional, re-record benchmarks/BENCH_noc.json"
        )


def test_encode_peak_memory():
    """Traced peak of the same line-fit encodes, in bytes per segment.

    The codec packs each window into its message as the window is fit,
    so an encode holds the packed body, the returned payload and about
    one window: the peak must stay within ``MAX_PEAK_GROWTH`` of the
    committed bytes per segment.  Traced bytes do not depend on the
    host, so no machine scaling applies.
    """
    spec = BASELINE["encode_throughput"]
    weights = (
        np.random.default_rng(42)
        .standard_normal(spec["num_weights"])
        .astype(np.float32)
    )
    for pct, entry in spec["delta_pct"].items():
        codec = LineFitCodec(delta_pct=float(pct))
        tracemalloc.start()
        try:
            blob = codec.encode(weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_segment = peak / blob.num_segments
        limit = entry["post_peak_bytes_per_segment"] * MAX_PEAK_GROWTH
        assert per_segment <= limit, (
            f"linefit encode at delta_pct={pct}: traced peak "
            f"{per_segment:.2f} B/segment over the {limit:.2f} limit "
            f"(committed {entry['post_peak_bytes_per_segment']} x "
            f"{MAX_PEAK_GROWTH}) — the encode holds more than its body, its "
            "payload and one window; if intentional, re-record "
            "benchmarks/BENCH_noc.json"
        )


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0
