"""The ``sweep`` workload: the paper's δ-sweep, compress → simulate.

Grid: LeNet-5 on the flit-level simulator, MobileNet, ResNet50 and
Inception-v3 on the transaction model; each model's ``DELTA_GRID``
plus its uncompressed baseline, 24 points.  A point materializes the
full-scale ``SELECTED_LAYER`` from the run's seed, encodes it with the
line-fit codec and runs ``Accelerator.run_model``.  The grid runs
through ``run_tasks(jobs=1)`` into a fresh ``ResultCache`` per pass.

AlexNet and VGG-16 stay out: their 16.8 M- and 102.8 M-weight selected
layers would turn the run into a minutes-long encode-only benchmark.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass

import numpy as np
from bench_common import HostSpeed, median, percentile, sub_seed

from repro.core.codecs import get_codec
from repro.core.provider import provider_for
from repro.mapping import Accelerator
from repro.nn import zoo
from repro.runtime import GridTask, ResultCache, result_key, run_tasks
from repro.runtime.shard import results_digest

import bench_trace as bt

perf = time.perf_counter

#: (model, simulator mode); LeNet-5 is small enough for the flit level
MODELS = ((zoo.lenet5, "flit"), (zoo.mobilenet, "txn"), (zoo.resnet50, "txn"),
          (zoo.inception_v3, "txn"))
#: set-ups per run; ``setup_s`` is their median
SETUPS = 5
#: seconds of work between two reference slices (``HostSpeed``)
PIECE_S = 0.3


class SlicedAccelerator(Accelerator):
    """Takes a reference slice after a layer once ``PIECE_S`` has passed
    since the last, so even a long point is scaled piece by piece."""

    def __init__(self, host: HostSpeed, config=None) -> None:
        super().__init__(config)
        self._host = host

    def run_layer(self, schedule, mode="txn"):
        out = super().run_layer(schedule, mode=mode)
        self._host.maybe_step(PIECE_S)
        return out


class PassClock:
    """The ``(start, end)`` of every point of one pass; with a host, a
    reference slice is due before a point and between its layers."""

    def __init__(self, host: HostSpeed | None) -> None:
        self.host = host
        self.points: list[tuple[float, float]] = []


def sweep_point(index: int, model_name: str, mode: str, pct, seed: int, clock: PassClock,
                rec):
    """Grid point ``index`` (``pct=None`` is the uncompressed baseline).

    ``clock`` collects the point's start and end; ``rec`` is ``None``
    when untraced, else the recorder the traced shims write to (a traced
    pass takes reference slices only between points).
    """
    if clock.host is not None:
        clock.host.maybe_step(PIECE_S)
    t0 = perf()
    if rec is not None:
        rec.rid = index
    module = zoo.BY_NAME[model_name]
    spec = module.full()
    if rec is not None:
        acc = bt.TimedAccelerator(rec)
    elif clock.host is not None:
        acc = SlicedAccelerator(clock.host)
    else:
        acc = Accelerator()
    if pct is None:
        result = acc.run_model(spec, mode=mode)
    else:
        layer = module.SELECTED_LAYER
        with bt.timed(rec, "nn", "materialize"):
            weights = spec.materialize(layer, seed=seed).ravel()
        with bt.timed(rec, "core", "encode") as span:
            blob = get_codec("linefit", delta_pct=float(pct)).encode(weights)
        if span is not None:
            span.extra = (weights.size, blob.num_segments)
        result = acc.run_model(spec, {layer: blob}, mode=mode)
    t1 = perf()
    if rec is not None:
        rec.add("runtime", "task", t0, t1, track="main")
    clock.points.append((t0, t1))
    return result


def direct_point(model_name: str, mode: str, pct, seed: int):
    """The same point as a direct ``Accelerator.run_model`` call (the
    reference the runtime's results must equal), and its blob."""
    module = zoo.BY_NAME[model_name]
    spec = module.full()
    if pct is None:
        return Accelerator().run_model(spec, mode=mode), None
    layer = module.SELECTED_LAYER
    blob = get_codec("linefit", delta_pct=float(pct)).encode(
        spec.materialize(layer, seed=seed).ravel()
    )
    return Accelerator().run_model(spec, {layer: blob}, mode=mode), blob


class Grid:
    """The keyed task list for one pass, built from the run's seed."""

    def __init__(self, seed: int) -> None:
        self.points = []
        for module, mode in MODELS:
            mseed = sub_seed(seed, f"materialize/{module.NAME}")
            for pct in (None, *module.DELTA_GRID):
                self.points.append((module.NAME, mode, None if pct is None else float(pct),
                                    mseed))
        # specs are built per point inside the task; building them here
        # once checks every selected layer exists before timing starts
        for module, _ in MODELS:
            module.full().layer(module.SELECTED_LAYER)

    def key(self, index: int) -> str:
        name, mode, pct, mseed = self.points[index]
        return result_key("perfbench-sweep", model=name, mode=mode, delta_pct=pct, seed=mseed)

    def tasks(self, clock: PassClock, rec) -> list[GridTask]:
        return [
            GridTask(fn=sweep_point, args=(i, *point, clock, rec), key=self.key(i))
            for i, point in enumerate(self.points)
        ]


@dataclass
class Pass:
    """One grid pass through ``run_tasks`` into a fresh result cache."""

    results: list
    #: wall time of the pass, reference slices included, and its bounds
    elapsed: float
    window: tuple[float, float]
    #: the pass and each of its points without the reference slices, as
    #: measured (``raw``, ``times``) and scaled to the reference host
    raw: float
    seconds: float
    times: list[float]
    scaled_times: list[float]
    digest: str
    cache: ResultCache
    tasks: list[GridTask]


def run_pass(grid: Grid, cache_dir, host: HostSpeed, rec=None) -> Pass:
    shutil.rmtree(cache_dir, ignore_errors=True)
    if rec is None:
        cache = ResultCache(cache_dir, enabled=True)
    else:
        cache = bt.TimedResultCache(
            rec, cache_dir, {grid.key(i): i for i in range(len(grid.points))})
    clock = PassClock(host)
    tasks = grid.tasks(clock, rec)
    host.step()  # the slice the pass's first piece starts from
    t0 = perf()
    results = run_tasks(tasks, jobs=1, cache=cache)
    t1 = perf()
    host.step()  # ... and the one its last piece ends at
    raw, seconds = host.span(t0, t1)
    points = [host.span(a, b) for a, b in clock.points]
    return Pass(results, t1 - t0, (t0, t1), raw, seconds, [t for t, _ in points],
                [s for _, s in points], results_digest(tasks, cache), cache, tasks)


def set_up(seed: int, workdir) -> Grid:
    """Grid build, fresh result cache, and a warm-up point."""
    grid = Grid(seed)
    cache = ResultCache(workdir / "warmup", enabled=True)
    run_tasks([GridTask(fn=sweep_point, args=(0, *grid.points[0], PassClock(None), None),
                        key=grid.key(0))],
              jobs=1, cache=cache)
    shutil.rmtree(workdir / "warmup", ignore_errors=True)
    return grid


def sim_metrics(grid: Grid, results) -> dict:
    """The paper's Fig. 10 axes: mean over compressed points of modelled
    latency and energy, each over its model's uncompressed baseline."""
    base = {name: res for (name, _, pct, _), res in zip(grid.points, results) if pct is None}
    lat, en = [], []
    for (name, _, pct, _), res in zip(grid.points, results):
        if pct is not None:
            lat.append(res.total_latency.total / base[name].total_latency.total)
            en.append(res.total_energy.total / base[name].total_energy.total)
    return {"sim_norm_latency": sum(lat) / len(lat), "sim_norm_energy": sum(en) / len(en)}


def check(grid: Grid, passes: list[Pass], divergence: bool) -> tuple[int, list[str], float]:
    """Every point equals a direct ``Accelerator.run_model`` call, and
    every pass and a warm-cache replay give the same digest.  Returns
    ``(wrong points, problems, divergence)``; with ``divergence`` the
    last is the largest |streamed − materialized| decoded weight over
    the grid's blobs (else 0)."""
    problems = []
    last = passes[-1]
    wrong = 0
    worst = 0.0
    for i, (point, res) in enumerate(zip(grid.points, last.results)):
        direct, blob = direct_point(*point)
        if res != direct:
            wrong += 1
            problems.append(f"point {i} {point[:3]} differs from a direct run_model call")
        if divergence and blob is not None:
            streamed = provider_for(blob).materialize().astype(np.float64)
            full = np.asarray(get_codec("linefit").decode(blob), dtype=np.float64).ravel()
            worst = max(worst, float(np.max(np.abs(streamed - full))))
    if run_tasks(last.tasks, jobs=1, cache=last.cache) != last.results:
        problems.append("warm-cache replay returned different results")
    digests = {p.digest for p in passes} | {results_digest(last.tasks, last.cache)}
    if len(digests) != 1:
        problems.append(f"grid digest does not repeat: {sorted(digests)}")
    return wrong, problems, worst


def run(seed: int, seconds: float, trace: bool, workdir, log) -> dict:
    host = HostSpeed()
    setups = []
    for _ in range(SETUPS):
        t0 = perf()
        grid = set_up(seed, workdir)
        setups.append((t0, perf()))
        host.step()
    # whole passes while the next one (as long as the last) still fits
    budget = seconds / 2 if trace else seconds
    passes = [run_pass(grid, workdir / "cache0", host)]
    while sum(p.elapsed for p in passes) + passes[-1].elapsed <= budget:
        passes.append(run_pass(grid, workdir / f"cache{len(passes)}", host))
    wall = sum(p.seconds for p in passes)
    npoints = sum(len(p.results) for p in passes)
    e2e = {
        "throughput_rps": npoints / wall,
        # per pass, so a run of one pass and a run of two agree on what they measure
        "latency_p50_ms": float(np.mean([percentile(p.scaled_times, 50) for p in passes])) * 1e3,
        "latency_p99_ms": float(np.mean([percentile(p.scaled_times, 99) for p in passes])) * 1e3,
        "setup_s": median([host.span(*w)[1] for w in setups]),
        **sim_metrics(grid, passes[-1].results),
    }
    flit = [(res.total_latency.total, t) for p in passes
            for (_, mode, _, _), res, t in zip(grid.points, p.results, p.scaled_times)
            if mode == "flit"]
    raw = sum(p.raw for p in passes)
    log(f"sweep: {len(passes)} pass(es) of {len(grid.points)} points in {raw:.2f} s "
        f"({npoints / raw:.3f} points/s as measured); scaled to the reference host: "
        f"{e2e['throughput_rps']:.3f} points/s, point p50 {e2e['latency_p50_ms']:.1f} ms, "
        f"p99 {e2e['latency_p99_ms']:.1f} ms (n={len(grid.points)} a pass), "
        f"setup {e2e['setup_s']:.3f} s (median of {SETUPS}), flit points at "
        f"{sum(c for c, _ in flit) / sum(t for _, t in flit):.0f} cycles/s; "
        f"{host.describe()}; digest {passes[-1].digest}")
    result = {"e2e": e2e, "attempted": npoints, "problems": []}
    if trace:
        result["layers"] = traced(grid, workdir, host, passes[-1], log, result)
    wrong, problems, divergence = check(grid, passes, divergence=trace)
    # every pass has the checked pass's digest, so a wrong point is wrong in each
    result["failed"] = wrong * len(passes)
    result["problems"] += problems
    e2e["ok_frac"] = (len(grid.points) - wrong) / len(grid.points)
    if trace:
        result["layers"]["core.decode_divergence"] = divergence
    return result


def traced(grid: Grid, workdir, host: HostSpeed, untraced: Pass, log, result) -> dict:
    """A traced pass: per-layer metrics and attribution."""
    from repro import obs

    rec = bt.Recorder()
    o = obs.Obs()
    with obs.use(o):
        p = run_pass(grid, workdir / "traced", host, rec)
    if p.digest != untraced.digest:
        result["problems"].append("traced pass digest differs from the untraced pass")
    # the reference slices between points belong to no layer
    wall = p.raw
    spans = rec.window(*p.window)
    modules = bt.nested_self_times(spans)
    covered = bt.union_length([(s.t0, s.t1) for s in spans])
    unattributed = wall - covered

    def total(layer, name=None):
        return sum(s.dur for s in spans if s.layer == layer and (name is None or s.name == name))

    def counter(name):
        return sum(r["value"] for r in o.metrics.snapshot() if r["name"] == name)

    flit_cycles = sum(s.extra for s in spans if s.name == "run_layer.flit")
    encodes = [s for s in spans if s.name == "encode"]
    encode_s = sum(s.dur for s in encodes)
    overhead = p.seconds / untraced.seconds - 1.0
    layers = {
        "core.encode_s": encode_s,
        "core.encode_mwps": sum(s.extra[0] for s in encodes) / encode_s / 1e6,
        "core.segments": sum(s.extra[1] for s in encodes),
        "nn.materialize_s": total("nn", "materialize"),
        "mapping.schedule_s": total("mapping"),
        "mapping.layers": sum(1 for s in spans if s.layer == "mapping"),
        "noc.flit_s": total("noc", "run_layer.flit"),
        "noc.txn_s": total("noc", "run_layer.txn"),
        "noc.host_us_per_cycle": total("noc", "run_layer.flit") / flit_cycles * 1e6,
        "noc.cycles_stepped": counter("noc.cycles.stepped"),
        "noc.cycles_fast_forwarded": counter("noc.cycles.fast_forwarded"),
        "noc.stalled_polls": counter("noc.routers.stalled_polls"),
        "noc.cycles": sum(r.total_latency.total for r in p.results),
        "noc.flit_hops": sum(lr.events["flit_hops"] for r in p.results for lr in r.layers),
        "runtime.task_s": sum(p.times),
        "runtime.overhead_s": p.raw - sum(p.times),
        "runtime.cache_puts": p.cache.puts,
        "unattributed_frac": unattributed / wall,
        "trace_overhead_frac": overhead,
    }
    log(bt.render_table("sweep", modules, wall))
    log(f"sweep: unattributed {unattributed / wall:.2%} of {wall:.2f} s; tracing overhead "
        f"{overhead:+.1%} ({untraced.seconds:.2f} s untraced vs {p.seconds:.2f} s traced pass, "
        f"both scaled to the reference host)")
    if layers["unattributed_frac"] > 0.10:
        result["problems"].append(f"unattributed_frac {layers['unattributed_frac']:.3f} > 0.10")
    result["obs"] = (o, spans)
    return layers
