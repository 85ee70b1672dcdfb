"""The two serve workloads: LeNet-5 behind ``InferenceService``.

``serve_hot`` serves through ``ServedModel`` and a ``DecodedWeightCache``
that holds every layer, so after warm-up the decode is off the request
path.  ``serve_stream`` hands the service a thin ``forward_batch``
adapter over ``Model.forward_streamed`` with blob providers built once
at set-up, so every request decodes every layer tile by tile inside the
MAC loop (the paper's on-PE decompression).  Both run the same archive,
inputs and closed-loop client: ``IN_FLIGHT`` requests outstanding from
one process, default ``ServeConfig`` (1 s deadline).
"""

from __future__ import annotations

import asyncio
import itertools
import time
from array import array
from dataclasses import dataclass

import numpy as np
from bench_common import (INPUT_SHAPE, HostSpeed, dtype_exact_equal, median, percentile,
                          serve_inputs, sub_seed)

import bench_trace as bt
from repro.core.codecs import CompressedBlob, get_codec
from repro.core.model_store import load_archive
from repro.core.provider import provider_for
from repro.mapping import Accelerator
from repro.nn import zoo
from repro.serve import InferenceService, Ok, ServeConfig, ServedModel, decoded_weight_key

perf = time.perf_counter

IN_FLIGHT = 4
#: warm-up requests per set-up (the first fills the decoded-weight cache)
WARMUP = 2 * IN_FLIGHT
#: set-ups per run; ``setup_s`` is their median
SETUPS = 9
#: replies a run needs for ten of them to lie beyond its p99
P99_SAMPLES = 1000
#: seconds of closed loop between two reference slices
BLOCK_S = 0.2


class StreamedModel:
    """``forward_batch`` over ``Model.forward_streamed`` with fixed
    providers: every request re-decodes every layer inside the MACs."""

    def __init__(self, model, providers: dict, input_shape) -> None:
        self.model = model
        self.providers = providers
        self.input_shape = tuple(input_shape)

    def forward_batch(self, samples):
        return [
            self.model.forward_streamed(np.asarray(x)[None, ...], self.providers)[0]
            for x in samples
        ]


def _blobs(archive) -> dict[str, CompressedBlob]:
    return {
        name: CompressedBlob.rebuild(archive.codecs[name], payload)
        for name, (payload, _) in archive.compressed.items()
    }


class Build:
    """One set-up's objects: archive, model, service (and, traced, the
    shims that time them)."""

    def __init__(self, kind: str, path, seed: int, rec: bt.Recorder | None) -> None:
        t0 = perf()
        self.archive = archive = load_archive(path)
        self.archive_load_s = perf() - t0
        skeleton = zoo.lenet5.proxy(np.random.default_rng(sub_seed(seed, "skeleton")))
        forward = None
        if rec is not None:
            forward = bt.TimedForward(rec)
            skeleton = bt.wrap_skeleton(skeleton, rec, forward)
        t1 = perf()
        self.cache = None
        if kind == "serve_hot":
            if rec is not None:
                node_of_key = {
                    decoded_weight_key(payload, archive.codecs.get(name), shape): name
                    for name, (payload, shape) in archive.compressed.items()
                }
                self.cache = bt.TimedCache(rec, node_of_key)
            model = ServedModel(skeleton, archive, cache=self.cache, input_shape=INPUT_SHAPE)
            self.cache = model.cache
        else:
            state = skeleton.state_dict()
            state.update(archive.state)
            skeleton.load_state_dict(state)
            providers = {name: provider_for(blob) for name, blob in _blobs(archive).items()}
            if rec is not None:
                providers = {
                    name: bt.TimedProvider(p, rec, len(archive.compressed[name][0]))
                    for name, p in providers.items()
                }
            model = StreamedModel(skeleton, providers, INPUT_SHAPE)
        # provider build; the cache fill happens in the warm-up requests
        self.weights_ready_s = perf() - t1
        self.model = model
        if forward is not None:
            forward.wrap(model)
        self.service = InferenceService(forward or model, ServeConfig())


class Tally:
    """Replies of one closed loop, each checked as it arrives against
    the serial reference output for its input."""

    def __init__(self, reference: list | None, keep_ids: bool) -> None:
        self.reference = reference
        self.latencies = array("d")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: request id -> latency, for the traced per-request split
        self.latency_of: dict[int, float] | None = {} if keep_ids else None

    def record(self, rid: int, idx: int, latency: float, reply) -> None:
        self.attempted += 1
        if not isinstance(reply, Ok):
            self.failed += 1
            if len(self.problems) < 3:
                self.problems.append(f"non-Ok reply for request {rid}: {reply!r}")
            return
        if self.reference is not None and not dtype_exact_equal(reply.output,
                                                                self.reference[idx]):
            self.failed += 1
            if len(self.problems) < 3:
                self.problems.append(f"reply {rid} (input {idx}) differs from the serial pass")
            return
        self.latencies.append(latency)
        if self.latency_of is not None:
            self.latency_of[rid] = latency


async def closed_loop(svc, inputs, tally: Tally, rec: bt.Recorder | None, rids,
                      seconds: float = 0.0, count: int | None = None) -> tuple[float, float]:
    """``IN_FLIGHT`` clients, each submitting its next request as soon
    as the previous reply arrives, for ``seconds`` (or until request id
    ``count``); request ids come from the counter ``rids``.  Returns the
    window ``(t_start, t_end)``."""
    t_start = perf()
    t_stop = t_start + seconds

    async def client(k: int) -> None:
        track = f"client{k}"
        while True:
            rid = next(rids)
            done = rid >= count if count is not None else perf() >= t_stop
            if done:
                return
            idx = rid % len(inputs)
            x = inputs[idx]
            if rec is not None:
                x = x.view()  # a distinct object per request: its id names the request
                rec.rid_of[id(x)] = rid
            t0 = perf()
            reply = await svc.submit(x)
            t1 = perf()
            if rec is not None:
                del rec.rid_of[id(x)]
                rec.add("serve", "request", t0, t1, track=track, rid=rid)
            tally.record(rid, idx, t1 - t0, reply)

    await asyncio.gather(*(client(k) for k in range(IN_FLIGHT)))
    return t_start, perf()


async def set_up(kind, path, seed, inputs, rec) -> Build:
    """One set-up, ending with a warm service (cache filled)."""
    build = Build(kind, path, seed, rec)
    build.service.start()
    warm = Tally(None, keep_ids=False)
    await closed_loop(build.service, inputs, warm, rec, itertools.count(), count=WARMUP)
    if warm.failed:
        raise RuntimeError(f"warm-up failed: {warm.problems}")
    return build


@dataclass
class Measured:
    """One run's set-ups and measured closed loop."""

    build: Build
    #: set-up seconds, each scaled to the reference host
    setups: list[float]
    tally: Tally
    #: one ``(seconds, scaled seconds, replies so far)`` per block
    blocks: list[tuple[float, float, int]]
    #: ``(t_start, t_end)`` of the blocks, reference slices included
    window: tuple[float, float]
    #: decoded-weight cache counter deltas over the blocks
    cache_delta: dict
    host: HostSpeed

    @property
    def seconds(self) -> float:
        """Wall time in the blocks, as measured."""
        return sum(seconds for seconds, _, _ in self.blocks)


async def measure(kind, path, seed, inputs, seconds, rec) -> Measured:
    """``SETUPS`` set-ups (the last one kept), the serial reference pass,
    then the measured closed loop: blocks of ``BLOCK_S`` with a
    reference slice after each (``HostSpeed``).  The last set-up is
    traced when ``rec`` is given."""
    host = HostSpeed()
    setups = []
    for i in range(SETUPS):
        last = i == SETUPS - 1
        t0 = perf()
        build = await set_up(kind, path, seed, inputs, rec if last else None)
        setups.append((t0, perf()))
        host.step()
        if not last:
            await build.service.stop()
    # same model, same path, one request at a time
    reference = [build.model.forward_batch([x])[0] for x in inputs]
    tally = Tally(reference, keep_ids=rec is not None)
    before = build.cache.counters() if build.cache is not None else {}
    rids = itertools.count()
    blocks = []
    host.step()  # the slice before the first block
    t_start = perf()
    t_stop = t_start + seconds
    while (left := t_stop - perf()) > 0:
        window = await closed_loop(build.service, inputs, tally, rec, rids,
                                   seconds=min(BLOCK_S, left))
        host.step()
        blocks.append((window, len(tally.latencies)))
    t_end = perf()
    after = build.cache.counters() if build.cache is not None else {}
    await build.service.stop()
    cache_delta = {k: after[k] - before[k] for k in before}
    return Measured(build, [host.span(*w)[1] for w in setups], tally,
                    [(*host.span(*w), n) for w, n in blocks], (t_start, t_end), cache_delta, host)


def served_noc_cost(archive, log) -> dict:
    """The served archive on the flit-level NoC model, against the same
    model uncompressed: the paper's Fig. 10 axes for what is served
    (deterministic for a seed)."""
    spec = zoo.lenet5.full()
    acc = Accelerator()
    t0 = perf()
    base = acc.run_model(spec, mode="flit")
    comp = acc.run_model(spec, _blobs(archive), mode="flit")
    cycles = base.total_latency.total + comp.total_latency.total
    log(f"served archive on the NoC model: {cycles} cycles simulated at "
        f"{cycles / (perf() - t0):.0f} cycles/s")
    return {
        "sim_norm_latency": comp.total_latency.total / base.total_latency.total,
        "sim_norm_energy": comp.total_energy.total / base.total_energy.total,
    }


def e2e_metrics(m: Measured) -> dict:
    """Throughput, p50 and p99 over the run's replies, every reply
    latency scaled as its block's time is."""
    counts = np.diff([0] + [n for _, _, n in m.blocks])
    factors = np.repeat([scaled / seconds for seconds, scaled, _ in m.blocks], counts)
    lat_ms = np.frombuffer(m.tally.latencies, dtype=np.float64) * 1e3 * factors
    n = lat_ms.size
    if not n:
        return {"throughput_rps": 0.0, "latency_p50_ms": float("inf"),
                "latency_p99_ms": float("inf"), "ok_frac": 0.0}
    return {
        "throughput_rps": n / sum(scaled for _, scaled, _ in m.blocks),
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p99_ms": percentile(lat_ms, 99),
        "ok_frac": n / max(1, m.tally.attempted),
    }


def decode_divergence(archive) -> float:
    """Largest |streamed − materialized| over the archive's weights: the
    gap between the cursor decoder and the codec's full decode."""
    worst = 0.0
    for blob in _blobs(archive).values():
        streamed = provider_for(blob).materialize().astype(np.float64)
        full = np.asarray(get_codec(blob.codec, **blob.params).decode(blob), dtype=np.float64)
        worst = max(worst, float(np.max(np.abs(streamed - full.ravel()))))
    return worst


def run(kind: str, seed: int, seconds: float, trace: bool, workdir, log) -> dict:
    path, inputs = serve_inputs(seed, workdir)
    window = seconds / 2 if trace else seconds
    m = asyncio.run(measure(kind, path, seed, inputs, window, None))
    tally = m.tally
    e2e = e2e_metrics(m)
    e2e["setup_s"] = median(m.setups)
    n = len(tally.latencies)
    log(f"{kind}: {n} Ok replies in {m.seconds:.2f} s ({n / m.seconds:.1f} req/s as "
        f"measured); scaled to the reference host: {e2e['throughput_rps']:.1f} req/s, "
        f"p50 {e2e['latency_p50_ms']:.3f} ms and p99 {e2e['latency_p99_ms']:.3f} ms (n={n}), "
        f"setup {e2e['setup_s'] * 1e3:.1f} ms (median of {SETUPS}); {m.host.describe()}")
    if n < P99_SAMPLES:
        log(f"{kind}: fewer than {P99_SAMPLES} replies, so p99 has under ten samples beyond it")
    result = {"e2e": e2e, "attempted": tally.attempted, "failed": tally.failed,
              "problems": list(tally.problems)}
    if trace:
        result["layers"] = traced(kind, path, seed, inputs, window, e2e, log, result)
    else:
        e2e.update(served_noc_cost(m.build.archive, log))
    return result


def traced(kind, path, seed, inputs, seconds, untraced, log, result) -> dict:
    """The traced half: per-layer metrics, node table, attribution."""
    from repro import obs

    rec = bt.Recorder()
    o = obs.Obs()
    with obs.use(o):
        m = asyncio.run(measure(kind, path, seed, inputs, seconds, rec))
    build, tally, delta = m.build, m.tally, m.cache_delta
    result["attempted"] += tally.attempted
    result["failed"] += tally.failed
    result["problems"] += tally.problems
    traced_rps = e2e_metrics(m)["throughput_rps"]
    spans = rec.window(*m.window)
    # the reference slices between blocks belong to no layer and no request
    wall = m.seconds
    modules, unattributed = bt.exec_self_times(spans, wall)

    ok = max(1, len(tally.latencies))
    nodes = [s for s in spans if s.layer == "nn"]
    batches = [s for s in spans if s.name == "forward_batch"]
    # a reply waits for its whole batch's forward; the rest is queue and handoff
    waits = [
        (lat - rec.forward_s[rid]) * 1e3
        for rid, lat in tally.latency_of.items()
        if rid in rec.forward_s
    ]
    decode_s = sum(n.decode_s for n in nodes)
    node_s = sum(n.dur for n in nodes)
    per_node: dict[str, list] = {}
    for n in nodes:
        row = per_node.setdefault(n.name, [0.0, 0.0, 0])
        row[0] += n.decode_s
        row[1] += n.dur - n.decode_s
        row[2] += n.weight_bytes
    lookups = delta.get("cache_hits", 0) + delta.get("cache_misses", 0)
    fill_s = build.cache.fill_s if kind == "serve_hot" else build.weights_ready_s
    overhead = untraced["throughput_rps"] / traced_rps - 1.0
    layers = {
        "serve.forward_ms": median([b.dur for b in batches]) * 1e3,
        "serve.wait_ms": median(waits),
        "serve.batch_size": float(np.mean([b.extra for b in batches])),
        "serve.cache_hit_ratio": delta["cache_hits"] / lookups if lookups else 0.0,
        "serve.cache_evictions": delta.get("cache_evictions", 0),
        "core.decode_ms": decode_s / ok * 1e3,
        "core.decode_mbps": sum(n.out_bytes for n in nodes) / decode_s / 1e6,
        "core.tile_reads": sum(n.reads for n in nodes) / ok,
        "core.archive_load_ms": build.archive_load_s * 1e3,
        "core.cache_fill_ms": fill_s * 1e3,
        "core.weight_kb": sum(n.weight_bytes for n in nodes) / ok / 1e3,
        "core.decode_divergence": decode_divergence(build.archive),
        "nn.forward_ms": node_s / ok * 1e3,
        "nn.compute_ms": (node_s - decode_s) / ok * 1e3,
        "nn.macs": sum(n.macs for n in nodes) / ok,
        "unattributed_frac": unattributed / wall,
        "trace_overhead_frac": overhead,
    }
    lines = [f"{'node':<18}{'decode ms':>11}{'compute ms':>12}{'weight KB':>11}  (per request)"]
    for name, (dec, comp, wbytes) in per_node.items():
        lines.append(f"{name:<18}{dec / ok * 1e3:>11.4f}{comp / ok * 1e3:>12.4f}"
                     f"{wbytes / ok / 1e3:>11.2f}")
    log("\n".join(lines))
    log(bt.render_table(kind, modules, wall))
    log(f"{kind}: unattributed {unattributed / wall:.2%} of {wall:.2f} s; tracing overhead "
        f"{overhead:+.1%} ({untraced['throughput_rps']:.1f} untraced vs {traced_rps:.1f} "
        f"traced req/s, both scaled to the reference host)")
    if layers["unattributed_frac"] > 0.10:
        result["problems"].append(f"unattributed_frac {layers['unattributed_frac']:.3f} > 0.10")
    result["obs"] = (o, spans)
    return layers
