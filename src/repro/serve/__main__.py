"""``python -m repro.serve`` — demo driver for the inference service.

Default mode runs an in-process demo: load the LeNet-5 demo archive,
start the service, fire N concurrent requests through the asyncio
submit path, and print a latency/throughput/batching summary.  With
``--listen`` it instead serves the JSON-lines TCP protocol until
interrupted; with ``--client HOST:PORT`` it plays the demo client
against a running server.

``--replicas N`` runs the supervised fleet demo instead: N worker
processes serving the tiny bench archive behind the retry router,
driven by the same concurrent load.  ``--chaos kill`` SIGKILLs one
replica mid-load (``--chaos corrupt`` additionally bit-flips the
archive file first) and the summary reports availability, restarts and
recovery — the CI chaos smoke runs exactly this.

``REPRO_OBS=<dir>`` (or ``--obs <dir>``) dumps the service's metrics
and trace (``metrics.json`` / ``metrics.csv`` / ``trace.json``) after
the run — QPS, latency and batch-size histograms, cache hit rate, shed
count, and in fleet mode the ``serve.fleet.*`` supervision counters.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import time

import numpy as np

from .. import obs
from ..runtime.pool import RunPolicy
from .cache import DecodedWeightCache
from .demo import bench_model, demo_inputs, demo_model
from .replies import Ok
from .server import request_many, serve_tcp
from .service import InferenceService, ServeConfig


def _build(args) -> tuple[InferenceService, tuple[int, ...]]:
    cache = DecodedWeightCache()
    fast = os.environ.get("REPRO_FAST", "") == "1"
    served = bench_model(cache) if (args.tiny or fast) else demo_model(cache)
    config = ServeConfig(
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        policy=RunPolicy(timeout=args.deadline),
    )
    return InferenceService(served, config), served.input_shape


def _percentile(xs: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(xs), q)) if xs else float("nan")


def _summarize(service: InferenceService, replies, elapsed: float) -> None:
    lat = [r.latency_s for r in replies if isinstance(r, Ok)]
    n_ok = len(lat)
    c = service.counters()
    cache = service.model.cache.counters() if hasattr(service.model, "cache") else {}
    print(f"requests          {c['requests']}")
    print(f"ok                {n_ok}  ({n_ok / elapsed:.0f} rps)")
    print(
        f"degraded          shed={c['shed']} "
        f"deadline_expired={c['deadline_expired']} "
        f"deadline_exceeded={c['deadline_exceeded']} failed={c['failed']}"
    )
    if lat:
        print(
            f"latency           p50={_percentile(lat, 50) * 1e3:.2f}ms "
            f"p99={_percentile(lat, 99) * 1e3:.2f}ms"
        )
    if c["batches"]:
        print(f"batches           {c['batches']}  (mean size {n_ok / c['batches']:.1f})")
    if cache:
        print(
            f"weight cache      hits={cache['cache_hits']} "
            f"misses={cache['cache_misses']} "
            f"evictions={cache['cache_evictions']} "
            f"bytes={cache['cache_bytes']}"
        )


async def _demo(args) -> int:
    service, input_shape = _build(args)
    inputs = demo_inputs(args.requests, input_shape)
    sem = asyncio.Semaphore(args.concurrency)

    async def one(x):
        async with sem:
            return await service.submit(x)

    async with service:
        start = time.perf_counter()
        replies = await asyncio.gather(*(one(x) for x in inputs))
        elapsed = time.perf_counter() - start
    _summarize(service, replies, elapsed)
    return 0


async def _listen(args) -> int:
    service, _ = _build(args)
    host, _, port = args.listen.partition(":")
    async with service:
        server = await serve_tcp(service, host or "127.0.0.1", int(port or 0))
        addr = server.sockets[0].getsockname()
        print(f"serving on {addr[0]}:{addr[1]}  (ctrl-c to stop)")
        try:
            async with server:
                await server.serve_forever()
        except asyncio.CancelledError:
            pass
    return 0


async def _fleet(args) -> int:
    import tempfile

    from ..resilience.chaos import ChaosEvent, run_campaign
    from .demo import BENCH_INPUT_SHAPE, bench_archive_model, save_bench_archive
    from .fleet import FleetConfig, ReplicaFleet, ReplicaSpec

    with tempfile.TemporaryDirectory() as td:
        path = save_bench_archive(os.path.join(td, "fleet-demo.npz"))
        spec = ReplicaSpec(
            factory=bench_archive_model,
            factory_kwargs={"path": str(path), "on_fault": "zero"},
            config=ServeConfig(
                max_batch=args.max_batch,
                max_queue=args.max_queue,
                policy=RunPolicy(timeout=args.deadline),
            ),
        )
        config = FleetConfig(
            replicas=args.replicas,
            probe_interval_s=0.1,
            policy=RunPolicy(timeout=args.deadline),
        )
        inputs = demo_inputs(
            min(args.requests, 64), BENCH_INPUT_SHAPE
        )
        events = ()
        if args.chaos == "kill":
            events = (ChaosEvent(at=args.duration * 0.25, kind="kill", target=0),)
        elif args.chaos == "corrupt":
            events = (
                ChaosEvent(at=args.duration * 0.25, kind="corrupt", target=0),
            )
        async with ReplicaFleet(spec, config) as fleet:
            result = await run_campaign(
                fleet,
                inputs,
                duration_s=args.duration,
                concurrency=args.concurrency,
                events=events,
                archive_path=path,
                deadline=args.deadline,
            )
            counters = fleet.counters()
        print(f"replicas          {args.replicas}  (chaos: {args.chaos or 'none'})")
        print(f"requests          {result.total}  ({result.total / result.elapsed_s:.0f} rps)")
        print(f"ok                {result.ok}  (degraded {result.degraded_ok})")
        print(f"availability      {result.availability:.3f}")
        print(f"untyped           {result.untyped}")
        print(f"by_status         {result.by_status}")
        print(f"restarts          {result.restarts}")
        if result.recovery_s is not None:
            print(f"recovery          {result.recovery_s:.2f}s after last event")
        print(f"fleet counters    {counters}")
    return 0


async def _client(args) -> int:
    host, _, port = args.client.partition(":")
    # client side cannot know the server's model; --tiny must match
    shape = (64,) if args.tiny else (1, 28, 28)
    inputs = demo_inputs(args.requests, shape)
    start = time.perf_counter()
    docs = await request_many(host, int(port), inputs, deadline=args.deadline)
    elapsed = time.perf_counter() - start
    n_ok = sum(1 for d in docs if d["status"] == "ok")
    print(f"{len(docs)} replies in {elapsed:.3f}s  ({n_ok} ok, {n_ok / elapsed:.0f} rps)")
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__.split("\n\n")[0]
    )
    p.add_argument("--requests", type=int, default=200, help="demo request count")
    p.add_argument(
        "--concurrency", type=int, default=16, help="in-flight demo requests"
    )
    p.add_argument("--deadline", type=float, default=1.0, help="per-request seconds")
    p.add_argument("--max-batch", type=int, default=32)
    p.add_argument("--max-queue", type=int, default=128)
    p.add_argument(
        "--tiny", action="store_true", help="serve the tiny bench MLP (default in REPRO_FAST)"
    )
    p.add_argument("--listen", metavar="HOST:PORT", help="run the TCP server")
    p.add_argument("--client", metavar="HOST:PORT", help="run the demo client")
    p.add_argument(
        "--replicas", type=int, default=0,
        help="run the supervised fleet demo with N worker processes",
    )
    p.add_argument(
        "--chaos", choices=["kill", "corrupt"],
        help="fleet demo: inject this fault mid-load",
    )
    p.add_argument(
        "--duration", type=float, default=5.0,
        help="fleet demo: seconds of load",
    )
    p.add_argument("--obs", metavar="DIR", help="dump metrics/trace here")
    args = p.parse_args(argv)

    runner = (
        _client if args.client
        else _listen if args.listen
        else _fleet if args.replicas
        else _demo
    )
    obs_dir = args.obs or obs.obs_dir_from_env()
    if obs_dir:
        with obs.use(obs.Obs()) as o:
            rc = asyncio.run(runner(args))
            obs.write_outputs(o, obs_dir)
            print(f"obs outputs -> {obs_dir}")
    else:
        rc = asyncio.run(runner(args))
    return rc


if __name__ == "__main__":
    sys.exit(main())
