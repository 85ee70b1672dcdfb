"""Sharded, resumable sweep execution over the content-addressed keyspace.

A sweep grid is a list of :class:`~repro.runtime.pool.GridTask` whose
results land in a :class:`~repro.runtime.cache.ResultCache` under keys
that depend only on *what* each point computes.  That makes the grid a
work queue any number of processes can drain cooperatively — as long as
no two workers waste time on the same range and a dead worker's range
is eventually taken over.  This module supplies that coordination:

* **grid identity** — :func:`grid_id` hashes the ordered task keys, so
  every run of the same grid (any process, any machine sharing the
  cache dir) agrees on one namespace under ``<cache>/shards/<gid>/``;
* **shard-claim protocol** — the grid is split into contiguous task
  ranges (:func:`shard_ranges`); a worker claims shard ``i`` by
  ``O_CREAT | O_EXCL``-creating ``shard-%04d.lease`` (exactly one
  winner per filesystem semantics) and keeps the claim alive with a
  heartbeat thread that bumps the lease mtime.  A lease whose mtime is
  older than the TTL belongs to a dead worker: reclaim renames it to a
  unique tombstone (``shard-%04d.reclaimed-<nonce>``), and since only
  one ``os.rename`` of a given source can succeed, the takeover is
  exactly-once even with many greedy survivors;
* **resumability** — a finished shard persists an atomic
  ``shard-%04d.done.json`` marker carrying its task keys, the id of
  the :func:`run_sharded` call that ran it, its :mod:`repro.obs`
  export, and its run counters.  Kill any worker at
  any point and relaunch: done shards are skipped, the victim's lease
  expires and its shard re-runs.  Tasks are deterministic and results
  content-addressed, so duplicated execution converges — the re-run
  ``put`` writes byte-identical entries and last-writer-wins;
* **convergent assembly** — once every shard is done, the driver adopts
  the obs exports and folds the counters of the markers *this call*
  wrote (in shard order, so merges are deterministic; a resumed run
  reports only the work it did), and materializes the result list with
  a warm serial :func:`~repro.runtime.pool.run_tasks` pass — which is
  also the quarantine-aware reconciliation: an entry that rotted on
  disk is quarantined by the cache and simply re-executed in-process.

The module doubles as a CLI so independent OS processes (or hosts
sharing a filesystem) can cooperate on one grid::

    python -m repro.runtime.shard --grid bench --shards 8 \\
        --cache /tmp/sweep-cache --worker-id w0

Run it twice concurrently with different ``--worker-id`` values and the
two processes split the shards between them; the printed ``digest`` —
the SHA-256 over the cached result entries in task order — is identical
to a ``--workers 1`` run, which is the byte-identity contract in
executable form.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import multiprocessing as mp
import os
import tempfile
import threading
import time
import uuid
from pathlib import Path

from .. import obs
from ..obs import MetricsRegistry
from .cache import ResultCache
from .pool import GridTask, RunPolicy, format_summary, run_tasks

__all__ = [
    "grid_id",
    "shard_ranges",
    "ShardStore",
    "LeaseManager",
    "run_sharded",
]


def grid_id(tasks: list[GridTask]) -> str:
    """Stable identity of a grid: SHA-256 over its ordered task keys.

    Every task must carry a key — uncached tasks have no cross-process
    identity and cannot participate in a sharded run.
    """
    keys = []
    for i, task in enumerate(tasks):
        if task.key is None:
            raise ValueError(
                f"task {i} has no cache key; sharded execution requires "
                "every task to be content-addressed"
            )
        keys.append(task.key)
    payload = json.dumps(keys, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def shard_ranges(n_tasks: int, num_shards: int) -> list[tuple[int, int]]:
    """Split ``n_tasks`` into ``num_shards`` contiguous ``(start, stop)``
    ranges, sizes differing by at most one (earlier shards get the
    remainder) — a pure function of the two integers, so every worker
    computes the same partition."""
    num_shards = max(1, min(num_shards, n_tasks)) if n_tasks else 1
    base, rem = divmod(n_tasks, num_shards)
    ranges, start = [], 0
    for s in range(num_shards):
        stop = start + base + (1 if s < rem else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


class ShardStore:
    """Filesystem layout of one grid's coordination state.

    Everything lives flat under ``root`` (``<cache>/shards/<gid>/``):
    ``shard-%04d.lease`` (claim files), ``shard-%04d.done.json``
    (atomic completion markers), ``shard-%04d.reclaimed-<nonce>``
    (tombstones of expired leases — their count is the audit trail of
    how many takeovers each shard suffered).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @classmethod
    def for_grid(cls, cache: ResultCache, gid: str) -> "ShardStore":
        return cls(Path(cache.root) / "shards" / gid)

    def lease_path(self, shard: int) -> Path:
        return self.root / f"shard-{shard:04d}.lease"

    def done_path(self, shard: int) -> Path:
        return self.root / f"shard-{shard:04d}.done.json"

    def new_tomb_path(self, shard: int) -> Path:
        """A fresh, collision-free tombstone name for ``shard``."""
        return self.root / f"shard-{shard:04d}.reclaimed-{uuid.uuid4().hex}"

    def tombs(self, shard: int) -> list[Path]:
        return sorted(self.root.glob(f"shard-{shard:04d}.reclaimed-*"))

    def is_done(self, shard: int) -> bool:
        return self.done_path(shard).exists()

    def write_done(self, shard: int, doc: dict) -> None:
        """Atomically persist the completion marker (temp + fsync +
        replace — the same durability discipline as cache puts, so a
        crash mid-write never leaves a truncated marker that would make
        the shard look finished)."""
        path = self.done_path(shard)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(doc, f)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def read_done(self, shard: int) -> dict | None:
        """The completion marker, or ``None`` if absent/unreadable.

        A corrupt marker is moved aside (``.corrupt``) so the shard
        reads as not-done and simply re-runs — the same quarantine
        stance the result cache takes.
        """
        path = self.done_path(shard)
        try:
            with open(path, encoding="utf-8") as f:
                return json.load(f)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            try:
                os.replace(path, path.with_suffix(".corrupt"))
            except OSError:
                pass
            return None


class LeaseManager:
    """Claim, heartbeat, and reclaim shard leases for one worker.

    ``try_claim`` creates the lease with ``O_CREAT | O_EXCL`` — the
    filesystem arbitrates exactly one winner.  While held, a daemon
    thread refreshes the mtime of every held lease each
    ``heartbeat`` seconds; a lease whose mtime age exceeds ``ttl`` is
    considered abandoned and eligible for :meth:`reclaim_if_stale`,
    which renames it to a unique tombstone — at most one renamer of a
    given lease file can succeed, so concurrent survivors cannot both
    take over the same claim.
    """

    def __init__(
        self,
        store: ShardStore,
        worker: str,
        ttl: float = 30.0,
        heartbeat: float | None = None,
    ) -> None:
        if ttl <= 0:
            raise ValueError(f"lease ttl must be positive, got {ttl}")
        self.store = store
        self.worker = worker
        self.ttl = float(ttl)
        self.heartbeat = (
            max(0.02, self.ttl / 4.0) if heartbeat is None else float(heartbeat)
        )
        self._held: set[int] = set()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._probe = self.store.root / f".clock-probe-{worker}"

    def _beat(self) -> None:
        while not self._stop.wait(self.heartbeat):
            with self._lock:
                held = list(self._held)
            for shard in held:
                try:
                    os.utime(self.store.lease_path(shard))
                except OSError:
                    pass  # reclaimed out from under us; the run is still safe

    def try_claim(self, shard: int) -> bool:
        """Attempt to own ``shard``; False if someone else holds it."""
        path = self.store.lease_path(shard)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump({"worker": self.worker, "pid": os.getpid()}, f)
        with self._lock:
            self._held.add(shard)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._beat, name="shard-heartbeat", daemon=True
                )
                self._thread.start()
        return True

    def release(self, shard: int) -> None:
        with self._lock:
            self._held.discard(shard)
        try:
            os.unlink(self.store.lease_path(shard))
        except OSError:
            pass

    def _fs_now(self) -> float:
        """"Now" on the clock that stamps lease mtimes.

        Lease staleness is an mtime-age comparison, and on a shared
        (network) filesystem mtimes come from the *server's* clock.
        Measuring age against the local ``time.time()`` mixes the two
        clock domains: a server clock lagging by more than ``ttl``
        makes every freshly-heartbeated lease read as abandoned, and
        survivors tombstone live claims.  Touching a probe file in the
        store and reading its mtime keeps both sides of the comparison
        on the one clock that stamped the lease.  Falls back to the
        local clock when the probe cannot be written.
        """
        try:
            self._probe.touch()
            os.utime(self._probe)
            return os.stat(self._probe).st_mtime
        except OSError:
            return time.time()

    def is_stale(self, shard: int) -> bool:
        """True when the lease exists but its heartbeat has lapsed."""
        # probe first, then stat the lease: a heartbeat landing between
        # the two can only make the lease *newer* than "now", which
        # reads as fresh — the safe direction
        now = self._fs_now()
        try:
            st = os.stat(self.store.lease_path(shard))
        except OSError:
            return False  # absent: claimable the normal way, not stale
        return (now - st.st_mtime) > self.ttl

    def reclaim_if_stale(self, shard: int) -> bool:
        """Tombstone an expired lease; True if *this* call won the rename."""
        if not self.is_stale(shard):
            return False
        try:
            os.rename(self.store.lease_path(shard), self.store.new_tomb_path(shard))
        except OSError:
            return False  # another survivor renamed it first
        obs.current().count("shard.reclaimed")
        return True

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        with self._lock:
            held = list(self._held)
        for shard in held:
            self.release(shard)
        try:
            os.unlink(self._probe)
        except OSError:
            pass


def _run_shard(
    shard: int,
    start: int,
    stop: int,
    tasks: list[GridTask],
    store: ShardStore,
    cache: ResultCache,
    jobs: int,
    policy: RunPolicy | None,
    worker: str,
    call: str | None,
) -> None:
    """Execute one claimed range and persist its completion marker.

    The shard runs under its own :func:`repro.obs.capture` scope so its
    spans and metric rows ship home inside the done marker — the
    assembly step adopts them in shard order, giving serial and sharded
    runs identical merged metrics (modulo wall-clock values).  The
    marker's ``timings`` field holds the shard's run counters as a flat
    ``{name: value}`` dict, and ``call`` the id of the
    :func:`run_sharded` call whose assembly folds them."""
    local = MetricsRegistry()
    with obs.capture() as cap:
        with cap.span("shard.run", cat="shard", shard=shard, start=start, stop=stop):
            run_tasks(
                tasks[start:stop], jobs=jobs, cache=cache, metrics=local, policy=policy
            )
    store.write_done(
        shard,
        {
            "shard": shard,
            "range": [start, stop],
            "keys": [t.key for t in tasks[start:stop]],
            "worker": worker,
            "call": call,
            "obs": cap.export(),
            "timings": {row["name"]: row["value"] for row in local.snapshot()},
        },
    )


def work_loop(
    tasks: list[GridTask],
    ranges: list[tuple[int, int]],
    store: ShardStore,
    cache: ResultCache,
    *,
    jobs: int = 1,
    policy: RunPolicy | None = None,
    worker: str | None = None,
    lease_ttl: float = 30.0,
    heartbeat: float | None = None,
    poll: float = 0.2,
    call: str | None = None,
) -> None:
    """Drain shards until every one has a done marker.

    The loop claims greedily; when nothing is claimable it checks the
    remaining leases for staleness (reclaiming any expired one so the
    *next* pass can claim it) and sleeps ``poll`` seconds.  Exit means
    the whole grid is complete — possibly thanks to other workers.
    ``call`` stamps the markers this loop writes with the id of the
    :func:`run_sharded` call it works for (``None`` outside one)."""
    worker = worker if worker is not None else f"pid-{os.getpid()}"
    leases = LeaseManager(store, worker, ttl=lease_ttl, heartbeat=heartbeat)
    try:
        while True:
            progress = False
            for shard, (start, stop) in enumerate(ranges):
                if store.is_done(shard) or not leases.try_claim(shard):
                    continue
                try:
                    # claim won a race against a done marker written just
                    # after our is_done check: re-check before working
                    if not store.is_done(shard):
                        progress = True
                        _run_shard(
                            shard, start, stop, tasks, store, cache, jobs,
                            policy, worker, call,
                        )
                finally:
                    leases.release(shard)
            undone = [s for s in range(len(ranges)) if not store.is_done(s)]
            if not undone:
                return
            if not progress:
                for shard in undone:
                    leases.reclaim_if_stale(shard)
                time.sleep(poll)
    finally:
        leases.close()


def _worker_main(
    tasks: list[GridTask],
    ranges: list[tuple[int, int]],
    store_root: str,
    cache_root: str,
    jobs: int,
    policy: RunPolicy | None,
    worker: str,
    lease_ttl: float,
    heartbeat: float | None,
    poll: float,
    call: str,
) -> None:
    """Child-process entry: rebuild the store/cache handles and drain."""
    work_loop(
        tasks,
        ranges,
        ShardStore(store_root),
        ResultCache(root=cache_root),
        jobs=jobs,
        policy=policy,
        worker=worker,
        lease_ttl=lease_ttl,
        heartbeat=heartbeat,
        poll=poll,
        call=call,
    )


def _mp_context():
    """Fork when the platform has it (cheap, inherits closures), else spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def assemble(
    tasks: list[GridTask],
    store: ShardStore,
    cache: ResultCache,
    num_shards: int,
    *,
    call: str,
    metrics: MetricsRegistry,
    policy: RunPolicy | None = None,
) -> list:
    """Fold this call's done markers into the ambient obs and
    ``metrics``, and materialize the ordered result list from the
    shared cache.

    Only markers stamped with ``call`` fold: those written by this
    :func:`run_sharded` call or the helpers it forked.  A marker left
    by an earlier run (or by a concurrent independent worker) describes
    work this call did not do, so a resumed run reports none of it.
    Obs exports merge in ascending shard order — a deterministic order
    independent of which worker finished when — so any completion
    interleaving produces the same merged registry (counters and
    histograms are commutative; the fixed order also pins gauge
    last-writer-wins).  Result materialization is a warm serial
    :func:`run_tasks` pass: every healthy entry is a cache hit, and an
    entry that went unreadable since its shard ran is quarantined by
    the cache and transparently re-executed in-process — the
    reconciliation path that keeps the final list complete even after
    on-disk damage.

    The read-back counts a hit only for a task whose shard this call
    did not run: a folded marker already counted its tasks as run or
    hit.  A re-execution always counts as run.  So ``tasks_run +
    cache_hits == tasks``, as for an unsharded :func:`run_tasks`.
    """
    o = obs.current()
    ours: set[int] = set()
    for shard in range(num_shards):
        marker = store.read_done(shard)
        if marker is None or marker.get("call") != call:
            continue  # unreadable, or another run's work
        o.adopt(marker["obs"], tid=shard + 1, track_name=f"shard {shard}")
        ours.update(range(*marker["range"]))
        for name, value in marker["timings"].items():
            # the assembly pass below counts every task exactly once,
            # and run_sharded times the whole call
            if name not in ("tasks", "wall_seconds"):
                metrics.counter(name).add(value)
    results: list = [None] * len(tasks)
    for own in (True, False):
        index = [i for i in range(len(tasks)) if (i in ours) is own]
        local = MetricsRegistry()
        got = run_tasks(
            [tasks[i] for i in index], jobs=1, cache=cache, metrics=local, policy=policy
        )
        for i, result in zip(index, got):
            results[i] = result
        for row in local.snapshot():
            if not (own and row["name"] == "cache_hits"):
                metrics.counter(row["name"]).add(row["value"])
    return results


def run_sharded(
    tasks: list[GridTask],
    num_shards: int | None = None,
    *,
    cache: ResultCache,
    jobs: int = 1,
    policy: RunPolicy | None = None,
    metrics: MetricsRegistry | None = None,
    workers: int = 1,
    worker: str | None = None,
    lease_ttl: float = 30.0,
    heartbeat: float | None = None,
    poll: float = 0.2,
) -> list:
    """Run a keyed grid cooperatively and return ordered results.

    Equivalent to ``run_tasks(tasks, cache=cache)`` in its output —
    same results, byte-identical cache entries — but execution is split
    into ``num_shards`` lease-claimed ranges drained by this process
    plus ``workers - 1`` forked helpers (and any concurrently launched
    processes pointing at the same cache dir).  Killing any worker and
    relaunching resumes from the done markers; no task is lost, and
    duplicated work converges onto identical cache entries.

    ``jobs`` is the *within-shard* parallelism each worker applies
    (usually 1: sharding already provides the process-level fan-out).
    ``metrics`` receives the counters of the shards this call ran and
    of the assembly pass (see :func:`assemble`); its ``wall_seconds``
    is the call's elapsed time.
    """
    if cache is None:
        raise ValueError("sharded execution requires a ResultCache")
    if not cache.enabled:
        raise ValueError(
            "sharded execution requires an enabled result cache; "
            "results travel between workers through it"
        )
    start = time.perf_counter()
    metrics = metrics if metrics is not None else MetricsRegistry()
    if not tasks:
        return run_tasks([], jobs=1, cache=cache, metrics=metrics, policy=policy)
    gid = grid_id(tasks)
    store = ShardStore.for_grid(cache, gid)
    if num_shards is None:
        num_shards = min(len(tasks), max(4 * workers, 8))
    ranges = shard_ranges(len(tasks), num_shards)
    worker = worker if worker is not None else f"pid-{os.getpid()}"
    call = uuid.uuid4().hex

    procs = []
    if workers > 1:
        ctx = _mp_context()
        for w in range(1, workers):
            p = ctx.Process(
                target=_worker_main,
                args=(
                    tasks, ranges, str(store.root), str(cache.root), jobs,
                    policy, f"{worker}-w{w}", lease_ttl, heartbeat, poll, call,
                ),
            )
            p.start()
            procs.append(p)
    try:
        work_loop(
            tasks, ranges, store, cache,
            jobs=jobs, policy=policy, worker=worker,
            lease_ttl=lease_ttl, heartbeat=heartbeat, poll=poll, call=call,
        )
    finally:
        for p in procs:
            p.join()
    # time to here; the assembly pass adds its own wall time on top
    metrics.counter("wall_seconds").add(time.perf_counter() - start)
    return assemble(
        tasks, store, cache, len(ranges), call=call, metrics=metrics, policy=policy
    )


# ---------------------------------------------------------------------------
# CLI


def results_digest(tasks: list[GridTask], cache: ResultCache) -> str:
    """SHA-256 over the raw cache-entry bytes of the grid, in task order.

    Two runs agree on this digest iff their result sets are
    byte-identical — the check CI's two-shard smoke performs against a
    serial baseline.  Raises if any entry is missing (the grid has not
    finished)."""
    h = hashlib.sha256()
    for task in tasks:
        path = cache._path(task.key)
        h.update(path.read_bytes())
    return h.hexdigest()


def _resolve_grid(spec: str, size: int | None):
    """A grid factory from ``bench``/``demo`` or ``module:callable``."""
    if ":" in spec:
        mod_name, fn_name = spec.split(":", 1)
        factory = getattr(importlib.import_module(mod_name), fn_name)
    else:
        from . import grids

        try:
            factory = getattr(grids, f"{spec}_grid")
        except AttributeError:
            raise SystemExit(
                f"unknown grid {spec!r}; use bench, demo, or module:callable"
            ) from None
    return factory(size=size) if size is not None else factory()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.shard",
        description="Drain one sweep grid as a cooperating shard worker.",
    )
    parser.add_argument(
        "--grid", default="demo",
        help="named grid (bench, demo) or module:callable returning GridTasks",
    )
    parser.add_argument("--size", type=int, default=None, help="grid size override")
    parser.add_argument("--shards", type=int, default=None, help="shard count")
    parser.add_argument("--cache", default=None, help="result-cache directory")
    parser.add_argument("--worker-id", default=None, help="worker name in leases")
    parser.add_argument("--jobs", type=int, default=1, help="within-shard jobs")
    parser.add_argument(
        "--workers", type=int, default=1, help="extra forked workers in-process"
    )
    parser.add_argument("--lease-ttl", type=float, default=30.0)
    parser.add_argument("--poll", type=float, default=0.2)
    args = parser.parse_args(argv)

    tasks = _resolve_grid(args.grid, args.size)
    cache = ResultCache(root=args.cache, enabled=True)
    metrics = MetricsRegistry()
    run_sharded(
        tasks,
        args.shards,
        cache=cache,
        jobs=args.jobs,
        metrics=metrics,
        workers=args.workers,
        worker=args.worker_id,
        lease_ttl=args.lease_ttl,
        poll=args.poll,
    )
    try:
        print(
            f"grid={grid_id(tasks)} tasks={len(tasks)} "
            f"digest={results_digest(tasks, cache)}"
        )
        print(format_summary(metrics))
    except BrokenPipeError:  # downstream (e.g. `| head`) closed stdout
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
