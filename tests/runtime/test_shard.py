"""The sharded, resumable sweep runtime.

The contract under test, end to end: any number of workers (threads of
control in one process, forked helpers, or independent OS processes
sharing a cache dir) drain a keyed grid cooperatively and converge to
*exactly* the serial result set — same ordered results, byte-identical
cache entries — with every shard executed under a lease that a dead
worker loses exactly once, and per-shard observability that merges
commutatively.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.obs import MetricsRegistry, is_time_metric
from repro.runtime import GridTask, ResultCache, result_key, run_tasks
from repro.runtime.shard import (
    LeaseManager,
    ShardStore,
    grid_id,
    run_sharded,
    shard_ranges,
    work_loop,
)

SRC = Path(__file__).resolve().parents[2] / "src"


# -- module-level grid points (picklable, deterministic) ---------------------


def _counting_point(i: int) -> dict:
    o = obs.current()
    o.count("task.calls")
    o.count("task.value_total", i * i)
    o.observe("task.batch_seconds", 0.001)  # time metric: excluded from identity
    return {"i": i, "sq": i * i}


def _grid(n: int) -> list[GridTask]:
    return [
        GridTask(fn=_counting_point, args=(i,), key=result_key("shard-test", i=i))
        for i in range(n)
    ]


def _sleep_point(i: int) -> int:
    time.sleep(0.1)
    return i


def _blocked_point(i: int, flag_dir: str) -> int:
    """Signals it started, then blocks until the ``go`` sentinel exists."""
    flags = Path(flag_dir)
    (flags / f"started-{i}").touch()
    deadline = time.monotonic() + 60
    while not (flags / "go").exists():
        if time.monotonic() > deadline:
            raise TimeoutError("go sentinel never appeared")
        time.sleep(0.01)
    return i * i


def _crash_grid(n: int, flag_dir: str) -> list[GridTask]:
    return [
        GridTask(
            fn=_blocked_point,
            args=(i, flag_dir),
            key=result_key("shard-crash-test", i=i, flags=flag_dir),
        )
        for i in range(n)
    ]


def _crash_worker(
    n: int, flag_dir: str, cache_root: str, worker: str, ttl: float
) -> None:
    tasks = _crash_grid(n, flag_dir)
    store = ShardStore(Path(cache_root) / "shards" / grid_id(tasks))
    work_loop(
        tasks,
        shard_ranges(len(tasks), len(tasks)),
        store,
        ResultCache(root=cache_root, enabled=True),
        worker=worker,
        lease_ttl=ttl,
        poll=0.05,
    )


def _entry_bytes(root: Path) -> dict[str, bytes]:
    """Relative path -> raw bytes of every cache entry under ``root``."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(Path(root).glob("??/*.json"))
    }


# -- partition + identity helpers --------------------------------------------


class TestShardRanges:
    def test_covers_every_index_once(self):
        for n, s in [(10, 3), (7, 7), (5, 16), (1, 1), (16, 4)]:
            ranges = shard_ranges(n, s)
            seen = [i for start, stop in ranges for i in range(start, stop)]
            assert seen == list(range(n))

    def test_sizes_differ_by_at_most_one(self):
        sizes = [stop - start for start, stop in shard_ranges(10, 3)]
        assert max(sizes) - min(sizes) <= 1

    def test_shard_count_clamped_to_tasks(self):
        assert len(shard_ranges(3, 16)) == 3
        assert len(shard_ranges(0, 4)) == 1  # one empty range


class TestGridId:
    def test_requires_keys(self):
        with pytest.raises(ValueError, match="no cache key"):
            grid_id([GridTask(fn=_counting_point, args=(0,))])

    def test_stable_and_order_sensitive(self):
        tasks = _grid(4)
        assert grid_id(tasks) == grid_id(_grid(4))
        assert grid_id(tasks) != grid_id(list(reversed(tasks)))


# -- lease protocol ----------------------------------------------------------


class TestLeases:
    def test_exactly_one_claimer(self, tmp_path):
        store = ShardStore(tmp_path)
        a = LeaseManager(store, "a", ttl=30)
        b = LeaseManager(store, "b", ttl=30)
        try:
            assert a.try_claim(0)
            assert not b.try_claim(0)
            a.release(0)
            assert b.try_claim(0)
        finally:
            a.close()
            b.close()

    def test_heartbeat_keeps_lease_fresh(self, tmp_path):
        store = ShardStore(tmp_path)
        holder = LeaseManager(store, "h", ttl=0.3, heartbeat=0.05)
        watcher = LeaseManager(store, "w", ttl=0.3)
        try:
            assert holder.try_claim(0)
            time.sleep(0.6)  # well past the ttl: only heartbeats save it
            assert not watcher.is_stale(0)
            assert not watcher.reclaim_if_stale(0)
        finally:
            holder.close()
            watcher.close()

    def test_abandoned_lease_goes_stale(self, tmp_path):
        store = ShardStore(tmp_path)
        # a lease written directly, with no manager heartbeating it
        store.lease_path(0).write_text("{}")
        old = time.time() - 10
        os.utime(store.lease_path(0), (old, old))
        watcher = LeaseManager(store, "w", ttl=0.5)
        try:
            assert watcher.is_stale(0)
            assert watcher.reclaim_if_stale(0)
            assert not store.lease_path(0).exists()
            assert len(store.tombs(0)) == 1
            assert watcher.try_claim(0)  # reclaimed shard is claimable
        finally:
            watcher.close()

    def test_reclaim_race_has_one_winner(self, tmp_path):
        store = ShardStore(tmp_path)
        store.lease_path(3).write_text("{}")
        old = time.time() - 10
        os.utime(store.lease_path(3), (old, old))
        managers = [LeaseManager(store, f"w{i}", ttl=0.2) for i in range(8)]
        wins: list[bool] = [False] * len(managers)
        barrier = threading.Barrier(len(managers))

        def race(idx):
            barrier.wait()
            wins[idx] = managers[idx].reclaim_if_stale(3)

        threads = [threading.Thread(target=race, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for m in managers:
            m.close()
        assert sum(wins) == 1
        assert len(store.tombs(3)) == 1

    def test_missing_lease_is_not_stale(self, tmp_path):
        lm = LeaseManager(ShardStore(tmp_path), "w", ttl=0.1)
        try:
            assert not lm.is_stale(0)
            assert not lm.reclaim_if_stale(0)
        finally:
            lm.close()

    def test_staleness_ignores_local_clock_skew(self, tmp_path, monkeypatch):
        """Regression: staleness must be measured on the filesystem's
        clock, not ``time.time()``.

        On a shared filesystem, lease mtimes come from the server's
        clock.  The old check compared them against the local clock, so
        a local clock running ahead (here: +1000 s) made every freshly
        written lease read as abandoned and live claims got tombstoned.
        """
        store = ShardStore(tmp_path)
        holder = LeaseManager(store, "h", ttl=0.5)
        watcher = LeaseManager(store, "w", ttl=0.5)
        monkeypatch.setattr(time, "time", lambda real=time.time: real() + 1000.0)
        try:
            assert holder.try_claim(0)  # fresh mtime on the *fs* clock
            assert not watcher.is_stale(0)
            assert not watcher.reclaim_if_stale(0)
            assert store.lease_path(0).exists()

            # a genuinely abandoned lease still reclaims under the skew
            store.lease_path(1).write_text("{}")
            old = os.stat(store.lease_path(1)).st_mtime - 10
            os.utime(store.lease_path(1), (old, old))
            assert watcher.is_stale(1)
            assert watcher.reclaim_if_stale(1)
        finally:
            holder.close()
            watcher.close()

    def test_staleness_falls_back_to_local_clock(self, tmp_path):
        """With the probe unwritable (read-only store), the check
        degrades to the pre-fix local-clock comparison."""
        store = ShardStore(tmp_path)
        store.lease_path(0).write_text("{}")
        old = time.time() - 10
        os.utime(store.lease_path(0), (old, old))
        watcher = LeaseManager(store, "w", ttl=0.5)
        watcher._probe = tmp_path / "no-such-dir" / "probe"
        try:
            assert watcher.is_stale(0)
        finally:
            watcher.close()


# -- sharded == serial -------------------------------------------------------


class TestShardedIdentity:
    def test_matches_serial_byte_for_byte(self, tmp_path):
        tasks = _grid(9)
        serial_cache = ResultCache(root=tmp_path / "serial", enabled=True)
        expected = run_tasks(tasks, jobs=1, cache=serial_cache)

        shard_cache = ResultCache(root=tmp_path / "sharded", enabled=True)
        metrics = MetricsRegistry()
        got = run_sharded(
            tasks, 4, cache=shard_cache, workers=2, metrics=metrics,
            lease_ttl=5.0, poll=0.02,
        )
        assert got == expected
        assert _entry_bytes(shard_cache.root) == _entry_bytes(serial_cache.root)
        assert metrics.value("tasks") == 9
        assert metrics.value("tasks_run") == 9

    def test_run_tasks_shards_kwarg_delegates(self, tmp_path):
        tasks = _grid(6)
        serial = run_tasks(
            tasks, jobs=1, cache=ResultCache(root=tmp_path / "a", enabled=True)
        )
        sharded = run_tasks(
            tasks,
            cache=ResultCache(root=tmp_path / "b", enabled=True),
            shards=3,
            shard_workers=2,
        )
        assert sharded == serial

    def test_resume_warm_runs_nothing(self, tmp_path):
        tasks = _grid(6)
        cache = ResultCache(root=tmp_path, enabled=True)
        first = run_sharded(tasks, 3, cache=cache)
        metrics = MetricsRegistry()
        again = run_sharded(tasks, 3, cache=cache, metrics=metrics)
        assert again == first
        # done markers short-circuit the workers; assembly is all hits
        assert metrics.value("cache_hits") == 6
        # the first run's markers describe its work, not this call's
        assert metrics.value("tasks_run") == 0

    def test_counters_add_up_cold_half_warm_finished(self, tmp_path):
        """Every task counts once, as run or as hit: the assembly
        read-back counts no hit for a task this call's shards ran."""
        tasks = _grid(8)

        def counters(cache):
            metrics = MetricsRegistry()
            run_tasks(tasks, cache=cache, metrics=metrics, shards=4)
            assert metrics.value("tasks") == 8
            return metrics.value("tasks_run"), metrics.value("cache_hits")

        cold = ResultCache(root=tmp_path / "cold", enabled=True)
        assert counters(cold) == (8, 0)
        warm = ResultCache(root=tmp_path / "warm", enabled=True)
        run_tasks(tasks[:4], jobs=1, cache=warm)
        assert counters(warm) == (4, 4)
        assert counters(warm) == (0, 8)

    def test_quarantine_reconciliation(self, tmp_path):
        """An entry that rots after its shard ran is quarantined and
        transparently re-executed at assembly."""
        tasks = _grid(5)
        cache = ResultCache(root=tmp_path, enabled=True)
        expected = run_sharded(tasks, 2, cache=cache)
        victim = cache._path(tasks[2].key)
        victim.write_text("{ truncated")
        got = run_sharded(tasks, 2, cache=cache)
        assert got == expected
        assert victim.with_suffix(".corrupt").exists()
        # the re-run re-put a healthy entry under the same key
        assert json.loads(victim.read_text())["key"] == tasks[2].key

    def test_requires_keys_and_enabled_cache(self, tmp_path):
        keyed = _grid(2)
        with pytest.raises(ValueError, match="ResultCache"):
            run_sharded(keyed, 2, cache=None)
        with pytest.raises(ValueError, match="enabled"):
            run_sharded(
                keyed, 2, cache=ResultCache(root=tmp_path, enabled=False)
            )
        unkeyed = [GridTask(fn=_counting_point, args=(0,))]
        with pytest.raises(ValueError, match="no cache key"):
            run_sharded(unkeyed, 1, cache=ResultCache(root=tmp_path, enabled=True))

    def test_empty_grid(self, tmp_path):
        cache = ResultCache(root=tmp_path, enabled=True)
        assert run_sharded([], cache=cache) == []


# -- shard-level metric merge commutativity ----------------------------------


def _identity_rows(rows: list[dict]) -> list[dict]:
    """Rows minus wall-clock values and gauges (last-writer-wins is
    order-dependent by design; everything else must commute)."""
    return [
        r
        for r in rows
        if not is_time_metric(r["name"]) and r["kind"] != "gauge"
    ]


class TestMetricMergeCommutativity:
    def test_any_completion_order_equals_serial(self, tmp_path):
        tasks = _grid(6)
        # serial baseline, captured
        with obs.capture() as serial:
            run_tasks(
                tasks, jobs=1, cache=ResultCache(root=tmp_path / "s", enabled=True)
            )
        cache = ResultCache(root=tmp_path / "p", enabled=True)
        run_sharded(tasks, 3, cache=cache, lease_ttl=5.0)
        store = ShardStore(Path(cache.root) / "shards" / grid_id(tasks))
        markers = [store.read_done(s) for s in range(3)]
        assert all(m is not None for m in markers)

        # merging the shard exports in ANY completion order produces the
        # serial registry (modulo wall-clock values)
        want = _identity_rows(serial.metrics.snapshot())
        for perm in itertools.permutations(range(3)):
            registry = MetricsRegistry()
            for s in perm:
                registry.merge_rows(markers[s]["obs"]["metrics"])
            assert _identity_rows(registry.snapshot()) == want, perm

    def test_shard_timings_envelope_wall_clock(self, tmp_path):
        """The run's ``wall_seconds`` is the call's own elapsed time: it
        envelopes the shard wall clocks (one worker drains its shards
        one after another, so it covers their sum) and stays within the
        caller's clock."""
        tasks = [
            GridTask(fn=_sleep_point, args=(i,), key=result_key("shard-wall", i=i))
            for i in range(4)
        ]
        cache = ResultCache(root=tmp_path, enabled=True)
        metrics = MetricsRegistry()
        t0 = time.perf_counter()
        run_sharded(tasks, 4, cache=cache, metrics=metrics)
        elapsed = time.perf_counter() - t0
        store = ShardStore(Path(cache.root) / "shards" / grid_id(tasks))
        walls = [store.read_done(s)["timings"]["wall_seconds"] for s in range(4)]
        assert sum(walls) <= metrics.value("wall_seconds") <= elapsed


# -- crash-resume ------------------------------------------------------------


def _wait_for(predicate, timeout=30.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError(f"timed out waiting for {what}")
        time.sleep(0.02)


class TestCrashResume:
    def test_kill9_victim_reclaimed_exactly_once(self, tmp_path):
        """kill -9 a worker mid-shard; survivors reclaim its lease
        exactly once, re-run the shard, and the final merged results are
        identical to a serial run."""
        n = 4
        ttl = 0.5
        flag_dir = tmp_path / "flags"
        flag_dir.mkdir()
        cache_root = tmp_path / "cache"
        tasks = _crash_grid(n, str(flag_dir))
        store = ShardStore(cache_root / "shards" / grid_id(tasks))

        ctx = mp.get_context("fork")
        victim = ctx.Process(
            target=_crash_worker,
            args=(n, str(flag_dir), str(cache_root), "victim", ttl),
        )
        victim.start()
        # the victim claims shard 0 and blocks inside task 0
        _wait_for(lambda: (flag_dir / "started-0").exists(), what="victim start")
        assert store.lease_path(0).exists()
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)

        # unblock the grid and send in two racing survivors
        (flag_dir / "go").touch()
        survivors = [
            ctx.Process(
                target=_crash_worker,
                args=(n, str(flag_dir), str(cache_root), f"s{i}", ttl),
            )
            for i in range(2)
        ]
        for p in survivors:
            p.start()
        for p in survivors:
            p.join(timeout=60)
            assert p.exitcode == 0

        # every shard done, the victim's lease tombstoned exactly once
        assert all(store.is_done(s) for s in range(n))
        assert len(store.tombs(0)) == 1
        assert not store.lease_path(0).exists()
        marker = store.read_done(0)
        assert marker["worker"] in ("s0", "s1")

        # merged result set identical (bytes included) to a fresh serial run
        cache = ResultCache(root=cache_root, enabled=True)
        got = run_sharded(tasks, n, cache=cache, lease_ttl=ttl)
        serial_cache = ResultCache(root=tmp_path / "serial", enabled=True)
        expected = run_tasks(tasks, jobs=1, cache=serial_cache)
        assert got == expected == [i * i for i in range(n)]
        assert _entry_bytes(cache.root) == _entry_bytes(serial_cache.root)


# -- the CLI -----------------------------------------------------------------


class TestCli:
    def _run_cli(self, *args, env=None):
        e = dict(os.environ, PYTHONPATH=str(SRC))
        if env:
            e.update(env)
        return subprocess.run(
            [sys.executable, "-m", "repro.runtime.shard", *args],
            capture_output=True, text=True, env=e, timeout=120,
        )

    def test_concurrent_cli_workers_match_serial_digest(self, tmp_path):
        serial = self._run_cli(
            "--grid", "demo", "--size", "6", "--shards", "3",
            "--cache", str(tmp_path / "serial"),
        )
        assert serial.returncode == 0, serial.stderr
        serial_digest = serial.stdout.splitlines()[0]

        shared = str(tmp_path / "shared")
        procs = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro.runtime.shard",
                    "--grid", "demo", "--size", "6", "--shards", "3",
                    "--cache", shared, "--worker-id", f"w{i}",
                    "--lease-ttl", "5", "--poll", "0.05",
                ],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=str(SRC)),
            )
            for i in range(2)
        ]
        outs = [p.communicate(timeout=120) for p in procs]
        for p, (out, err) in zip(procs, outs):
            assert p.returncode == 0, err
        digests = {out.splitlines()[0] for out, _ in outs}
        assert digests == {serial_digest}

    def test_unknown_grid_errors(self, tmp_path):
        res = self._run_cli("--grid", "nope", "--cache", str(tmp_path))
        assert res.returncode != 0
        assert "unknown grid" in res.stderr
