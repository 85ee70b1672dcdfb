"""Pool resilience: timeouts, retries, crash recovery.

Every scenario is driven by the deterministic injectors from
``repro.resilience`` (sentinel-file one-shot faults), so the tests need
no flaky timing games and no sleep longer than ~1 second.
"""

from __future__ import annotations

import time

import pytest

from repro.core.errors import FaultError
from repro.resilience import crash, crash_once, hang_once, kill_once
from repro.obs import MetricsRegistry
from repro.runtime import GridTask, ResultCache, RunPolicy, run_tasks


def _square(x: int) -> int:
    return x * x


def _grid(n: int) -> list[GridTask]:
    return [GridTask(fn=_square, args=(i,)) for i in range(n)]


def _sleep_return(seconds: float, value):
    time.sleep(seconds)
    return value


class TestRunPolicyValidation:
    def test_bad_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            RunPolicy(timeout=0)

    def test_bad_retries(self):
        with pytest.raises(ValueError, match="retries"):
            RunPolicy(retries=-1)

    def test_bad_backoff(self):
        with pytest.raises(ValueError, match="backoff"):
            RunPolicy(backoff=-0.5)

    def test_defaults_are_strict(self):
        policy = RunPolicy()
        assert policy.timeout is None
        assert policy.retries == 0
        assert policy.max_backoff is None
        assert not policy.jitter

    def test_bad_max_backoff(self):
        with pytest.raises(ValueError, match="max_backoff"):
            RunPolicy(max_backoff=0)


class TestBackoffSchedule:
    def test_no_jitter_is_plain_exponential(self):
        policy = RunPolicy(backoff=0.1)
        assert [policy.backoff_for(k) for k in range(4)] == pytest.approx(
            [0.1, 0.2, 0.4, 0.8]
        )

    def test_zero_backoff_stays_zero(self):
        policy = RunPolicy(backoff=0.0, jitter=True, jitter_seed=1)
        assert all(policy.backoff_for(k) == 0.0 for k in range(5))

    def test_cap_applies_before_jitter(self):
        policy = RunPolicy(backoff=0.1, max_backoff=0.25)
        assert [policy.backoff_for(k) for k in range(5)] == pytest.approx(
            [0.1, 0.2, 0.25, 0.25, 0.25]
        )

    def test_full_jitter_within_capped_base(self):
        policy = RunPolicy(
            backoff=0.1, max_backoff=1.0, jitter=True, jitter_seed=123
        )
        rng = policy.rng()
        for k in range(20):
            d = policy.backoff_for(k, rng)
            assert 0.0 <= d <= min(1.0, 0.1 * 2**k)

    def test_jitter_deterministic_under_seed(self):
        policy = RunPolicy(backoff=0.1, jitter=True, jitter_seed=7)
        a = [policy.backoff_for(k, policy.rng()) for k in range(6)]
        b = [policy.backoff_for(k, policy.rng()) for k in range(6)]
        assert a == b
        # a shared generator across attempts is the scheduling shape
        # the supervisor uses: still deterministic for one seed
        rng1, rng2 = policy.rng(), policy.rng()
        assert [policy.backoff_for(k, rng1) for k in range(6)] == [
            policy.backoff_for(k, rng2) for k in range(6)
        ]

    def test_jitter_seeds_differ(self):
        a = RunPolicy(backoff=0.1, jitter=True, jitter_seed=1)
        b = RunPolicy(backoff=0.1, jitter=True, jitter_seed=2)
        assert [a.backoff_for(k, a.rng()) for k in range(6)] != [
            b.backoff_for(k, b.rng()) for k in range(6)
        ]

    def test_jittered_retry_delay_still_bounded_in_run(self, tmp_path):
        """A jittered policy through the real retry loop: the retry
        happens and the jittered sleep stays under the capped base."""
        sentinel = str(tmp_path / "s")
        metrics = MetricsRegistry()
        start = time.perf_counter()
        results = run_tasks(
            [GridTask(fn=crash_once, args=(sentinel, 42))],
            jobs=1,
            metrics=metrics,
            policy=RunPolicy(
                retries=1, backoff=0.05, max_backoff=0.05, jitter=True,
                jitter_seed=0,
            ),
        )
        elapsed = time.perf_counter() - start
        assert results == [42]
        assert metrics.value("task_retries") == 1
        assert elapsed < 5.0  # jitter never exceeds the 50 ms cap


class TestRetry:
    def test_crash_once_recovers_serially(self, tmp_path):
        sentinel = str(tmp_path / "s")
        metrics = MetricsRegistry()
        tasks = _grid(3) + [GridTask(fn=crash_once, args=(sentinel, 42))]
        results = run_tasks(
            tasks, jobs=1, metrics=metrics, policy=RunPolicy(retries=1)
        )
        assert results == [0, 1, 4, 42]
        assert metrics.value("task_retries") == 1

    def test_crash_once_recovers_in_parallel(self, tmp_path):
        sentinel = str(tmp_path / "s")
        metrics = MetricsRegistry()
        tasks = _grid(3) + [GridTask(fn=crash_once, args=(sentinel, 42))]
        results = run_tasks(
            tasks, jobs=2, metrics=metrics, policy=RunPolicy(retries=1)
        )
        assert results == [0, 1, 4, 42]
        assert metrics.value("task_retries") == 1

    def test_failed_attempt_time_lands_in_its_own_counter(self, tmp_path):
        """Regression: a failed attempt's duration used to vanish (pool
        path) or pollute ``task_seconds`` — it belongs to
        ``task_failed_seconds``."""
        sentinel = str(tmp_path / "s")
        metrics = MetricsRegistry()
        run_tasks(
            [GridTask(fn=crash_once, args=(sentinel, 42))],
            jobs=1,
            metrics=metrics,
            policy=RunPolicy(retries=1),
        )
        assert metrics.value("task_failed_seconds") > 0.0
        # only the successful attempt counts as executed work
        assert metrics.value("tasks_run") == 1

    def test_failed_attempt_time_survives_the_pool_boundary(self, tmp_path):
        sentinel = str(tmp_path / "s")
        metrics = MetricsRegistry()
        tasks = _grid(3) + [GridTask(fn=crash_once, args=(sentinel, 42))]
        results = run_tasks(
            tasks, jobs=2, metrics=metrics, policy=RunPolicy(retries=1)
        )
        assert results == [0, 1, 4, 42]
        assert metrics.value("task_failed_seconds") > 0.0

    def test_retries_exhausted_raises_original(self):
        with pytest.raises(FaultError, match="injected worker crash"):
            run_tasks(
                [GridTask(fn=crash, args=())], jobs=1, policy=RunPolicy(retries=2)
            )

    def test_no_retries_is_fail_fast(self, tmp_path):
        sentinel = str(tmp_path / "s")
        with pytest.raises(FaultError):
            run_tasks(
                [GridTask(fn=crash_once, args=(sentinel, 1))],
                jobs=1,
                policy=RunPolicy(),
            )


class TestTimeout:
    def test_hung_task_is_abandoned_and_redispatched(self, tmp_path):
        sentinel = str(tmp_path / "hang")
        metrics = MetricsRegistry()
        tasks = [GridTask(fn=hang_once, args=(sentinel, 1.0, "slow"))] + _grid(3)
        results = run_tasks(
            tasks,
            jobs=2,
            metrics=metrics,
            policy=RunPolicy(timeout=0.25, retries=1),
        )
        # the retry after the timeout sees the sentinel and returns fast
        assert results == ["slow", 0, 1, 4]
        assert metrics.value("task_timeouts") == 1

    def test_finished_results_salvaged_from_abandoned_pool(self, tmp_path):
        sentinel = str(tmp_path / "hang")
        metrics = MetricsRegistry()
        tasks = [GridTask(fn=hang_once, args=(sentinel, 1.0, "slow"))] + _grid(5)
        results = run_tasks(
            tasks,
            jobs=3,
            metrics=metrics,
            policy=RunPolicy(timeout=0.25, retries=1),
        )
        assert results == ["slow", 0, 1, 4, 9, 16]
        # every grid point ran exactly once somewhere
        assert metrics.value("tasks_run") == 6

    def test_deadline_runs_from_submission_not_collection_order(self, tmp_path):
        """Regression: the per-task timeout used to be measured from the
        sequential ``result()`` call, so a hung task *last* in the
        futures list got ``timeout + sum(predecessor runtimes)`` before
        being declared.  The deadline now runs from pool submission:
        slow-but-finishing predecessors consume the shared wall-clock
        budget, and the hang is detected within ~``timeout`` total."""
        sentinel = str(tmp_path / "hang")
        metrics = MetricsRegistry()
        tasks = [
            GridTask(fn=_sleep_return, args=(0.3, "a")),
            GridTask(fn=_sleep_return, args=(0.6, "b")),
            GridTask(fn=_sleep_return, args=(0.9, "c")),
            GridTask(fn=hang_once, args=(sentinel, 2.5, "hung")),
        ]
        t0 = time.perf_counter()
        results = run_tasks(
            tasks, jobs=4, metrics=metrics, policy=RunPolicy(timeout=1.0)
        )
        elapsed = time.perf_counter() - t0
        # the serial re-dispatch sees the sentinel and returns instantly,
        # so end-to-end time is ~timeout; the old collection-order
        # accounting needed ~1.9s (0.9s of predecessors + a fresh 1.0s
        # budget for the hung future)
        assert results == ["a", "b", "c", "hung"]
        assert metrics.value("task_timeouts") == 1
        assert elapsed < 1.6, (
            f"hang declared after {elapsed:.2f}s — the per-task deadline "
            "is not being measured from submission"
        )

    def test_serial_run_ignores_timeout(self, tmp_path):
        # in-process execution has no watchdog; the task just runs
        sentinel = str(tmp_path / "hang")
        results = run_tasks(
            [GridTask(fn=hang_once, args=(sentinel, 0.1, "v"))],
            jobs=1,
            policy=RunPolicy(timeout=0.25),
        )
        assert results == ["v"]


class TestBrokenPool:
    def test_killed_worker_recovers_serially(self, tmp_path):
        sentinel = str(tmp_path / "kill")
        metrics = MetricsRegistry()
        tasks = [GridTask(fn=kill_once, args=(sentinel, "back"))] + _grid(3)
        results = run_tasks(
            tasks, jobs=2, metrics=metrics, policy=RunPolicy(retries=1)
        )
        assert results == ["back", 0, 1, 4]
        assert metrics.value("pool_restarts") == 1

    def test_killed_worker_recovers_without_a_policy(self, tmp_path):
        """The default ``RunPolicy()`` recovers a broken pool too: the
        killed worker's unfinished tasks re-dispatch serially."""
        sentinel = str(tmp_path / "kill")
        metrics = MetricsRegistry()
        tasks = [GridTask(fn=kill_once, args=(sentinel, "back"))] + _grid(3)
        results = run_tasks(tasks, jobs=2, metrics=metrics)
        assert results == ["back", 0, 1, 4]
        assert metrics.value("pool_restarts") == 1
        assert metrics.value("tasks_run") == 4

    def test_strict_default_policy_still_propagates(self):
        # the default policy grants no retries: the task's own
        # exception propagates unchanged
        with pytest.raises(FaultError):
            run_tasks([GridTask(fn=crash, args=())], jobs=1)


class TestCombinedFaults:
    def test_crash_and_hang_in_one_sweep(self, tmp_path):
        """The acceptance scenario: one killed worker AND one hung task
        in the same sweep — it still completes with correct results and
        the counters report the recovery work."""
        crash_s = str(tmp_path / "crash")
        hang_s = str(tmp_path / "hang")
        metrics = MetricsRegistry()
        tasks = (
            _grid(3)
            + [GridTask(fn=crash_once, args=(crash_s, "crashed"))]
            + [GridTask(fn=hang_once, args=(hang_s, 1.0, "hung"))]
            + _grid(2)
        )
        results = run_tasks(
            tasks,
            jobs=2,
            metrics=metrics,
            policy=RunPolicy(timeout=0.25, retries=2),
        )
        assert results == [0, 1, 4, "crashed", "hung", 0, 1]
        assert metrics.value("task_retries") >= 1
        assert metrics.value("tasks_run") == 7


class TestCacheInteraction:
    def test_warm_cache_skips_faulty_tasks_entirely(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", enabled=True)
        key = "a" * 64
        cache.put(key, "cached")
        metrics = MetricsRegistry()
        results = run_tasks(
            [GridTask(fn=crash, args=(), key=key)],
            jobs=1,
            cache=cache,
            metrics=metrics,
            policy=RunPolicy(),
        )
        assert results == ["cached"]
        assert metrics.value("cache_hits") == 1
