"""Grid runner: ordering, serial/parallel identity, REPRO_JOBS
resolution, cache-before-dispatch, and timing counters."""

from __future__ import annotations

import traceback

import pytest

from repro.obs import MetricsRegistry
from repro.runtime import GridTask, ResultCache, default_jobs, format_summary, run_tasks


def _square(x: int) -> int:
    return x * x


def _fail(x: int) -> int:
    raise ValueError(f"boom {x}")


def _tasks(n: int, keyed: bool = False) -> list[GridTask]:
    return [
        GridTask(fn=_square, args=(i,), key=(f"{i:064x}" if keyed else None))
        for i in range(n)
    ]


class TestDefaultJobs:
    def test_unset_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1

    def test_env_sets_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert default_jobs() == 4

    def test_invalid_and_subunit_values_are_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1


class TestRunTasks:
    def test_serial_order(self):
        assert run_tasks(_tasks(6), jobs=1) == [0, 1, 4, 9, 16, 25]

    def test_parallel_matches_serial(self):
        assert run_tasks(_tasks(6), jobs=3) == run_tasks(_tasks(6), jobs=1)

    def test_jobs_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert run_tasks(_tasks(4)) == [0, 1, 4, 9]

    def test_empty_grid(self):
        assert run_tasks([], jobs=4) == []

    def test_serial_exception_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            run_tasks([GridTask(fn=_fail, args=(1,))], jobs=1)

    def test_parallel_exception_propagates(self):
        tasks = _tasks(3) + [GridTask(fn=_fail, args=(9,))]
        with pytest.raises(ValueError, match="boom 9") as excinfo:
            run_tasks(tasks, jobs=2)
        # the report still shows where the worker raised
        assert "in _fail" in "".join(traceback.format_exception(excinfo.value))

    def test_timings_counters(self):
        t = MetricsRegistry()
        run_tasks(_tasks(5), jobs=1, metrics=t)
        assert t.value("tasks") == 5
        assert t.value("tasks_run") == 5
        assert t.value("cache_hits") == 0
        assert t.value("task_seconds") >= 0
        assert "tasks_run=5" in format_summary(t)


class TestCacheIntegration:
    def test_cold_run_populates_warm_run_skips(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        cold, warm = MetricsRegistry(), MetricsRegistry()
        r1 = run_tasks(_tasks(4, keyed=True), jobs=2, cache=cache, metrics=cold)
        r2 = run_tasks(_tasks(4, keyed=True), jobs=2, cache=cache, metrics=warm)
        assert r1 == r2 == [0, 1, 4, 9]
        assert cold.value("tasks_run") == 4
        assert warm.value("tasks_run") == 0
        assert warm.value("cache_hits") == 4
        assert warm.value("task_seconds") == 0.0

    def test_partial_warmth_runs_only_misses(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        run_tasks(_tasks(2, keyed=True), jobs=1, cache=cache)
        t = MetricsRegistry()
        out = run_tasks(_tasks(5, keyed=True), jobs=1, cache=cache, metrics=t)
        assert out == [0, 1, 4, 9, 16]
        assert t.value("cache_hits") == 2
        assert t.value("tasks_run") == 3

    def test_unkeyed_tasks_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        t = MetricsRegistry()
        run_tasks(_tasks(3, keyed=False), jobs=1, cache=cache, metrics=t)
        run_tasks(_tasks(3, keyed=False), jobs=1, cache=cache, metrics=t)
        assert t.value("tasks_run") == 6
        assert cache.puts == 0

