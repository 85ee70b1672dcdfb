"""Parallel execution of independent sweep grid points.

Every headline artifact is a serial ``(model x delta x codec)`` grid
whose points are independent: compress a stream, evaluate a proxy, run
the accelerator model.  :func:`run_tasks` fans such a grid over a
``ProcessPoolExecutor`` while keeping three invariants:

* **order** — results come back in task order, whatever finishes first;
* **identity** — ``jobs=1`` (the default) runs every task in-process,
  and parallel workers execute the same pure functions on the same
  pickled inputs through the same wrapper, so records are identical
  byte for byte;
* **cache-before-dispatch** — with a :class:`~repro.runtime.cache.
  ResultCache`, hits are resolved *before* any worker is spawned, so a
  fully warm sweep runs zero tasks (and the counters show it).

Job count resolution: explicit ``jobs=`` kwarg, else the ``REPRO_JOBS``
environment variable, else 1.  Task functions must be module-level
(picklable) and deterministic.

Every run goes through one fault-tolerant executor under a
:class:`RunPolicy` (``RunPolicy()`` when none is given): per-task
timeouts (a hung worker no longer wedges the sweep), bounded retry with
exponential backoff, ``BrokenProcessPool`` recovery (a killed worker's
unfinished tasks re-dispatch serially, completed results are salvaged
from the abandoned pool).  A task that exhausts its attempts raises; the
default policy grants no retries, so the first task exception, in task
order, propagates unchanged.

Accounting: ``metrics=`` takes a :class:`repro.obs.MetricsRegistry`
that the run adds its counters to — ``tasks``, ``tasks_run``,
``cache_hits``, ``task_seconds`` (successful attempts only),
``wall_seconds``, and the fault counters ``task_failed_seconds`` /
``task_retries`` / ``task_timeouts`` / ``pool_restarts``.
:func:`format_summary` renders them as the footer the CLIs print.

Observability: when the ambient :class:`repro.obs.Obs` scope is
enabled, every attempt (serial or pooled) runs under a fresh capture
(:func:`repro.obs.capture`); each successful attempt's spans are
re-parented onto its ``task i`` track and its metric rows merged in
task order, inside one ``pool.run_tasks`` span — so ``jobs=1`` and
``jobs=N`` produce identical merged metrics (modulo wall-clock values),
with or without retries.  With the default :data:`repro.obs.NULL`
scope nothing is captured.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .. import obs
from ..obs import MetricsRegistry
from .cache import MISS, ResultCache

__all__ = ["GridTask", "RunPolicy", "default_jobs", "format_summary", "run_tasks"]

#: the footer's leading counters, always printed (0 when absent)
_SUMMARY_NAMES = ("tasks", "tasks_run", "cache_hits", "task_seconds", "wall_seconds")


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (unset/invalid/<1 -> serial)."""
    raw = os.environ.get("REPRO_JOBS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


@dataclass(frozen=True)
class GridTask:
    """One grid point: a picklable function, its arguments, and an
    optional content-addressed cache key (``None`` = never cached)."""

    fn: Callable[..., Any]
    args: tuple = ()
    key: str | None = None


@dataclass(frozen=True)
class RunPolicy:
    """Fault-handling contract for one :func:`run_tasks` call.

    Parameters
    ----------
    timeout:
        Per-task wall-clock budget in seconds, measured from *pool
        submission* (``None`` = wait forever, the default).
        Every task's deadline is ``submission + timeout``, and the
        collection loop waits only for the *remaining* deadline when it
        reaches a task — so a hung task is declared within ~``timeout``
        of submission no matter where it sits in the futures list,
        instead of inheriting its predecessors' runtimes on top of its
        own budget.  On expiry the pool is *abandoned* — already-
        finished results are salvaged, unfinished tasks (including any
        that were still queued behind busy workers) re-dispatch
        serially in the caller's process — because a hung worker cannot
        be reliably killed through ``concurrent.futures``.  Only
        effective with ``jobs > 1``; a serial run executes in-process
        where no watchdog exists.
    retries:
        Extra attempts granted to a task whose attempt *raised* (crash
        injection, flaky I/O).  ``0`` keeps fail-fast semantics.
    backoff:
        Base sleep before retry ``k`` (``backoff * 2**k`` seconds);
        keep at 0 in tests.
    max_backoff:
        Cap on the exponential term (``None`` = uncapped).  Long-lived
        retry loops (the replica supervisor) use this so the wait never
        grows past a bounded recovery window.
    jitter:
        With ``True``, each retry sleeps ``uniform(0, capped_backoff)``
        (full jitter) instead of the deterministic exponential — a fleet
        of clients retrying the same incident spreads out instead of
        thundering back in lockstep.  Seed the draw with ``jitter_seed``
        for reproducible schedules; ``backoff=0`` stays 0 regardless.
    jitter_seed:
        Seed of the jitter RNG (``None`` = fresh OS entropy per run).
    """

    timeout: float | None = None
    retries: int = 0
    backoff: float = 0.0
    max_backoff: float | None = None
    jitter: bool = False
    jitter_seed: int | None = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.max_backoff is not None and self.max_backoff <= 0:
            raise ValueError(
                f"max_backoff must be positive, got {self.max_backoff}"
            )

    def rng(self) -> np.random.Generator:
        """A jitter RNG seeded by ``jitter_seed`` (new stream per call)."""
        return np.random.default_rng(self.jitter_seed)

    def backoff_for(
        self, attempt: int, rng: np.random.Generator | None = None
    ) -> float:
        """Sleep before retry ``attempt`` (0-based): capped exponential,
        optionally full-jittered.

        Pass a shared ``rng`` to draw successive retries from one
        stream (deterministic under a fixed ``jitter_seed``); without
        one a fresh stream is seeded per call.
        """
        base = self.backoff * (2 ** int(attempt))
        if self.max_backoff is not None:
            base = min(base, self.max_backoff)
        if base <= 0:
            return 0.0
        if self.jitter:
            rng = self.rng() if rng is None else rng
            return float(base * rng.uniform())
        return float(base)


def format_summary(metrics: MetricsRegistry) -> str:
    """The counter footer ``python -m repro.experiments`` and ``python -m
    repro.runtime.shard`` print: the five sweep counters, then any fault
    counters the run recorded, as ``name=value`` (seconds to 10 ms)."""
    recorded = {row["name"] for row in metrics.snapshot()}
    names = [*_SUMMARY_NAMES, *sorted(recorded - set(_SUMMARY_NAMES))]

    def fmt(name: str) -> str:
        v = metrics.value(name)
        return f"{v:.2f}s" if name.endswith("_seconds") else f"{v:g}"

    return "  ".join(f"{n}={fmt(n)}" for n in names)


def _attempt(
    fn: Callable[..., Any], args: tuple, capture: bool
) -> tuple[bool, Any, float, dict | None]:
    """Run one attempt of one grid point, serial or in a pool worker.

    Returns ``(ok, payload, seconds, export)``.  A failure returns its
    exception as ``payload`` instead of raising, so the parent can
    account the attempt's duration under ``task_failed_seconds`` before
    handing the exception to the retry budget — a raise through the
    future would discard the timing.  With ``capture`` the task runs
    under a fresh recording scope whose spans and metric rows come back
    as ``export`` for the parent to adopt.
    """
    start = time.perf_counter()
    try:
        if capture:
            with obs.capture() as captured:
                result = fn(*args)
            export = captured.export()
        else:
            result, export = fn(*args), None
    except Exception as exc:  # noqa: BLE001 - shipped to the retry budget
        if multiprocessing.parent_process() is not None:
            # the traceback does not survive the pickle home: keep its text
            exc.add_note(traceback.format_exc())
        return False, exc, time.perf_counter() - start, None
    return True, result, time.perf_counter() - start, export


def _serial_attempts(
    task: GridTask,
    policy: RunPolicy,
    metrics: MetricsRegistry,
    capture: bool,
    prior_exc: BaseException | None = None,
) -> tuple[Any, float, dict | None]:
    """Run one task in-process under the retry budget.

    ``prior_exc`` carries a failure from an earlier pool attempt: it
    consumes the *first* attempt, so the serial passes are retries (and
    with ``retries=0`` the original exception re-raises immediately).
    """
    attempts = policy.retries if prior_exc is not None else 1 + policy.retries
    exc = prior_exc
    rng = policy.rng() if policy.jitter else None
    for k in range(attempts):
        if exc is not None:
            metrics.counter("task_retries").add()
            delay = policy.backoff_for(k, rng)
            if delay:
                time.sleep(delay)
        ok, payload, seconds, export = _attempt(task.fn, task.args, capture)
        if ok:
            return payload, seconds, export
        # a failed attempt's time must not vanish (nor pollute
        # task_seconds, which counts only successful work)
        metrics.counter("task_failed_seconds").add(seconds)
        exc = payload
    raise exc


def _run_pending(
    tasks: list[GridTask],
    pending: list[int],
    jobs: int,
    policy: RunPolicy,
    metrics: MetricsRegistry,
    capture: bool,
) -> dict[int, tuple[Any, float, dict | None]]:
    """Execute the pending grid points: ``{index: (result, seconds, export)}``.

    One pool attempt per task; the first timeout or broken-pool event
    abandons the pool (salvaging finished futures) and everything still
    unfinished re-dispatches serially under the retry budget.  A serial
    run (``jobs == 1`` or a single pending task) is that re-dispatch
    alone.
    """
    outcomes: dict[int, tuple[Any, float, dict | None]] = {}
    failures: dict[int, BaseException] = {}

    def _settle(i: int, outcome: tuple[bool, Any, float, dict | None]) -> None:
        ok, payload, seconds, export = outcome
        if ok:
            outcomes[i] = (payload, seconds, export)
        else:
            metrics.counter("task_failed_seconds").add(seconds)
            failures[i] = payload

    if jobs > 1 and len(pending) > 1:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(pending)))
        futures = {
            i: pool.submit(_attempt, tasks[i].fn, tasks[i].args, capture)
            for i in pending
        }
        # every task's deadline runs from submission, not from when the
        # sequential collection loop happens to reach its future — a
        # task late in the list must not get ``timeout`` *plus* the sum
        # of its predecessors' runtimes before being declared hung
        deadline = (
            None if policy.timeout is None else time.perf_counter() + policy.timeout
        )
        healthy = True
        for i in pending:
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.perf_counter())
            )
            try:
                _settle(i, futures[i].result(timeout=remaining))
            except (FuturesTimeout, TimeoutError):
                metrics.counter("task_timeouts").add()
                healthy = False
                break
            except BrokenProcessPool:
                metrics.counter("pool_restarts").add()
                healthy = False
                break
            except Exception as exc:  # noqa: BLE001 - handed to the retry budget
                failures[i] = exc
        if healthy:
            pool.shutdown()
        else:
            # salvage results that finished before the pool went bad,
            # then walk away — a hung/killed worker can't be joined
            for i, fut in futures.items():
                if (
                    i not in outcomes
                    and i not in failures
                    and fut.done()
                    and not fut.cancelled()
                ):
                    try:
                        _settle(i, fut.result(timeout=0))
                    except Exception as exc:  # noqa: BLE001
                        if not isinstance(exc, BrokenProcessPool):
                            failures[i] = exc
            pool.shutdown(wait=False, cancel_futures=True)
    # serial (re-)dispatch: everything never pooled, timed out,
    # cancelled, lost to the broken pool, or failed and owed retries
    for i in pending:
        if i not in outcomes:
            outcomes[i] = _serial_attempts(
                tasks[i], policy, metrics, capture, failures.get(i)
            )
    return outcomes


def run_tasks(
    tasks: list[GridTask],
    jobs: int | None = None,
    cache: ResultCache | None = None,
    metrics: MetricsRegistry | None = None,
    policy: RunPolicy | None = None,
    *,
    shards: int | None = None,
    shard_workers: int = 1,
) -> list[Any]:
    """Run a grid, in order, with optional parallelism and caching.

    ``policy`` sets the fault handling (timeouts, retries, backoff; see
    :class:`RunPolicy`).  ``None`` means ``RunPolicy()``: no task is
    retried and the first task exception, in task order, propagates,
    while a killed worker's unfinished tasks still re-dispatch
    serially.  ``metrics`` receives the run's counters (see the module
    docstring).

    ``shards`` switches to the resumable sharded runtime
    (:func:`repro.runtime.shard.run_sharded`): the grid is split into
    that many lease-claimed ranges drained by ``shard_workers``
    processes, every task must be keyed, and ``cache`` is mandatory —
    results travel between workers through it.  The returned list (and
    the cache entry bytes) are identical to a plain serial run.
    """
    if shards is not None:
        from .shard import run_sharded  # late: shard imports this module

        return run_sharded(
            tasks,
            shards,
            cache=cache,
            jobs=1 if jobs is None else max(1, int(jobs)),
            policy=policy,
            metrics=metrics,
            workers=max(1, int(shard_workers)),
        )
    metrics = metrics if metrics is not None else MetricsRegistry()
    policy = policy if policy is not None else RunPolicy()
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    start = time.perf_counter()

    results: list[Any] = [None] * len(tasks)
    pending: list[int] = []
    for i, task in enumerate(tasks):
        hit = MISS
        if cache is not None and task.key is not None:
            hit = cache.get(task.key)
        if hit is MISS:
            pending.append(i)
        else:
            results[i] = hit
            metrics.counter("cache_hits").add()

    if pending:
        o = obs.current()
        with o.span(
            "pool.run_tasks",
            cat="pool",
            tasks=len(tasks),
            pending=len(pending),
            jobs=jobs,
        ):
            outcomes = _run_pending(tasks, pending, jobs, policy, metrics, o.enabled)
            for i in pending:
                result, seconds, export = outcomes[i]
                if export is not None:
                    o.adopt(export, tid=i + 1, track_name=f"task {i}")
                o.observe("pool.task_run_seconds", seconds)
                results[i] = result
                metrics.counter("tasks_run").add()
                metrics.counter("task_seconds").add(seconds)
                if cache is not None and tasks[i].key is not None:
                    cache.put(tasks[i].key, result)

    metrics.counter("tasks").add(len(tasks))
    metrics.counter("wall_seconds").add(time.perf_counter() - start)
    return results
