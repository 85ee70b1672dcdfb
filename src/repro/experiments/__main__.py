"""CLI: regenerate paper artifacts.

Usage::

    python -m repro.experiments            # run everything
    python -m repro.experiments fig2 tab2  # run selected artifacts
    REPRO_FAST=1 python -m repro.experiments   # reduced workloads
    REPRO_JOBS=8 python -m repro.experiments   # fan sweeps over 8 workers
    python -m repro.experiments tab2 --obs out/   # metrics + trace dumps

Sweep experiments (Tab. II, Tab. III, Fig. 10) run through the
:mod:`repro.runtime` grid runner: ``REPRO_JOBS`` sets the worker count,
results land in the content-addressed cache next to the trained
weights, and each experiment prints its task/cache/timing counters — a
warm rerun shows ``tasks_run=0``.  ``REPRO_RESULT_CACHE=0`` forces cold
runs.

Observability: ``--obs DIR`` (or the ``REPRO_OBS`` environment
variable) records every experiment under a :mod:`repro.obs` scope and
drops ``trace.json`` (Chrome trace-event JSON — open it in
https://ui.perfetto.dev), ``metrics.json`` and ``metrics.csv`` per
experiment under ``DIR/<name>/``, plus a combined session dump at
``DIR/`` where each experiment appears as its own process track.

Elapsed times are measured with ``time.perf_counter()`` — the wall
clock (``time.time()``) can jump under NTP adjustment and is never used
for durations.
"""

from __future__ import annotations

import inspect
import sys
import time
from pathlib import Path

from .. import obs
from ..obs import MetricsRegistry
from ..runtime import ResultCache, format_summary
from . import ALL_EXPERIMENTS
from .common import is_fast


def _parse_args(argv: list[str]) -> tuple[list[str], str | None] | int:
    """Split ``argv`` into (experiment names, obs directory).

    Returns an exit code on usage errors.  ``--obs DIR`` wins over the
    ``REPRO_OBS`` environment variable.
    """
    names: list[str] = []
    obs_dir: str | None = None
    it = iter(argv)
    for arg in it:
        if arg == "--obs":
            obs_dir = next(it, None)
            if obs_dir is None:
                print("--obs requires a directory argument")
                return 2
        elif arg.startswith("--obs="):
            obs_dir = arg.split("=", 1)[1]
        elif arg.startswith("-"):
            print(f"unknown option: {arg}")
            return 2
        else:
            names.append(arg)
    return names, obs_dir or obs.obs_dir_from_env()


def main(argv: list[str]) -> int:
    parsed = _parse_args(argv)
    if isinstance(parsed, int):
        return parsed
    names, obs_dir = parsed
    names = names or list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; available: {list(ALL_EXPERIMENTS)}")
        return 2
    fast = is_fast()
    session = obs.Obs() if obs_dir else None
    for index, name in enumerate(names):
        module = ALL_EXPERIMENTS[name]
        accepted = inspect.signature(module.run).parameters
        kwargs = {}
        metrics = None
        if "cache" in accepted:
            kwargs["cache"] = ResultCache()
        if "metrics" in accepted:
            metrics = kwargs["metrics"] = MetricsRegistry()
        scope = obs.Obs() if obs_dir else obs.NULL
        start = time.perf_counter()
        with obs.use(scope):
            with scope.span(f"experiment.{name}", cat="experiment", fast=fast):
                result = module.run(fast=fast, **kwargs)
        elapsed = time.perf_counter() - start
        print(module.render(result))
        line = f"[{name}: {elapsed:.1f}s{' fast' if fast else ''}"
        if metrics is not None:
            line += f"  {format_summary(metrics)}"
        print(line + "]\n")
        if session is not None:
            scope.count("experiment.runs")
            scope.gauge("experiment.wall_seconds", elapsed)
            if metrics is not None:
                scope.metrics.merge(metrics, prefix="sweep.")
            obs.write_outputs(scope, Path(obs_dir) / name)
            session.trace.process_name(index + 1, name)
            session.trace.adopt(scope.trace.events, pid=index + 1)
            session.metrics.merge_rows(
                scope.metrics.snapshot(), labels={"experiment": name}
            )
    if session is not None:
        out = obs.write_outputs(session, obs_dir)
        print(f"[obs: trace.json + metrics.json in {out}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
