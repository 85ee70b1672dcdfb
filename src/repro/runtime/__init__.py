"""Sweep-execution runtime: parallel grid running + result caching.

The experiment sweeps — Tab. II, Tab. III, Fig. 10, the multi-layer
optimizer, and :meth:`repro.core.pipeline.CompressionPipeline.sweep` —
are grids of independent points.  This package owns how those grids
execute:

* :func:`run_tasks` / :class:`GridTask` fan a grid over a process pool
  (``REPRO_JOBS`` env var or ``jobs=`` kwarg; ``jobs=1`` runs every
  task in-process) with order-preserving, deterministic results;
* :class:`ResultCache` is a content-addressed on-disk store (SHA-256 of
  weight-stream bytes + codec spec + delta + storage format +
  evaluation-set fingerprint) living next to the trained-weight cache,
  consulted *before* dispatch so warm sweeps run zero tasks;
* :class:`RunPolicy` is the fault handling every :func:`run_tasks` call
  runs under (``RunPolicy()`` by default): per-task timeouts, bounded
  retry with backoff, and ``BrokenProcessPool`` recovery via serial
  re-dispatch;
* a ``metrics=`` :class:`repro.obs.MetricsRegistry` counts tasks run,
  cache hits, and in-task seconds, and :func:`format_summary` renders
  the footer experiments print so you can see what was skipped;
* :func:`run_sharded` (or ``run_tasks(shards=...)``) drains a keyed
  grid cooperatively across processes via lease-claimed shard ranges
  under the cache dir — resumable after ``kill -9``, convergent to the
  exact serial result set (see :mod:`repro.runtime.shard`).
"""

from .cache import MISS, ResultCache, results_cache_enabled
from .keys import (
    codec_spec,
    fingerprint_array,
    fingerprint_arrays,
    fingerprint_bytes,
    result_key,
)
from .pool import GridTask, RunPolicy, default_jobs, format_summary, run_tasks

_SHARD_EXPORTS = {
    "LeaseManager",
    "ShardStore",
    "grid_id",
    "run_sharded",
    "shard_ranges",
}


def __getattr__(name: str):
    # lazy: ``python -m repro.runtime.shard`` imports this package first,
    # and an eager ``from .shard import ...`` here would double-import
    # the very module runpy is about to execute
    if name in _SHARD_EXPORTS:
        from . import shard

        return getattr(shard, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "MISS",
    "ResultCache",
    "results_cache_enabled",
    "codec_spec",
    "fingerprint_array",
    "fingerprint_arrays",
    "fingerprint_bytes",
    "result_key",
    "GridTask",
    "RunPolicy",
    "default_jobs",
    "format_summary",
    "run_tasks",
    "LeaseManager",
    "ShardStore",
    "grid_id",
    "run_sharded",
    "shard_ranges",
]
