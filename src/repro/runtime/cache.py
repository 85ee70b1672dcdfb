"""Content-addressed on-disk cache of sweep grid-point results.

Entries live next to the trained-weight cache, under
``$REPRO_CACHE/results-v2/`` (``~/.cache/repro-weights/results-v2/`` by
default), one JSON file per key, sharded by the first two hex digits.
Keys come from :func:`repro.runtime.keys.result_key` — the SHA-256 of
everything the result depends on — so invalidation is automatic: change
the weights, the delta, the codec spec, the storage format, or the
evaluation set and you address a different entry; stale files are never
*wrong*, merely unreachable.

Writes are atomic (temp file + flush + fsync + ``os.replace``), so a
sweep killed mid-write never leaves a truncated entry behind, and two
processes racing a ``put`` on the same key both land a readable entry
(each writes its own temp file; the replaces serialize, last writer
wins).  An entry that exists
but cannot be read back (truncated by an external writer, bit-rotted,
hand-edited) is *quarantined* — moved aside to ``<key>.corrupt`` — and
treated as a miss, so the next ``put`` rebuilds it and the damaged bytes
stay on disk for inspection instead of being silently clobbered.

``REPRO_RESULT_CACHE=0`` disables the cache process-wide (every ``get``
misses, every ``put`` is dropped) — the knob for forcing cold runs.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .. import obs
from .serialize import SerializationError, decode, encode

__all__ = ["ResultCache", "results_cache_enabled", "MISS"]

#: sentinel distinguishing "no entry" from a cached ``None``
MISS = object()

#: default entry directory under the weight cache.  Versioned because
#: keys do not name the line-fit decoder: entries in the unversioned
#: ``results/`` were computed with the float64 ``m * x + q`` decode,
#: since replaced by the float32 accumulator, and must not be served.
DEFAULT_RESULTS_DIR = "results-v2"


def results_cache_enabled() -> bool:
    return os.environ.get("REPRO_RESULT_CACHE", "") not in ("0",)


class ResultCache:
    """Keyed store of JSON-serializable result objects.

    Parameters
    ----------
    root:
        Cache directory; defaults to :data:`DEFAULT_RESULTS_DIR`
        inside the weight cache dir (``REPRO_CACHE`` or
        ``~/.cache/repro-weights``).
    enabled:
        Force-enable/disable; defaults to the ``REPRO_RESULT_CACHE``
        environment switch.

    The ``hits``/``misses``/``puts`` counters feed the sweep timing
    summaries, which is how a warm rerun *proves* it skipped the
    encode/evaluate work.
    """

    def __init__(self, root: str | Path | None = None, enabled: bool | None = None):
        if root is None:
            # late import: common owns the REPRO_CACHE resolution
            from ..experiments.common import cache_dir

            root = cache_dir() / DEFAULT_RESULTS_DIR
        self.root = Path(root)
        self.enabled = results_cache_enabled() if enabled is None else enabled
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.quarantined = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path) -> None:
        """Move an unreadable entry aside so it stops shadowing the key."""
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            return  # racing readers: someone else already moved it
        self.quarantined += 1
        obs.current().count("cache.quarantined")

    def _miss(self):
        self.misses += 1
        obs.current().count("cache.misses")
        return MISS

    def get(self, key: str):
        """The cached value for ``key``, or :data:`MISS`.

        A present-but-unreadable entry (truncated JSON, undecodable
        document) is quarantined to ``<key>.corrupt`` and reported as a
        miss; a simply absent entry is a plain miss.
        """
        if not self.enabled:
            return self._miss()
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
            value = decode(doc["value"])
        except FileNotFoundError:
            return self._miss()
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            self._quarantine(path)
            return self._miss()
        self.hits += 1
        obs.current().count("cache.hits")
        return value

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key`` (atomic, last writer wins)."""
        if not self.enabled:
            return
        try:
            doc = {"key": key, "value": encode(value)}
        except SerializationError:
            return  # uncacheable result shapes silently skip the cache
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(doc, f)
                # flush + fsync *before* the rename: os.replace is atomic
                # against concurrent readers, but without the fsync a
                # crash can reorder the metadata ahead of the data and
                # leave a truncated entry under the final name — which a
                # later get() would quarantine as corruption
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
            self.puts += 1
            obs.current().count("cache.puts")
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def counters(self) -> dict[str, int]:
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_puts": self.puts,
            "cache_quarantined": self.quarantined,
        }
