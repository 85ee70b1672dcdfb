"""Deterministic, seeded fault injectors.

Two fault surfaces, one discipline — every injector is seeded, so the
same ``(seed, rate)`` always damages the same bits/tasks and a fault
campaign is exactly reproducible (same corrupted-stream digests, same
accuracy table):

* **storage/transport bits** — :class:`BitFlipInjector` flips bits in
  ``bytes`` payloads (compressed blobs) and NumPy weight arrays (raw
  storage) at a given bit-error rate;
* **pool workers** — module-level, picklable crash/hang/kill task
  wrappers for :func:`repro.runtime.pool.run_tasks`.  The ``*_once``
  variants coordinate across processes through a sentinel file, so the
  first attempt fails and the retry succeeds — the deterministic
  recovery scenario the pool tests assert.
"""

from __future__ import annotations

import hashlib
import os
import time

import numpy as np

from ..core.errors import FaultError

__all__ = [
    "digest",
    "BitFlipInjector",
    "crash",
    "crash_once",
    "hang_once",
    "kill_once",
]


def digest(data: bytes | np.ndarray) -> str:
    """SHA-256 hex digest of a payload or array's raw bytes.

    The reproducibility witness of the fault campaign: same seed + BER
    -> identical corrupted-stream digests.
    """
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


class BitFlipInjector:
    """Seeded uniform bit flips at a target bit-error rate.

    Each bit of the target flips independently with probability ``ber``
    (sampled as a binomial draw of flip positions, so multi-megabyte
    payloads stay cheap).  Every call advances the injector's RNG:
    construct one injector per experimental arm for independent noise,
    or re-construct with the same seed to replay it.
    """

    def __init__(self, seed: int, ber: float) -> None:
        if not 0.0 <= ber <= 1.0:
            raise ValueError(f"bit-error rate must be in [0, 1], got {ber}")
        self.seed = int(seed)
        self.ber = float(ber)
        self._rng = np.random.default_rng(self.seed)

    def _flip_positions(self, nbits: int) -> np.ndarray:
        n_flips = int(self._rng.binomial(nbits, self.ber)) if nbits else 0
        if n_flips == 0:
            return np.empty(0, dtype=np.int64)
        return self._rng.choice(nbits, size=n_flips, replace=False)

    def corrupt_bytes(self, data: bytes) -> bytes:
        """A copy of ``data`` with seeded bit flips applied."""
        buf = np.frombuffer(data, dtype=np.uint8).copy()
        pos = self._flip_positions(buf.size * 8)
        if pos.size:
            np.bitwise_xor.at(buf, pos >> 3, (0x80 >> (pos & 7)).astype(np.uint8))
        return buf.tobytes()

    def corrupt_array(self, arr: np.ndarray) -> np.ndarray:
        """A copy of ``arr`` with seeded bit flips in its raw bytes.

        Models soft errors in *uncompressed* parameter storage: the
        corruption granularity is one weight, not one segment.
        """
        out = np.ascontiguousarray(arr).copy()
        view = out.view(np.uint8).ravel()
        pos = self._flip_positions(view.size * 8)
        if pos.size:
            np.bitwise_xor.at(view, pos >> 3, (0x80 >> (pos & 7)).astype(np.uint8))
        return out


# -- pool-worker fault tasks (module-level: picklable) ------------------------


def crash(message: str = "injected worker crash") -> None:
    """A task that always fails."""
    raise FaultError(message)


def crash_once(sentinel: str, value):
    """Fail on the first call (across processes), succeed afterwards.

    ``sentinel`` is a filesystem path used as cross-process state: the
    first caller creates it and raises; retries see it and return
    ``value``.  ``O_CREAT | O_EXCL`` makes the transition atomic even
    when pool workers race.
    """
    try:
        fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return value
    os.close(fd)
    raise FaultError(f"injected crash (first attempt, sentinel {sentinel})")


def hang_once(sentinel: str, seconds: float, value):
    """Hang for ``seconds`` on the first call, return instantly after.

    The sentinel is created *before* sleeping, so the retry that follows
    the caller's timeout completes immediately.  Keep ``seconds`` around
    one second in tests: a timed-out worker is abandoned, not killed,
    and only exits once its sleep elapses.
    """
    try:
        fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return value
    os.close(fd)
    time.sleep(float(seconds))
    return value


def kill_once(sentinel: str, value):
    """Kill the worker process on the first call, succeed afterwards."""
    try:
        fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return value
    os.close(fd)
    os._exit(13)
