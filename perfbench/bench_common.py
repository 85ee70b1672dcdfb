"""Shared pieces of the benchmark: paths, seeded inputs, statistics.

Everything a workload consumes is generated here from the ``--seed``
argument *before* set-up starts, so the program under test only ever
sees the generated inputs: the on-disk LeNet-5 archive, the request
tensors and the sweep's materialization seeds.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

#: the checkout root (``perfbench/..``): the program is imported from
#: its ``src/`` tree, so the benchmark always measures the code beside it
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: everything the benchmark writes lives below this directory
OUT = Path(__file__).resolve().parent / "out"


def import_program() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` or exit non-zero.

    A directory holding only the benchmark (no program) must fail fast
    without printing a result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program at {SRC}/repro; nothing to measure\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def sub_seed(seed: int, purpose: str) -> int:
    """A stable 63-bit seed for one input family, derived from ``seed``."""
    digest = hashlib.sha256(f"perfbench/{purpose}/{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def work_dir(workload: str, seed: int) -> Path:
    """A fresh per-run scratch directory under :data:`OUT`."""
    path = OUT / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- seeded inputs ---------------------------------------------------------

#: LeNet-5 layers the archive compresses: every Conv2D/Dense, as the
#: paper does (BatchNorm layers are left out; see README "Known defects")
SERVE_DELTA_PCT = 10.0
#: distinct request tensors cycled by the closed-loop clients
NUM_INPUTS = 64
INPUT_SHAPE = (1, 28, 28)


def serve_inputs(seed: int, directory: Path) -> tuple[Path, list[np.ndarray]]:
    """Write the seeded LeNet-5 archive and make the request tensors.

    The proxy's weights come from ``seed``; all five conv/dense layers
    are line-fit compressed at δ = 10 % and the archive goes to disk
    through ``ModelArchive.to_file``, so set-up starts from a file.
    """
    from repro.core.model_store import compress_model
    from repro.nn import zoo

    model = zoo.lenet5.proxy(np.random.default_rng(sub_seed(seed, "weights")))
    assignments = {name: SERVE_DELTA_PCT for name, _ in model.parametric_layers()}
    archive = compress_model(model, assignments)
    path = directory / "lenet5.npz"
    archive.to_file(path)
    rng = np.random.default_rng(sub_seed(seed, "requests"))
    inputs = [
        rng.standard_normal(INPUT_SHAPE).astype(np.float32) for _ in range(NUM_INPUTS)
    ]
    return path, inputs


# -- host speed ------------------------------------------------------------

#: seconds one :func:`reference_slice` takes on the recording host in its
#: slower phases: the speed every host-timed figure is scaled to
REFERENCE_S = 0.014

_LARGE = np.linspace(-1.0, 1.0, 1 << 18, dtype=np.float32)
_MATRIX = np.linspace(-1.0, 1.0, 64 * 64, dtype=np.float32).reshape(64, 64)


def reference_slice() -> float:
    """Seconds one slice of the benchmark's fixed reference work takes.

    Half interpreter loop, half large-array numpy arithmetic: the mix
    the workloads' times follow most closely as the host's speed swings
    (README "Host scaling and noise"); small-array numpy calls were left
    out because they swing further than any workload does.  It never
    calls the program, so a change to the program cannot change it.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(40_000):
        x += i * 3 % 7
    for _ in range(30):
        (_LARGE * np.float32(1.5) + np.float32(2.0)).sum()
        _MATRIX @ _MATRIX
    return time.perf_counter() - t0


class HostSpeed:
    """Scales host-timed figures to a host of fixed speed.

    The recording host's speed swings by up to 2x, within a second and
    for tens of seconds to minutes at a time, for every kind of work
    alike (README "Host scaling and noise").  So the workloads take a
    reference slice between short pieces of their work, on the same
    CPU, and :meth:`span` scales the time between two slices by
    ``REFERENCE_S`` over the mean of the two: the time that work would
    take on a host that runs a slice in ``REFERENCE_S``.
    """

    def __init__(self) -> None:
        reference_slice()  # first-call warm-up, not a sample
        #: start, end and duration of every slice taken
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.slices: list[float] = []
        self.step()

    def step(self) -> None:
        """Take a slice."""
        t0 = time.perf_counter()
        self.slices.append(reference_slice())
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def maybe_step(self, every: float) -> None:
        """Take a slice if ``every`` seconds have passed since the last."""
        if time.perf_counter() - self.ends[-1] >= every:
            self.step()

    def span(self, a: float, b: float) -> tuple[float, float]:
        """``(seconds, scaled seconds)`` of the work in ``[a, b]``: the
        time outside the slices, as measured and scaled gap by gap.  Call
        it once a slice after ``b`` has been taken."""
        k = max(0, bisect.bisect_right(self.starts, a) - 1)
        seconds = scaled = 0.0
        while k + 1 < len(self.slices) and self.ends[k] < b:
            piece = min(b, self.starts[k + 1]) - max(a, self.ends[k])
            if piece > 0:
                seconds += piece
                scaled += piece * 2.0 * REFERENCE_S / (self.slices[k] + self.slices[k + 1])
            k += 1
        return seconds, scaled

    def describe(self) -> str:
        return (f"reference slice median {median(self.slices) * 1e3:.1f} ms over "
                f"{len(self.slices)} (scaled to {REFERENCE_S * 1e3:.1f} ms)")


# -- statistics ------------------------------------------------------------


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dtype_exact_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality (distinguishes -0.0 and NaN payloads)."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
