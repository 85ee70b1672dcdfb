"""Weak-sense monotonic segmentation of a weight stream.

This module implements the partitioning step of the compression technique
of Sec. III-B of the paper: the succession of model parameters
``W = {w_1, ..., w_n}`` is greedily split, left to right, into maximal
sub-successions that are *monotonic in the weak sense* with tolerance
threshold ``delta`` (Eq. (1) of the paper):

    a succession is weakly decreasing with tolerance ``delta`` iff for
    every consecutive pair, ``w_i > w_{i+1}`` **or** ``|w_i - w_{i+1}| <=
    delta``; weakly increasing is symmetric.

Greedy semantics
----------------
Scanning left to right, a segment absorbs steps while it stays weakly
monotonic in at least one direction.  Steps whose magnitude is within
``delta`` are *neutral* and never commit a direction; the first
out-of-tolerance step commits the segment's direction, and the first
out-of-tolerance step of the *opposite* direction breaks the segment.
The breaking step lies *between* two segments (the partition is over
elements, not steps), so the element after the breaking step starts the
next segment with a fresh, uncommitted direction.

Vectorization
-------------
The greedy scan looks inherently sequential, but it collapses to a pure
NumPy pipeline.  Classify each step ``d_i = w_{i+1} - w_i`` with sign
``t_i in {-1, 0, +1}`` (``0`` when ``|d_i| <= delta``).  Restrict to the
subsequence of non-zero signs.  A step breaks the current segment iff its
sign differs from the segment's committed direction, and the committed
direction is always the sign of the *previous non-zero, non-breaking*
step.  Hence, with ``c_j = [t_j != t_{j-1}]`` over the non-zero
subsequence:

    break(j) = c_j and not break(j-1),      break(0) = False

i.e. breaks alternate inside each maximal run of consecutive sign
changes, starting with a break.  Runs of ones in ``c`` are found with
``np.flatnonzero`` and the alternation is an index-parity test — O(n)
NumPy, no Python loop.  ``segment_greedy_reference`` keeps the obvious
sequential implementation for differential testing.

Windows
-------
The scan runs over windows of about ``_WINDOW`` weights rather than the
whole stream, so its float64 copy and step temporaries stay cache-sized
however long the stream is.  A segment start resets the greedy state, so
a window that starts at one partitions exactly as the whole-stream scan
does up to its last break; :func:`segment_windows` cuts there and the
open segment carries into the next window.  A window without a break
grows from the same start until it holds one or reaches the end of the
stream.  Each window is cast to float64 once and handed on, so the line
fit (:func:`repro.core.compression.compress`) sums the same array;
:func:`segment_boundaries` is the same loop without the fit.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = [
    "step_signs",
    "segment_windows",
    "segment_boundaries",
    "segment_greedy_reference",
    "is_weak_monotonic",
    "delta_from_percent",
]

#: weights per scan window: its float64 copy and each step temporary
#: take 512 KiB, so a window's working set stays near a core's L2 cache
_WINDOW = 1 << 16


def delta_from_percent(weights: np.ndarray, delta_pct: float) -> float:
    """Convert the paper's percentage tolerance into an absolute one.

    The paper expresses ``delta`` as a percentage of the amplitude of the
    model parameters: ``delta = x% * (max(W) - min(W)) / 100``.

    Parameters
    ----------
    weights:
        The weight stream the tolerance refers to.
    delta_pct:
        Tolerance as a percentage of the weight range (e.g. ``15`` for
        the paper's ``delta = 15%``).

    Returns
    -------
    float
        The absolute tolerance to use in :func:`segment_boundaries`.
    """
    if delta_pct < 0:
        raise ValueError(f"delta_pct must be non-negative, got {delta_pct}")
    w = np.asarray(weights)
    if w.size == 0:
        return 0.0
    amplitude = float(w.max()) - float(w.min())
    return delta_pct * amplitude / 100.0


def step_signs(weights: np.ndarray, delta: float) -> np.ndarray:
    """Classify each consecutive step of the stream.

    Returns an ``int8`` array of length ``n - 1`` with ``+1`` for an
    out-of-tolerance increase, ``-1`` for an out-of-tolerance decrease
    and ``0`` for a neutral step (``|d| <= delta``).
    """
    w = np.asarray(weights, dtype=np.float64).ravel()
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    d = np.diff(w)
    return (d > delta).view(np.int8) - (d < -delta).view(np.int8)


def _breaks(x: np.ndarray, delta: float) -> np.ndarray:
    """Greedy segment starts after ``x[0]``, which starts a segment."""
    signs = step_signs(x, delta)
    # flatnonzero of a bool mask, and gathers by index rather than by
    # boolean mask (below), run several times faster than their int8
    # and masked forms
    nz = np.flatnonzero(signs != 0)
    t = signs[nz]
    # j - 1 for each sign change c_j = 1 (j = 1..k-1) of the non-zero
    # subsequence
    change_idx = np.flatnonzero(t[1:] != t[:-1])
    if change_idx.size == 0:
        return change_idx
    # break(j) alternates inside each maximal run of consecutive changes,
    # starting with a break at the run head.  Run heads are the change
    # positions not preceded by a change; broadcasting the head index to
    # the whole run (non-heads contribute 0, below the first head) lets
    # a parity test pick every other position.
    head_mask = np.ones(change_idx.size, dtype=bool)
    head_mask[1:] = np.diff(change_idx) > 1
    head_of = np.maximum.accumulate(change_idx * head_mask)
    keep = np.flatnonzero(((change_idx - head_of) & 1) == 0)
    # The breaking step is signs[nz[j]]; the next segment starts at the
    # element just after that step.
    return nz[change_idx[keep] + 1] + 1


def segment_windows(
    weights: np.ndarray, delta: float
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Greedy weak-monotonic partition of ``weights``, window by window.

    Yields ``(pos, x, b)`` in stream order: ``x`` is
    ``weights[pos:pos + len(x)]`` cast to ``float64`` and ``b`` its local
    boundary array (``b[0] == 0``, ``b[-1] == len(x)``), so segment
    ``i`` of the window is ``x[b[i]:b[i+1]]``.  The windows tile the
    stream, each starts at a segment start, and together their
    boundaries are exactly :func:`segment_boundaries`.  An empty stream
    yields nothing.
    """
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    w = np.asarray(weights).ravel()
    n = w.size
    pos, size = 0, _WINDOW
    while pos < n:
        stop = min(pos + size, n)
        x = np.asarray(w[pos:stop], dtype=np.float64)
        starts = _breaks(x, delta)
        if stop < n:
            if starts.size == 0:
                size *= 2  # one open segment: grow from the same start
                continue
            # the segment from the last break on may go on past `stop`
            x, starts = x[: starts[-1]], starts[:-1]
        yield pos, x, np.concatenate(([0], starts, [x.size]))
        pos, size = pos + x.size, _WINDOW


def segment_boundaries(weights: np.ndarray, delta: float) -> np.ndarray:
    """Greedy weak-monotonic partition of ``weights``.

    Parameters
    ----------
    weights:
        1-D stream of parameters (any float dtype; flattened C-order).
    delta:
        Absolute tolerance threshold (``>= 0``).  Use
        :func:`delta_from_percent` to derive it from the paper's
        percentage convention.

    Returns
    -------
    numpy.ndarray
        ``int64`` boundary array ``b`` with ``b[0] == 0`` and
        ``b[-1] == n``; segment ``i`` is ``weights[b[i]:b[i+1]]``.
        An empty stream yields ``[0]``.
    """
    starts = [pos + b[:-1] for pos, _, b in segment_windows(weights, delta)]
    n = np.asarray(weights).size
    return np.concatenate([*starts, [n]]).astype(np.int64)


def segment_greedy_reference(weights: np.ndarray, delta: float) -> np.ndarray:
    """Sequential reference implementation of :func:`segment_boundaries`.

    Kept deliberately naive; the tests and the ablation harness's
    ``core.segmenter`` row check the vectorized kernel against it on
    random and adversarial streams.
    """
    w = np.asarray(weights, dtype=np.float64).ravel()
    n = w.size
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    boundaries = [0]
    direction = 0  # 0 = uncommitted, +1 increasing, -1 decreasing
    for i in range(n - 1):
        d = w[i + 1] - w[i]
        if abs(d) <= delta:
            continue
        s = 1 if d > 0 else -1
        if direction == 0:
            direction = s
        elif s != direction:
            boundaries.append(i + 1)
            direction = 0
    boundaries.append(n)
    return np.asarray(boundaries, dtype=np.int64)


def is_weak_monotonic(segment: np.ndarray, delta: float) -> bool:
    """Check Eq. (1): is ``segment`` weakly monotonic with tolerance ``delta``?

    True iff the segment is weakly increasing **or** weakly decreasing,
    i.e. all out-of-tolerance steps share one direction.
    """
    s = np.asarray(segment, dtype=np.float64).ravel()
    if s.size <= 1:
        return True
    signs = step_signs(s, delta)
    has_up = bool((signs > 0).any())
    has_down = bool((signs < 0).any())
    return not (has_up and has_down)
