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
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "step_signs",
    "segment_boundaries",
    "segment_greedy_reference",
    "segment_lengths",
    "is_weak_monotonic",
    "delta_from_percent",
]


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
    signs = np.zeros(d.shape, dtype=np.int8)
    signs[d > delta] = 1
    signs[d < -delta] = -1
    return signs


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
    w = np.asarray(weights).ravel()
    n = w.size
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    if n == 1:
        return np.array([0, 1], dtype=np.int64)

    signs = step_signs(w, delta)
    nz = np.flatnonzero(signs)
    if nz.size <= 1:
        # At most one committed direction: a single segment.
        return np.array([0, n], dtype=np.int64)

    t = signs[nz]
    change = t[1:] != t[:-1]  # c_j for j = 1..k-1 in the non-zero subsequence
    if not change.any():
        return np.array([0, n], dtype=np.int64)

    # break(j) alternates inside each maximal run of consecutive changes,
    # starting with a break at the run head.  Run heads are the change
    # positions not preceded by a change; broadcasting the head index to
    # the whole run lets a parity test pick every other position.
    change_idx = np.flatnonzero(change)  # indices into `change`
    head_mask = np.ones(change_idx.size, dtype=bool)
    head_mask[1:] = np.diff(change_idx) > 1
    # For each change position, index of its run head (same units).
    head_of = np.maximum.accumulate(np.where(head_mask, change_idx, -1))
    breaks_in_change = (change_idx - head_of) % 2 == 0
    break_j = change_idx[breaks_in_change] + 1  # j-index in non-zero subseq

    # The breaking step is signs[nz[break_j]]; the next segment starts at
    # the element just after that step.
    starts = nz[break_j] + 1
    return np.concatenate(([0], starts, [n])).astype(np.int64)


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


def segment_lengths(boundaries: np.ndarray) -> np.ndarray:
    """Lengths of the segments described by a boundary array."""
    b = np.asarray(boundaries, dtype=np.int64)
    return np.diff(b)


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
