"""Per-segment least-squares line fitting.

For every monotonic sub-succession ``M_i = {w_f, ..., w_l}`` the paper
stores the coefficients ``(m_i, q_i)`` of the line minimizing the mean
squared error over the points ``(j, w_{f+j})``, ``j = 0 .. |M_i| - 1``.

With local abscissae ``x = 0 .. L-1`` the normal equations have the
closed form::

    m = (L * Sxy - Sx * Sy) / (L * Sxx - Sx**2)
    q = (Sy - m * Sx) / L

where ``Sx = L(L-1)/2`` and ``Sxx = (L-1)L(2L-1)/6`` depend only on the
segment length, and ``Sy``, ``Sxy`` are computed for *all* segments at
once with ``np.add.reduceat`` over the stream (``Sxy`` uses the identity
``sum_j j * w_{f+j} = sum_k k * w_k - f * Sy`` on global indices ``k``).
No Python-level loop over segments is required.

Decompression — regenerating the stream from the fitted lines — is the
accumulator of :mod:`repro.core.decompressor`, not an evaluation of
``m * x + q``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fit_segments"]


def fit_segments(
    weights: np.ndarray, boundaries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares line per segment.

    Parameters
    ----------
    weights:
        The 1-D stream being compressed.
    boundaries:
        Segment boundary array from
        :func:`repro.core.segmentation.segment_boundaries`.

    Returns
    -------
    (m, q):
        ``float64`` arrays, one slope and intercept per segment.
        Length-1 segments get ``m = 0`` and ``q = w``.
    """
    w = np.asarray(weights, dtype=np.float64).ravel()
    b = np.asarray(boundaries, dtype=np.int64)
    num_segments = b.size - 1
    if num_segments <= 0 or w.size == 0:
        return np.zeros(0), np.zeros(0)
    starts = b[:-1]
    lengths = np.diff(b).astype(np.float64)

    # reduceat with a trailing start index == len(w) would error; starts
    # from segment_boundaries never include n because the last boundary
    # is exclusive and dropped by b[:-1].
    sy = np.add.reduceat(w, starts)
    k = np.arange(w.size, dtype=np.float64)
    sky = np.add.reduceat(k * w, starts)
    sxy = sky - starts * sy

    sx = lengths * (lengths - 1.0) / 2.0
    sxx = (lengths - 1.0) * lengths * (2.0 * lengths - 1.0) / 6.0

    denom = lengths * sxx - sx * sx
    m = np.zeros(num_segments)
    multi = denom > 0  # false exactly for length-1 segments
    m[multi] = (lengths[multi] * sxy[multi] - sx[multi] * sy[multi]) / denom[multi]
    q = (sy - m * sx) / lengths
    return m, q
