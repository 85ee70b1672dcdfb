"""Per-segment least-squares line fitting.

For every monotonic sub-succession ``M_i = {w_f, ..., w_l}`` the paper
stores the coefficients ``(m_i, q_i)`` of the line minimizing the mean
squared error over the points ``(j, w_{f+j})``, ``j = 0 .. |M_i| - 1``.

With local abscissae ``x = 0 .. L-1`` the normal equations have the
closed form::

    m = (L * Sxy - Sx * Sy) / (L * Sxx - Sx**2)
    q = (Sy - m * Sx) / L

where ``Sx = L(L-1)/2`` and ``Sxx = (L-1)L(2L-1)/6`` depend only on the
segment length, and ``Sy``, ``Sxy`` are computed for *all* segments of a
window at once with ``np.add.reduceat``.  ``Sxy`` uses the identity
``sum_j j * w_{f+j} = sum_k k * w_k - f * Sy`` on *global* stream
indices ``k`` and ``f``: a window starting at stream position ``origin``
weights its elements by ``origin, origin + 1, ...``, so each segment's
sums are the same floating-point operations in the same order wherever
the window that holds it starts (:func:`repro.core.segmentation.
segment_windows`), and the fit is bit-identical to one over the whole
stream.  No Python-level loop over segments is required.

Decompression — regenerating the stream from the fitted lines — is the
accumulator of :mod:`repro.core.decompressor`, not an evaluation of
``m * x + q``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fit_segments"]


def fit_segments(
    window: np.ndarray, boundaries: np.ndarray, origin: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares line per segment of one window of the stream.

    Parameters
    ----------
    window:
        ``weights[origin:origin + len(window)]`` of the 1-D stream being
        compressed (the whole stream when ``origin`` is 0).
    boundaries:
        The window's local segment boundaries, from ``0`` to
        ``len(window)`` (see :func:`repro.core.segmentation.
        segment_windows`).
    origin:
        Stream position of ``window[0]``.

    Returns
    -------
    (m, q):
        ``float64`` arrays, one slope and intercept per segment.
        Length-1 segments get ``m = 0`` and ``q = w``.
    """
    x = np.asarray(window, dtype=np.float64).ravel()
    b = np.asarray(boundaries, dtype=np.int64)
    if b.size <= 1 or x.size == 0:
        return np.zeros(0), np.zeros(0)
    starts = b[:-1]
    lengths = np.diff(b).astype(np.float64)

    sy = np.add.reduceat(x, starts)
    kx = np.arange(origin, origin + x.size, dtype=np.float64)
    kx *= x
    sxy = np.add.reduceat(kx, starts) - (starts + origin) * sy

    sx = lengths * (lengths - 1.0) / 2.0
    sxx = (lengths - 1.0) * lengths * (2.0 * lengths - 1.0) / 6.0

    denom = lengths * sxx - sx * sx  # zero exactly for length-1 segments
    m = np.divide(
        lengths * sxy - sx * sy, denom, out=np.zeros_like(sy), where=denom > 0
    )
    q = (sy - m * sx) / lengths
    return m, q
