"""Weight initializers and "trained-like" weight samplers.

Two distinct needs:

* **Training proxies** use the classical fan-based initializers
  (:func:`glorot_uniform`, :func:`he_normal`).

* **Full-scale paper models** are never trained here (no ImageNet, no
  GPU); their weights are *sampled* to match the statistics of trained
  networks, because every full-model metric we reproduce (compression
  ratio, entropy, MSE, traffic volume) depends only on the weight-stream
  statistics.  Trained CNN weights are well described by a zero-mean
  heavy-tailed unimodal distribution — near-Gaussian with excess
  kurtosis, std ~ the initializer scale shrunk by weight decay
  (:func:`trained_like`).  The paper's own Fig. 3 makes the same point:
  byte-entropy of trained weights is indistinguishable from random data.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "fans",
    "glorot_uniform",
    "he_normal",
    "trained_like",
]

#: uniforms per draw of :func:`trained_like`'s outlier mask: a 512 KiB
#: float64 chunk instead of 8 B for every weight of the layer
_MASK_CHUNK = 1 << 16


def fans(shape: tuple[int, ...]) -> tuple[int, int]:
    """(fan_in, fan_out) for dense ``(in, out)`` or conv ``OIHW`` shapes."""
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive


def glorot_uniform(shape, rng: np.random.Generator) -> np.ndarray:
    fan_in, fan_out = fans(tuple(shape))
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


def he_normal(shape, rng: np.random.Generator) -> np.ndarray:
    fan_in, _ = fans(tuple(shape))
    std = np.sqrt(2.0 / fan_in)
    return (rng.normal(0.0, std, size=shape)).astype(np.float32)


def trained_like(
    shape,
    rng: np.random.Generator,
    scale: float = 1.0,
    tail_ratio: float | None = None,
) -> np.ndarray:
    """Sample weights with trained-network statistics.

    The bulk is Gaussian at the Glorot scale of the layer (shrunk by a
    factor standing in for weight decay, times ``scale``) plus a small
    wide component for the mild leptokurtosis of trained weights.

    ``tail_ratio`` sets the target range/std of the stream.  Trained
    MNIST-class models show near-Gaussian ranges (the default), while
    ImageNet-trained classifiers (VGG/ResNet/MobileNet heads) carry a
    handful of large outlier weights that stretch the range to 15-30x
    the std.  Because the paper's tolerance delta is a *percentage of
    the range*, this single statistic controls how fast the compression
    ratio grows with delta — it is calibrated per model against the
    paper's Tab. II (see the zoo modules).
    """
    shape = tuple(shape)
    fan_in, fan_out = fans(shape)
    base_std = np.float32(scale * np.sqrt(2.0 / (fan_in + fan_out)) * 0.8)
    n = int(np.prod(shape))
    # float32 generation end to end: the largest layer in the evaluation
    # is 102.8M weights and float64 staging would cost ~0.9 GB
    w = rng.standard_normal(n, dtype=np.float32)
    w *= base_std
    # the outlier mask takes the uniforms of one rng.random(n) a chunk
    # at a time, without their float64 copy of the layer
    wide = np.empty(n, dtype=bool)
    for lo in range(0, n, _MASK_CHUNK):
        hi = min(lo + _MASK_CHUNK, n)
        np.less(rng.random(hi - lo), 0.05, out=wide[lo:hi])
    n_wide = int(wide.sum())
    w[wide] = rng.standard_normal(n_wide, dtype=np.float32) * np.float32(1.8 * base_std)
    if tail_ratio is not None and n >= 16:
        if tail_ratio <= 0:
            raise ValueError(f"tail_ratio must be positive, got {tail_ratio}")
        # make the ratio authoritative: clip anything beyond the target
        # envelope (touches a vanishing fraction of the bulk), then pin a
        # few weights at the envelope so the range is exactly 2 * half
        half = np.float32(tail_ratio / 2.0 * float(w.std()))
        np.clip(w, -half, half, out=w)
        k = max(2, n // 500_000)
        idx = rng.choice(n, size=2 * k, replace=False)
        w[idx[:k]] = half
        w[idx[k:]] = -half
    return w.reshape(shape)
