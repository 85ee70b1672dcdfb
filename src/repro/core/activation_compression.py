"""Applying the weight compressor to activation streams (extension).

The paper compresses only the *parameters*; its conclusion mentions
extending the approach.  Feature maps are a natural next target: after
ReLU roughly half of all activations are exact zeros, and zero runs are
perfect weak-monotonic segments, so the same codec achieves *higher*
compression ratios on activations than on weights at the same delta.
Compressing the ofmap write-back (and the consumer layer's ifmap read)
attacks the activation half of the traffic of the paper's Fig. 1.

Unlike weights (compressed once, offline), activations are compressed
on the fly per inference, so the paper's hardware argument (multiplier-
free decompression, Fig. 6) matters doubly here; the same decode-cycle
model (:meth:`repro.mapping.schedule.CompressionEffect.decompress_cycles`)
applies.

This module measures, on a trained proxy:

* the per-layer compression ratio of real activation streams
  (:func:`activation_cr_profile`);
* the end-to-end accuracy when every intermediate activation is
  round-tripped through the lossy codec
  (:func:`evaluate_with_compressed_activations`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.graph import Model
from ..nn.train import topk_accuracy
from .codecs import get_codec

__all__ = [
    "ActivationProfile",
    "activation_cr_profile",
    "evaluate_with_compressed_activations",
]


@dataclass(frozen=True)
class ActivationProfile:
    layer: str
    zero_fraction: float
    cr: float
    num_values: int


def activation_cr_profile(
    model: Model,
    x: np.ndarray,
    delta_pct: float,
    max_values: int = 500_000,
) -> list[ActivationProfile]:
    """Compress every node's activation stream; report CR per layer.

    Only array-producing nodes with at least 64 values are profiled
    (tiny vectors carry no stable statistics).
    """
    _, acts = model.forward_traced(x)
    codec = get_codec("linefit", delta_pct=delta_pct)
    out = []
    for name, arr in acts.items():
        flat = np.asarray(arr, dtype=np.float32).ravel()[:max_values]
        if flat.size < 64:
            continue
        blob = codec.encode(flat)
        out.append(
            ActivationProfile(
                layer=name,
                zero_fraction=float((flat == 0).mean()),
                cr=blob.compression_ratio,
                num_values=int(flat.size),
            )
        )
    return out


def evaluate_with_compressed_activations(
    model: Model,
    x: np.ndarray,
    y: np.ndarray,
    delta_pct: float,
    top_k: int = 1,
    batch_size: int = 128,
    layers: set[str] | None = None,
) -> float:
    """Accuracy when intermediate activations are codec-round-tripped.

    ``layers`` restricts compression to a subset of nodes; by default
    every node is compressed.  The depth principle of the paper's Fig. 9
    holds for activations too: input-side feature maps are fragile while
    deep, sparse post-ReLU maps tolerate the codec — so a deployment
    would compress only the deep write-backs.  The final logits node is
    always left untouched.
    """
    last = model.node_names[-1]
    codec = get_codec("linefit", delta_pct=delta_pct)

    def transform(name: str, out: np.ndarray) -> np.ndarray:
        if name == last or out.size < 64:
            return out
        if layers is not None and name not in layers:
            return out
        blob = codec.encode(np.asarray(out, dtype=np.float32))
        return codec.decode(blob).reshape(out.shape)

    outs = [
        model.forward_transformed(x[start : start + batch_size], transform)
        for start in range(0, len(x), batch_size)
    ]
    logits = np.concatenate(outs, axis=0)
    return topk_accuracy(logits, y, top_k)
