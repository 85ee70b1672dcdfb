"""Compression metrics reported in the paper's Tab. II / Tab. III.

Four figures are attached to every (model, layer, delta) experiment:

* ``CR`` — compression ratio of the compressed layer alone;
* ``Weighted CR`` — the paper's whole-model figure.  Reverse-engineering
  Tab. II shows it is the *parameter-weighted mean* of per-layer CRs
  (uncompressed layers counting as CR = 1):  e.g. AlexNet delta=20%:
  0.70 x 11.44 + 0.30 = 8.3 (the paper prints 8.28), LeNet-5 delta=20%:
  0.78 x 4.02 + 0.22 = 3.4 (paper: 3.36).  Note this is *not* the
  footprint ratio — a 70%-of-parameters layer caps the true footprint
  ratio at 1/0.3 = 3.3, below the printed 8.28;
  :func:`footprint_ratio` computes the true ratio for accounting that
  needs it (Tab. III stacking, the multi-layer optimizer).
* ``Mem fp reduction`` — reduction of the whole-model parameter
  footprint, ``frac x (1 - 1/CR)``; matches the paper's column for
  every model except its LeNet-5 row (which follows ``1 - 1/wCR``
  instead — the paper's own table mixes conventions; see
  EXPERIMENTS.md).
* ``MSE`` — mean squared error between original and approximated
  parameters of the compressed layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codecs import CompressedBlob

__all__ = [
    "CompressionReport",
    "layer_report",
    "footprint_ratio",
    "param_weighted_cr",
]


@dataclass(frozen=True)
class CompressionReport:
    """One row of the paper's Tab. II."""

    delta_pct: float
    cr: float
    weighted_cr: float
    mem_fp_reduction: float  # fraction in [0, 1); the paper prints a %
    mse: float

    def as_row(self) -> str:
        return (
            f"{self.delta_pct:>4.0f}%  CR={self.cr:6.2f}  "
            f"wCR={self.weighted_cr:5.2f}  "
            f"mem-fp={100 * self.mem_fp_reduction:4.0f}%  "
            f"MSE={self.mse:.2e}"
        )


def footprint_ratio(
    total_params: int,
    compressed_layer_params: int,
    layer_cr: float,
    weight_bytes: int = 4,
) -> float:
    """True whole-model footprint ratio when one layer is compressed.

    ``total_params * weight_bytes`` over the footprint where the selected
    layer's bytes shrink by ``layer_cr`` and the rest are unchanged.
    Amdahl-bounded by ``1 / (1 - fraction)``.
    """
    if total_params <= 0:
        raise ValueError("total_params must be positive")
    if not 0 <= compressed_layer_params <= total_params:
        raise ValueError("compressed_layer_params out of range")
    if layer_cr <= 0:
        raise ValueError("layer_cr must be positive")
    original = total_params * weight_bytes
    compressed = (
        (total_params - compressed_layer_params) * weight_bytes
        + compressed_layer_params * weight_bytes / layer_cr
    )
    return original / compressed


def param_weighted_cr(
    total_params: int, compressed_layer_params: int, layer_cr: float
) -> float:
    """The paper's Tab. II "Weighted CR": param-weighted mean of CRs."""
    if total_params <= 0:
        raise ValueError("total_params must be positive")
    if not 0 <= compressed_layer_params <= total_params:
        raise ValueError("compressed_layer_params out of range")
    frac = compressed_layer_params / total_params
    return frac * layer_cr + (1.0 - frac)


def layer_report(
    blob: CompressedBlob,
    mse: float,
    total_params: int,
    delta_pct: float,
) -> CompressionReport:
    """Assemble the Tab. II row for one compressed layer.

    ``blob`` is the layer's codec output (its CR and weight count);
    ``mse`` its :meth:`~repro.core.codecs.Codec.reconstruction_mse`.
    """
    cr = blob.compression_ratio
    layer_params = blob.num_weights
    # weight_bytes scales both sides of the ratio by a power of two: the
    # default gives the same bits for float32 and int8 streams alike
    fp_ratio = footprint_ratio(total_params, layer_params, cr)
    return CompressionReport(
        delta_pct=delta_pct,
        cr=cr,
        weighted_cr=param_weighted_cr(total_params, layer_params, cr),
        mem_fp_reduction=1.0 - 1.0 / fp_ratio,
        mse=mse,
    )
