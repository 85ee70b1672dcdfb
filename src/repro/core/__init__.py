"""The paper's primary contribution: lossy weight-stream compression.

Sub-modules
-----------
segmentation
    Weak-sense monotonic greedy partitioning (Eq. (1)).
linefit
    Vectorized per-segment least-squares fits.
compression
    ``compress`` / ``CompressedStream`` — the public compression API.
decompressor
    Cycle/bit-level model of the on-PE decompression unit (Fig. 6):
    the ``DecodePlan`` built once per stream, its column-step
    accumulator kernel — the only line-fit decoder, behind
    ``CompressedStream.decompress`` and every codec, archive and
    streamed decode — and the ``WeightStream`` tile cursor.
provider
    Streamed weight delivery: the ``WeightProvider`` contract that lets
    consumers pull decoded tiles on demand (fused decode+MAC).
codec
    Byte-level wire format of compressed streams.
codecs
    Pluggable codec registry: ``get_codec("linefit"|"huffman"|"rle"|
    "lz"|"quantize-int8", ...)``, ``|``-chained composition, and the
    ``Codec``/``CompressedBlob`` contract every consumer speaks.
metrics
    CR / weighted CR / footprint / MSE reporting (Tab. II).
quantization
    TFLite-style int8 post-training quantization (Tab. III).
layer_selection
    The paper's deepest-largest layer policy plus multi-layer extensions.
sensitivity
    Per-layer accuracy sensitivity to weight perturbation (Fig. 9).
pareto
    Pareto-front utilities for the accuracy/latency/energy space.
pipeline
    The end-to-end evaluation flow of Fig. 8.
multilayer
    Multi-layer delta assignment (the paper's future work).
pruning
    Magnitude pruning substrate for the stacking claim.
activation_compression
    The codec applied to feature-map streams (extension).
model_store
    Whole-model compressed archives (the deployable artifact).
"""

from .activation_compression import (
    ActivationProfile,
    activation_cr_profile,
    evaluate_with_compressed_activations,
)
from .codecs import (
    Codec,
    CodecError,
    ComposedCodec,
    CompressedBlob,
    LineFitCodec,
    codec_names,
    get_codec,
    register_codec,
)
from .compression import (
    CompressedStream,
    StorageFormat,
    compress,
    compress_percent,
    quantize_coefficient,
)
from .decompressor import (
    DecodePlan,
    DecompressionUnit,
    DecompressorTiming,
    WeightStream,
)
from .errors import FaultError, IntegrityError
from .layer_selection import select_layer, select_layer_model, select_multi
from .metrics import (
    CompressionReport,
    footprint_ratio,
    layer_report,
    param_weighted_cr,
    weighted_ratio,
)
from .model_store import ModelArchive, compress_model, load_archive
from .multilayer import MultiLayerPlan, optimize_multilayer
from .pareto import DesignPoint, dominates, knee_point, pareto_front
from .pruning import PrunedTensor, prune_magnitude, pruned_footprint_bytes
from .pipeline import CompressionPipeline, DeltaRecord, apply_compression
from .provider import (
    ArrayProvider,
    BlobProvider,
    WeightCursor,
    WeightProvider,
    provider_for,
)
from .quantization import QuantizedTensor, model_footprint, quantize_model, quantize_tensor
from .segmentation import delta_from_percent, is_weak_monotonic, segment_boundaries
from .sensitivity import LayerSensitivity, layer_sensitivity, normalized_sensitivity

__all__ = [
    "ActivationProfile",
    "activation_cr_profile",
    "evaluate_with_compressed_activations",
    "Codec",
    "CodecError",
    "IntegrityError",
    "FaultError",
    "ComposedCodec",
    "CompressedBlob",
    "LineFitCodec",
    "codec_names",
    "get_codec",
    "register_codec",
    "ModelArchive",
    "compress_model",
    "load_archive",
    "CompressedStream",
    "StorageFormat",
    "compress",
    "compress_percent",
    "quantize_coefficient",
    "DecodePlan",
    "DecompressionUnit",
    "DecompressorTiming",
    "WeightStream",
    "WeightCursor",
    "WeightProvider",
    "ArrayProvider",
    "BlobProvider",
    "provider_for",
    "CompressionReport",
    "layer_report",
    "weighted_ratio",
    "footprint_ratio",
    "param_weighted_cr",
    "delta_from_percent",
    "is_weak_monotonic",
    "segment_boundaries",
    "select_layer",
    "select_layer_model",
    "select_multi",
    "MultiLayerPlan",
    "optimize_multilayer",
    "PrunedTensor",
    "prune_magnitude",
    "pruned_footprint_bytes",
    "DesignPoint",
    "dominates",
    "knee_point",
    "pareto_front",
    "CompressionPipeline",
    "DeltaRecord",
    "apply_compression",
    "QuantizedTensor",
    "model_footprint",
    "quantize_model",
    "quantize_tensor",
    "LayerSensitivity",
    "layer_sensitivity",
    "normalized_sensitivity",
]
