"""The paper's primary contribution: lossy weight-stream compression.

``get_codec("linefit", delta_pct=...)`` is the one public way to
compress a weight stream: its ``encode`` returns a ``CompressedBlob``
(the ⟨m, q, len⟩ wire bytes plus their ``compression_ratio``),
``decode`` regenerates the weights, and ``reconstruction_mse`` gives
the Tab. II MSE.

Sub-modules
-----------
codecs
    Pluggable codec registry: ``get_codec("linefit"|"huffman"|"rle"|
    "lz"|"quantize-int8", ...)``, ``|``-chained composition, and the
    ``Codec``/``CompressedBlob`` contract every consumer speaks.
segmentation
    Weak-sense monotonic greedy partitioning (Eq. (1)).
linefit
    Vectorized per-segment least-squares fits.
compression
    The line-fit codec's internals: ``compress`` and the parsed
    ``CompressedStream`` form, plus the ``StorageFormat`` cost model.
decompressor
    Cycle/bit-level model of the on-PE decompression unit (Fig. 6):
    the ``DecodePlan`` built once per stream, its column-step
    accumulator kernel — the only line-fit decoder, behind every
    codec, archive and streamed decode — and the ``WeightStream`` tile
    cursor.
provider
    Streamed weight delivery: the ``WeightProvider`` contract that lets
    consumers pull decoded tiles on demand (fused decode+MAC).
codec
    Byte-level wire format of compressed streams.
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
from .compression import StorageFormat
from .decompressor import DecodePlan, DecompressorTiming, WeightStream
from .errors import FaultError, IntegrityError
from .layer_selection import select_layer, select_multi
from .metrics import (
    CompressionReport,
    footprint_ratio,
    layer_report,
    param_weighted_cr,
)
from .model_store import ModelArchive, compress_model, load_archive
from .multilayer import MultiLayerPlan, optimize_multilayer
from .pareto import DesignPoint, dominates, knee_point, pareto_front
from .pruning import PrunedTensor, prune_magnitude, pruned_footprint_bytes
from .pipeline import CompressionPipeline, DeltaRecord
from .provider import (
    ArrayProvider,
    BlobProvider,
    WeightCursor,
    WeightProvider,
    provider_for,
)
from .quantization import QuantizedTensor, quantize_model, quantize_tensor
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
    "StorageFormat",
    "DecodePlan",
    "DecompressorTiming",
    "WeightStream",
    "WeightCursor",
    "WeightProvider",
    "ArrayProvider",
    "BlobProvider",
    "provider_for",
    "CompressionReport",
    "layer_report",
    "footprint_ratio",
    "param_weighted_cr",
    "delta_from_percent",
    "is_weak_monotonic",
    "segment_boundaries",
    "select_layer",
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
    "QuantizedTensor",
    "quantize_model",
    "quantize_tensor",
    "LayerSensitivity",
    "layer_sensitivity",
    "normalized_sensitivity",
]
