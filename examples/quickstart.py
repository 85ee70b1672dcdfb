"""Quickstart: compress a weight stream, inspect it, decompress it.

Run:  python examples/quickstart.py

Covers the core API in ~40 lines: weak-monotonic compression at a
tolerance delta (Sec. III-B of the paper) through the line-fit codec,
the metrics of Tab. II, the storage blob, and the cycle model of the
hardware decompression unit (Fig. 6).
"""

import numpy as np

from repro.core import CompressedBlob, get_codec, provider_for
from repro.mapping import Accelerator

# A high-entropy "trained-weights-like" stream: the hard case that
# motivates the paper (Fig. 3: weights look like random data).
rng = np.random.default_rng(0)
weights = (rng.standard_normal(100_000) * 0.02).astype(np.float32)

print("delta    CR     segments   MSE        max|err|")
for delta_pct in (0, 5, 10, 15, 20):
    codec = get_codec("linefit", delta_pct=delta_pct)
    blob = codec.encode(weights)
    err = np.abs(codec.decode(blob) - weights).max()
    print(
        f"{delta_pct:>4}%  {blob.compression_ratio:5.2f}  "
        f"{blob.num_segments:>9,}  {codec.reconstruction_mse(blob, weights):.3e}  "
        f"{err:.4f}"
    )

# The blob is the artifact storage and the NoC carry: the wire bytes
# plus a spec that rebuilds their decoder.
codec = get_codec("linefit", delta_pct=15)
blob = codec.encode(weights)
print(f"\nwire format: {len(blob.payload):,} bytes for {weights.nbytes:,} bytes of weights")
restored = CompressedBlob.rebuild(blob.spec(), blob.payload)
decoder = get_codec(restored.codec, **restored.params)
assert np.array_equal(decoder.decode(restored), codec.decode(blob))

# The on-PE decompression unit: Eq. (2), accumulate-only datapath, one
# weight per cycle after a per-segment init.  decode() runs it
# bit-exactly, in float32 unless asked otherwise.
effect = Accelerator().compression_effect(blob, units_per_pe=1)
cycles = effect.decompress_cycles(blob.num_weights, blob.num_segments)
print(f"decompression: {cycles:,} cycles for {blob.num_weights:,} weights "
      f"({cycles / blob.num_weights:.3f} cycles/weight)")
wide = provider_for(blob).materialize(np.float64)  # same datapath, 64-bit accumulator
print(f"float32 vs float64 accumulator max diff: "
      f"{np.abs(codec.decode(blob) - wide).max():.2e}")
