"""Quickstart: compress a weight stream, inspect it, decompress it.

Run:  python examples/quickstart.py

Covers the core API in ~40 lines: weak-monotonic compression at a
tolerance delta (Sec. III-B of the paper), the metrics of Tab. II, the
storage codec, and the hardware decompression-unit model (Fig. 6).
"""

import numpy as np

from repro.core import DecompressionUnit, compress_percent
from repro.core import codec

# A high-entropy "trained-weights-like" stream: the hard case that
# motivates the paper (Fig. 3: weights look like random data).
rng = np.random.default_rng(0)
weights = (rng.standard_normal(100_000) * 0.02).astype(np.float32)

print("delta    CR     segments   MSE        max|err|")
for delta_pct in (0, 5, 10, 15, 20):
    stream = compress_percent(weights, delta_pct)
    approx = stream.decompress()
    err = np.abs(approx - weights).max()
    print(
        f"{delta_pct:>4}%  {stream.compression_ratio:5.2f}  "
        f"{stream.num_segments:>9,}  {stream.mse(weights):.3e}  {err:.4f}"
    )

# Serialize for storage / NoC transport and read it back.
stream = compress_percent(weights, 15)
blob = codec.encode(stream)
print(f"\nwire format: {len(blob):,} bytes for {weights.nbytes:,} bytes of weights")
restored = codec.decode(blob)
assert np.array_equal(restored.decompress(), stream.decompress())

# The on-PE decompression unit: Eq. (2), accumulate-only datapath.
# decompress() runs it bit-exactly, in float32 unless asked otherwise.
unit = DecompressionUnit()
cycles = unit.cycles(stream)
print(f"decompression: {cycles:,} cycles for {stream.num_weights:,} weights "
      f"({cycles / stream.num_weights:.3f} cycles/weight)")
wide = stream.decompress(np.float64)  # the same datapath, 64-bit accumulator
print(f"float32 vs float64 accumulator max diff: "
      f"{np.abs(stream.decompress() - wide).max():.2e}")
