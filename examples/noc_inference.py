"""Cycle-accurate NoC inference with and without weight compression.

Run:  python examples/noc_inference.py

Simulates a full LeNet-5 inference on the paper's accelerator (4x4
mesh, corner memory interfaces, twelve PEs with 8 KB local memories) at
flit-level cycle accuracy, then repeats with ``dense_1`` compressed at
delta = 15%.  Prints per-layer latency breakdowns (the paper's Fig. 2)
and the end-to-end savings (the mechanism behind Fig. 10).
"""

from repro.analysis import latency_bars, render_bars
from repro.core import get_codec
from repro.mapping import Accelerator
from repro.nn.zoo import lenet5

acc = Accelerator()
spec = lenet5.full()

print("simulating uncompressed LeNet-5 (flit-level, cycle accurate)...")
base = acc.run_model(spec, mode="flit")
print(render_bars(latency_bars(base),
                  title="per-layer latency breakdown (uncompressed)"))

weights = spec.materialize("dense_1")
blob = get_codec("linefit", delta_pct=15.0).encode(weights)
effect = acc.compression_effect(blob)
print(f"\ncompressing dense_1 at delta=15%: CR = {blob.compression_ratio:.2f}, "
      f"{blob.num_segments:,} segments")

comp = acc.run_model(spec, {"dense_1": effect}, mode="flit")
print(render_bars(latency_bars(comp),
                  title="\nper-layer latency breakdown (dense_1 compressed)"))

bl, cl = base.total_latency, comp.total_latency
be, ce = base.total_energy, comp.total_energy
print(f"\ninference latency: {bl.total:,} -> {cl.total:,} cycles "
      f"({1 - cl.total / bl.total:.1%} reduction)")
print(f"inference energy:  {be.total * 1e6:.2f} -> {ce.total * 1e6:.2f} uJ "
      f"({1 - ce.total / be.total:.1%} reduction)")
print("\nenergy by component (uJ, dynamic+leakage):")
for c in ("main_mem", "communication", "local_mem", "computation"):
    print(f"  {c:<14} {be.component_total(c) * 1e6:8.3f} -> "
          f"{ce.component_total(c) * 1e6:8.3f}")
