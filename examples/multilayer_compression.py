"""Multi-layer compression — the paper's future work, implemented.

Run:  python examples/multilayer_compression.py

The paper compresses one layer per network and notes (Sec. V) that
choosing a *set* of layers with per-layer tolerances would improve
results.  This example runs that optimizer on LeNet-5: for a range of
accuracy budgets it selects (layer, delta) assignments maximizing the
footprint saving, then compares against the single-layer policy.
"""

import numpy as np

from repro.core import get_codec
from repro.core.multilayer import optimize_multilayer
from repro.datasets import train_test
from repro.nn import TrainConfig, evaluate, train
from repro.nn.zoo import lenet5

split = train_test("digits", 3000, 600, seed=7)
model = lenet5.proxy(np.random.default_rng(7))
print("training LeNet-5 proxy...")
train(model, split.x_train, split.y_train,
      TrainConfig(epochs=6, batch_size=64, lr=0.05))
print(f"baseline: {evaluate(model, split.x_test, split.y_test)}\n")

spec = lenet5.full()

print(f"{'budget':<8}{'assignments':<42}{'footprint':<11}{'drop'}")
for budget in (0.01, 0.03, 0.05, 0.10):
    plan = optimize_multilayer(
        model, spec, split.x_test, split.y_test, max_accuracy_drop=budget
    )
    assigns = ", ".join(f"{k}@{v:.0f}%" for k, v in plan.assignments.items()) or "-"
    print(f"{budget:<8.0%}{assigns:<42}{plan.footprint_reduction:<11.1%}"
          f"{plan.accuracy_drop:.4f}")

# reference: the paper's single-layer policy at delta = 15%
w = spec.materialize("dense_1").ravel()
blob = get_codec("linefit", delta_pct=15.0).encode(w)
saving = blob.original_bytes - blob.compressed_bytes
print(f"\nsingle-layer reference (dense_1 @ 15%): "
      f"{saving / (spec.total_params * 4):.1%} footprint reduction")
