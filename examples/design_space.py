"""Multi-objective design-space exploration (the paper's contribution 3).

Run:  python examples/design_space.py

Sweeps the tolerance delta on LeNet-5, combines proxy accuracy with
simulated latency/energy into design points, extracts the Pareto front
and picks the paper's headline operating point: the fastest
configuration within a 5% accuracy-degradation budget.
"""

import numpy as np

from repro.core import (
    CompressionPipeline,
    DesignPoint,
    get_codec,
    knee_point,
    pareto_front,
)
from repro.datasets import train_test
from repro.mapping import Accelerator
from repro.nn import TrainConfig, train
from repro.nn.zoo import lenet5

# --- accuracy axis: trained proxy + delta sweep -------------------------
split = train_test("digits", 3000, 600, seed=7)
model = lenet5.proxy(np.random.default_rng(7))
print("training LeNet-5 proxy...")
train(model, split.x_train, split.y_train,
      TrainConfig(epochs=6, batch_size=64, lr=0.05))
layer = lenet5.SELECTED_LAYER
pipeline = CompressionPipeline(model, split.x_test, split.y_test, layer)

# --- latency/energy axis: accelerator simulation of the full model ------
acc = Accelerator()
spec = lenet5.full()
base = acc.run_model(spec, mode="flit")
weights = spec.materialize(layer).ravel()

points = []
deltas = (0.0, 5.0, 10.0, 15.0, 20.0, 30.0)
for delta in deltas:
    record = pipeline.run_delta(delta)
    blob = get_codec("linefit", delta_pct=delta).encode(weights)
    effect = acc.compression_effect(blob)
    result = acc.run_model(spec, {layer: effect}, mode="flit")
    points.append(
        DesignPoint(
            label=f"x-{delta:.0f}",
            accuracy=record.top1,
            latency=result.total_latency.total / base.total_latency.total,
            energy=result.total_energy.total / base.total_energy.total,
        )
    )

print(f"\n{'config':<8}{'accuracy':>10}{'latency':>10}{'energy':>10}")
front = pareto_front(points)
for p in points:
    mark = "  *" if p in front else ""
    print(f"{p.label:<8}{p.accuracy:>10.4f}{p.latency:>10.3f}{p.energy:>10.3f}{mark}")
print("(* = Pareto-optimal)")

best = knee_point(points, max_accuracy_drop=0.05,
                  baseline_accuracy=pipeline.baseline.top1)
print(
    f"\nheadline point (<=5% accuracy drop): {best.label} — "
    f"{1 - best.latency:.1%} latency and {1 - best.energy:.1%} energy reduction "
    f"at top-1 {best.accuracy:.4f}"
)
