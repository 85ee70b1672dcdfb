"""The Fig.-8 evaluation flow on a trainable LeNet-5.

Run:  python examples/compress_lenet.py

Trains LeNet-5 on the synthetic digits dataset, compresses the layer the
paper's policy selects (deepest largest layer -> ``dense_1``, recorded as
``lenet5.SELECTED_LAYER``), sweeps the tolerance delta, and prints
accuracy vs compression ratio — the accuracy half of the paper's
Fig. 10a.
"""

import numpy as np

from repro.core import CompressionPipeline
from repro.datasets import train_test
from repro.nn import TrainConfig, evaluate, train
from repro.nn.zoo import lenet5

split = train_test("digits", 3000, 600, seed=7)
model = lenet5.proxy(np.random.default_rng(7))

print("training LeNet-5 on synthetic digits...")
train(model, split.x_train, split.y_train,
      TrainConfig(epochs=6, batch_size=64, lr=0.05))
base = evaluate(model, split.x_test, split.y_test)
print(f"baseline: {base}")

target = lenet5.SELECTED_LAYER
print(f"selected layer (paper policy): {target}\n")

pipeline = CompressionPipeline(model, split.x_test, split.y_test,
                               layer_name=target)
print("delta    CR     segments   MSE        top-1")
for record in pipeline.sweep([0, 5, 10, 15, 20]):
    print(
        f"{record.delta_pct:>4.0f}%  {record.cr:5.2f}  "
        f"{record.num_segments:>9,}  {record.mse:.3e}  {record.top1:.4f}"
    )

print("\nthe accuracy cliff: very aggressive compression destroys the layer")
extreme = pipeline.run_delta(60.0)
print(f"  60%  {extreme.cr:5.1f}  top-1 {extreme.top1:.4f}")
