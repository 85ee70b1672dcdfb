"""From-scratch NumPy CNN framework: layers, DAG models, training, zoo."""

from . import layers
from .graph import Model
from .losses import SoftmaxCrossEntropy
from .optim import SGD
from .sequential import Sequential
from .train import EvalResult, TrainConfig, evaluate, topk_accuracy, train

__all__ = [
    "layers",
    "Model",
    "Sequential",
    "SoftmaxCrossEntropy",
    "SGD",
    "EvalResult",
    "TrainConfig",
    "evaluate",
    "topk_accuracy",
    "train",
]
