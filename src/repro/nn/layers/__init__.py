"""Layer library of the NumPy CNN framework."""

from .activations import ReLU, Softmax, softmax
from .base import Layer, MergeLayer, Parameter
from .conv import Conv2D, DepthwiseConv2D
from .dense import Dense
from .dropout import Dropout
from .norm import BatchNorm2D
from .pool import GlobalAvgPool2D, MaxPool2D
from .shape import Add, Concat, Flatten

__all__ = [
    "Layer",
    "MergeLayer",
    "Parameter",
    "Dense",
    "Conv2D",
    "DepthwiseConv2D",
    "MaxPool2D",
    "GlobalAvgPool2D",
    "BatchNorm2D",
    "ReLU",
    "Softmax",
    "softmax",
    "Flatten",
    "Add",
    "Concat",
    "Dropout",
]
