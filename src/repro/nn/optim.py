"""Optimizers and learning-rate schedules."""

from __future__ import annotations

import numpy as np

from .layers.base import Parameter

__all__ = ["SGD"]


class SGD:
    """Stochastic gradient descent with classical momentum and weight decay."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 0.01,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: list[np.ndarray | None] = [None] * len(self.params)

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.momentum:
                v = self._velocity[i]
                v = self.momentum * v + g if v is not None else g.copy()
                self._velocity[i] = v
                g = v
            p.data -= self.lr * g

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
