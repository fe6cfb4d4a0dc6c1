"""Adaptive-moment gradient descent."""

from __future__ import annotations

import numpy as np

from .tensor import NonFiniteError, ShapeError, Tensor

__all__ = ["Adam"]

BETA1 = 0.9     # decay of the first-moment average
BETA2 = 0.999   # decay of the second-moment average
EPS = 1e-8      # added to the second-moment root


class Adam:
    """Adam with the usual decay constants; updates parameters in place.

    Deterministic given the sequence of gradients. Rejects non-finite
    gradients with the offending parameter's name, since a silent NaN here
    poisons the whole training run.
    """

    def __init__(self, params: list[Tensor], lr: float):
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads: dict[Tensor, np.ndarray]) -> None:
        self.t += 1
        b1t = 1.0 - BETA1 ** self.t
        b2t = 1.0 - BETA2 ** self.t
        for i, p in enumerate(self.params):
            g = grads.get(p)
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} != {p.data.shape} for {p.name!r}")
            if not np.all(np.isfinite(g)):
                raise NonFiniteError(f"non-finite gradient for parameter {p.name!r}")
            m, v = self.m[i], self.v[i]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + EPS)
