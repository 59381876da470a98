"""Adam with bias correction; ``m`` and ``v`` are flat vectors in the store's layout."""

from __future__ import annotations

import numpy as np

from .layers import ParameterStore


class Adam:
    def __init__(self, store: ParameterStore, lr: float = 3e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = np.zeros_like(store.pack())
        self.v = np.zeros_like(self.m)

    def step(self):
        """One update of every parameter from the store's gradient vector."""
        g = self.store.grads
        self.store.check_finite("gradient of", g)
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * (g * g)
        den = np.sqrt(self.v / bc2) + self.eps  # apart: two full-size temporaries, not three
        self.store.values -= self.lr * (self.m / bc1) / den

