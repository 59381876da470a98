"""Adam with bias correction; ``m`` and ``v`` are flat vectors in the store's layout."""

from __future__ import annotations

import numpy as np

from .layers import ParameterStore

# Values per chunk of ``Adam.step``: the chunk's four state slices and the
# two scratch buffers (256 kB each) stay in L2 cache.
CHUNK = 32768


class Adam:
    def __init__(self, store: ParameterStore, lr: float = 3e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        # ``np.zeros`` maps its pages on first write, so state no step has
        # touched yet costs no memory.
        self.m = np.zeros(store.pack().size)
        self.v = np.zeros(self.m.size)
        self._scratch = np.empty((2, min(CHUNK, self.m.size)))

    def step(self):
        """One update of every parameter from the store's gradient vector.

        Runs chunk by chunk through two small reused buffers, so no
        full-size temporary is allocated; each value sees the same
        operations, in the same order, as the whole-vector update
        ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
        ``w -= lr*(m/bc1) / (sqrt(v/bc2) + eps)``.
        """
        g = self.store.grads
        self.store.check_finite("gradient of", g)
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        w = self.store.values
        for lo in range(0, g.size, CHUNK):
            hi = min(lo + CHUNK, g.size)
            m, v, gc, wc = self.m[lo:hi], self.v[lo:hi], g[lo:hi], w[lo:hi]
            a, b = self._scratch[:, :hi - lo]
            m *= self.beta1
            np.multiply(gc, 1.0 - self.beta1, out=a)
            m += a
            v *= self.beta2
            np.multiply(gc, gc, out=a)
            a *= 1.0 - self.beta2
            v += a
            np.divide(v, bc2, out=a)
            np.sqrt(a, out=a)
            a += self.eps
            np.divide(m, bc1, out=b)
            b *= self.lr
            b /= a
            wc -= b
