"""Parameter store and basic layers (dense, MLP, layer norm).

``Dense`` and ``LayerNorm`` are one fused tape op each (``T.affine``,
``T.layer_norm``)."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, TrainingError
from . import tensor as T

class ParameterStore:
    """Flat, insertion-ordered store of named trainable tensors.

    Initialization draws from one generator seeded at construction, so a
    fixed seed and a fixed layer-construction order give bit-identical
    parameters.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self._params: dict[str, T.Tensor] = {}

    def add(self, name: str, shape: tuple, init: str = "xavier") -> T.Tensor:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        if " " in name:
            raise ConfigError(f"parameter names must not contain spaces: {name!r}")
        if init == "zeros":
            data = np.zeros(shape)
        elif init == "ones":
            data = np.ones(shape)
        elif init == "xavier":
            if len(shape) != 2:
                raise ConfigError("xavier init expects a 2-d weight shape")
            limit = math.sqrt(6.0 / (shape[0] + shape[1]))
            data = self.rng.uniform(-limit, limit, size=shape)
        else:
            raise ConfigError(f"unknown init {init!r}")
        p = T.Tensor(data, requires_grad=True)
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> T.Tensor:
        return self._params[name]

    def names(self) -> list:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self):
        for p in self._params.values():
            p.grad = None

    def check_finite(self, what: str = "parameter"):
        for name, p in self._params.items():
            if not np.isfinite(p.data).all():
                raise TrainingError(f"{what} {name!r} contains NaN or Inf")

    def state_arrays(self) -> dict:
        return {name: p.data.copy() for name, p in self._params.items()}

    def load_arrays(self, arrays: dict):
        """Overwrite parameter values; mismatches raise with a full diff."""
        problems = []
        for name, p in self._params.items():
            if name not in arrays:
                problems.append(f"missing {name} {p.data.shape}")
                continue
            a = np.asarray(arrays[name], dtype=np.float64)
            if a.shape != p.data.shape:
                problems.append(f"shape {name}: checkpoint {a.shape} != model {p.data.shape}")
        for name in arrays:
            if name not in self._params:
                problems.append(f"unexpected {name} {np.shape(arrays[name])}")
        if problems:
            raise ConfigError(
                "checkpoint/model dimension mismatch:\n  " + "\n  ".join(problems)
            )
        for name, p in self._params.items():
            p.data = np.asarray(arrays[name], dtype=np.float64).copy()


class Dense:
    """Affine map on the last axis, optional activation."""

    def __init__(self, store: ParameterStore, name: str, in_dim: int, out_dim: int,
                 activation: str = "none"):
        if activation not in T.ACTIVATIONS:
            raise ConfigError(f"unknown activation {activation!r}")
        self.w = store.add(f"{name}.w", (in_dim, out_dim), "xavier")
        self.b = store.add(f"{name}.b", (out_dim,), "zeros")
        self.activation = activation

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return T.affine(x, self.w, self.b, self.activation)


class MLP:
    """Chain of dense layers; one activation name applies to every layer."""

    def __init__(self, store: ParameterStore, name: str, dims, activation: str = "tanh"):
        if len(dims) < 2:
            raise ConfigError("an MLP needs at least one layer (two dims)")
        self.layers = [
            Dense(store, f"{name}.{i}", dims[i], dims[i + 1], activation)
            for i in range(len(dims) - 1)
        ]

    def __call__(self, x: T.Tensor) -> T.Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class LayerNorm:
    def __init__(self, store: ParameterStore, name: str, dim: int, eps: float = 1e-5):
        self.gamma = store.add(f"{name}.gamma", (dim,), "ones")
        self.beta = store.add(f"{name}.beta", (dim,), "zeros")
        self.eps = eps

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return T.layer_norm(x, self.gamma, self.beta, self.eps)
