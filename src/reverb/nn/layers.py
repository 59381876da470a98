"""Flat parameter store and basic layers (dense, MLP, layer norm).

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

    The store owns the training-state layout.  On first use it packs:
    the parameters move, in insertion order, into one float64 vector
    ``values``, with zero gradients in a vector ``grads`` of the same
    layout, and each ``data`` and ``grad`` becomes a view of its slice.
    After packing ``add`` raises; never rebind ``.data`` or ``.grad``.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self._params: dict[str, T.Tensor] = {}
        self.values = self.grads = None

    def add(self, name: str, shape: tuple, init: str = "xavier") -> T.Tensor:
        if self.values is not None:
            raise ConfigError(f"cannot add {name!r}: the parameter store is packed")
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

    def pack(self) -> np.ndarray:
        """Pack on the first call (see the class docstring); returns ``values``."""
        if self.values is None:
            params = self._params.values()
            self.values = np.concatenate([p.data.ravel() for p in params] or [np.zeros(0)])
            self.grads = np.zeros(self.values.size)  # pages mapped on first write
            for p, data, grad in zip(params, self._views(self.values), self._views(self.grads)):
                p.data, p.grad = data, grad
        return self.values

    def _views(self, vector):
        lo = 0
        for p in self._params.values():
            yield vector[lo : lo + p.data.size].reshape(p.shape)
            lo += p.data.size

    def zero_grad(self):
        self.pack()
        self.grads.fill(0.0)

    def check_finite(self, what: str = "parameter", vector=None):
        """Raise naming the first parameter whose slice of ``vector`` is not finite."""
        vector = self.pack() if vector is None else vector
        if not np.isfinite(vector).all():
            name = next(name for name, view in zip(self._params, self._views(vector))
                        if not np.isfinite(view).all())
            raise TrainingError(f"{what} {name!r} contains NaN or Inf")

    def state_arrays(self, vector=None, prefix: str = "") -> dict:
        """Views of ``vector``'s slices (default: ``values``), keyed
        ``prefix + name``: read them before the vector changes, or copy."""
        vector = self.pack() if vector is None else vector
        return {prefix + n: v for n, v in zip(self._params, self._views(vector))}

    def load_arrays(self, arrays: dict, vector=None, prefix: str = ""):
        """Fill ``vector`` in place from ``arrays[prefix + name]`` (other keys
        are ignored); mismatches raise one line: the first three and a count."""
        vector = self.pack() if vector is None else vector
        problems = []
        for name, p in self._params.items():
            key = prefix + name
            if key not in arrays:
                problems.append(f"missing {key} {p.shape}")
            elif np.shape(arrays[key]) != p.shape:
                problems.append(
                    f"shape {key}: checkpoint {np.shape(arrays[key])} != model {p.shape}")
        problems += [f"unexpected {key} {np.shape(a)}" for key, a in arrays.items()
                     if key.startswith(prefix) and key[len(prefix):] not in self._params]
        if problems:
            raise ConfigError("checkpoint/model dimension mismatch: " + "; ".join(problems[:3])
                              + (f" (and {len(problems) - 3} more)" if len(problems) > 3 else ""))
        for name, view in zip(self._params, self._views(vector)):
            view[...] = arrays[prefix + name]


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
