"""Tape-based reverse-mode automatic differentiation on numpy arrays.

Every op records its parents and a vector-Jacobian closure; ``backward``
runs one reverse topological sweep, accumulating gradients into leaves.
All data is float64.  Gradient accumulation order is fixed by graph
construction order, so repeated runs are bit-identical.

The vjps do only the gradient work ``backward`` keeps: an operand with
``requires_grad=False`` (a constant such as a scale factor, a lookup
table or input data) gets ``None`` from ``add``/``sub``/``mul``/``div``/
``matmul``, so its gradient is never computed.  A shared 2-d weight
``b`` in ``a @ b`` gets its gradient from one flat GEMM over every
leading axis of ``a``, ``a.reshape(-1, k).T @ g.reshape(-1, n)``, never
from a stack of per-slice products summed away afterwards.
"""

from __future__ import annotations

import contextlib

import numpy as np

from ..errors import ShapeError

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (pure inference)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; the actual derivatives live in the module functions
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean_(self, axis, keepdims)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, vjp) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape``, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(t: Tensor, seed=None):
    """Reverse sweep from ``t``; leaf ``grad`` fields accumulate."""
    if seed is None:
        if t.data.size != 1:
            raise ShapeError("backward without a seed needs a scalar output")
        seed = np.ones_like(t.data)
    topo = []
    seen = set()
    stack = [(t, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    t.grad = np.asarray(seed, dtype=np.float64)
    for node in reversed(topo):
        g = node.grad
        if g is None or node._vjp is None:
            continue
        for p, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not p.requires_grad:
                continue
            p.grad = pg if p.grad is None else p.grad + pg
        if node is not t:
            node.grad = None  # intermediate grads are not kept


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(
        a.data + b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        ),
    )


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(
        a.data - b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.shape) if b.requires_grad else None,
        ),
    )


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        ),
    )


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data / b.data

    def vjp(g):
        return (
            _unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(-g * out_data / b.data, b.shape) if b.requires_grad else None,
        )

    return _make(out_data, (a, b), vjp)


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must be at least 2-d")

    def vjp(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        if b.requires_grad and b.ndim == 2:
            # a shared weight: one GEMM over every leading axis of ``a``
            gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        elif b.requires_grad:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _make(a.data @ b.data, (a, b), vjp)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.tanh(a.data)
    return _make(out_data, (a,), lambda g: (g * (1.0 - out_data * out_data),))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0
    return _make(a.data * mask, (a,), lambda g: (g * mask,))


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.exp(a.data)
    return _make(out_data, (a,), lambda g: (g * out_data,))


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.sqrt(a.data)
    return _make(out_data, (a,), lambda g: (g * 0.5 / out_data,))


def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    axes = _norm_axes(axis, a.ndim)

    def vjp(g):
        if not keepdims:
            for ax in sorted(axes):
                g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(a.data.sum(axis=axes, keepdims=keepdims), (a,), vjp)


def mean_(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    axes = _norm_axes(axis, a.ndim)
    count = int(np.prod([a.shape[ax] for ax in axes])) if axes else 1

    def vjp(g):
        if not keepdims:
            for ax in sorted(axes):
                g = np.expand_dims(g, ax)
        return (np.broadcast_to(g / count, a.shape).copy(),)

    return _make(a.data.mean(axis=axes, keepdims=keepdims), (a,), vjp)


def softmax(a, axis=-1) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        return ((g - inner) * out_data,)

    return _make(out_data, (a,), vjp)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    inv = tuple(np.argsort(axes))
    return _make(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def concat(tensors, axis=0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        moved = np.moveaxis(g, axis, 0)
        return tuple(
            np.moveaxis(moved[offsets[i] : offsets[i + 1]], 0, axis)
            for i in range(len(tensors))
        )

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, vjp)


def getitem(a, idx) -> Tensor:
    """Basic (slice/int/None) indexing; use index_select for array indices."""
    a = _as_tensor(a)

    def vjp(g):
        z = np.zeros(a.shape)
        z[idx] += g
        return (z,)

    return _make(a.data[idx], (a,), vjp)


def index_select(a, idx, axis=0) -> Tensor:
    """Gather rows by an integer array along ``axis`` (repeats allowed)."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    expanded = (slice(None),) * axis + (idx,)

    def vjp(g):
        z = np.zeros(a.shape)
        np.add.at(z, expanded, g)
        return (z,)

    return _make(a.data[expanded], (a,), vjp)


def take_per_row(a, idx) -> Tensor:
    """``out[b] = a[b, idx[b]]`` for a 2-d tensor; used for best-of-K picks."""
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeError("take_per_row expects a 2-d tensor")
    idx = np.asarray(idx, dtype=np.intp)
    rows = np.arange(a.shape[0])

    def vjp(g):
        z = np.zeros(a.shape)
        np.add.at(z, (rows, idx), g)
        return (z,)

    return _make(a.data[rows, idx], (a,), vjp)


def segment_mean(a, ids, num_segments: int) -> Tensor:
    """Mean of ``a``'s axis-0 rows per segment id; empty segments are zero."""
    a = _as_tensor(a)
    ids = np.asarray(ids, dtype=np.intp)
    if ids.shape[0] != a.shape[0]:
        raise ShapeError("one segment id per leading row required")
    counts = np.bincount(ids, minlength=num_segments).astype(np.float64)
    sums = np.zeros((num_segments,) + a.shape[1:])
    np.add.at(sums, ids, a.data)
    safe = np.maximum(counts, 1.0).reshape((-1,) + (1,) * (a.ndim - 1))

    def vjp(g):
        return ((g / safe)[ids],)

    return _make(sums / safe, (a,), vjp)
