"""Tape-based reverse-mode automatic differentiation on numpy arrays.

Every op records its parents and a vector-Jacobian closure; ``backward``
runs one reverse topological sweep, adding into each leaf's ``grad`` in place.
The sweep consumes the graph: a node drops its parents and closure as it
is passed, so a training step holds one tape at most, and a second
backward through the same nodes raises ``RuntimeError``.
All data is float64.  Gradient accumulation order is fixed by graph
construction order, so repeated runs are bit-identical.

The vjps do only the gradient work ``backward`` keeps: an operand with
``requires_grad=False`` (a constant such as a scale factor, a lookup
table or input data) gets ``None`` from ``add``/``sub``/``mul``/``div``/
``matmul``, so its gradient is never computed.  A shared 2-d weight
``b`` in ``a @ b`` gets its gradient from one flat GEMM over every
leading axis of ``a``, ``a.reshape(-1, k).T @ g.reshape(-1, n)``, never
from a stack of per-slice products summed away afterwards.

Three fused ops each record one node with a closed-form vjp, in place of
the chain of elementary nodes (and their saved intermediates) they
replace:

``layer_norm(x, gamma, beta, eps)``
    normalises the last axis; keeps only x̂ and σ = sqrt(var + eps).
``affine(x, w, b, activation)``
    ``act(x @ w + b)`` for ``none``/``tanh``/``relu``, as one flat 2-d
    GEMM over every leading axis of ``x``; keeps only its output, from
    which the vjp reads the activation's derivative.
``attention(q, k, v, heads, scale)``
    multi-head scaled dot-product attention: head split, scores,
    softmax, context and head merge; keeps only the probabilities.

``segment_mean`` and the vjp of ``index_select`` add rows by id through
one ``np.bincount`` over flattened ``(id, column)`` keys
(``_scatter_add_rows``).  It adds in row order starting from +0.0, as
``np.add.at`` does, so the bytes are the same, at about a quarter of the
time.
"""

from __future__ import annotations

import contextlib

import numpy as np

from ..errors import ConfigError, ShapeError

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


_CONSUMED = object()  # the ``_vjp`` of a node that a backward has swept


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
    """Reverse sweep from ``t``; leaf ``grad`` arrays accumulate in place.

    The sweep consumes the graph: each non-leaf node drops its parents
    and its vjp before that vjp runs, so the saved arrays are freed as
    the sweep passes them, even while the caller still holds ``t`` or
    other outputs.  Leaves keep nothing and live on.  A later backward
    that reaches a consumed node, through the same root or a new graph
    built on it, raises ``RuntimeError`` before touching any gradient.
    """
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
        if node._vjp is _CONSUMED:
            raise RuntimeError(
                f"backward reached a {node!r} whose graph an earlier backward "
                "consumed; build the graph again to take another gradient")
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    t.grad = np.asarray(seed, dtype=np.float64)
    while topo:
        node = topo.pop()
        vjp, parents = node._vjp, node._parents
        if vjp is None:
            continue  # a leaf
        node._vjp, node._parents = _CONSUMED, ()
        g = node.grad
        if g is None:
            continue
        if node is not t:
            node.grad = None  # intermediate grads are not kept
        for p, pg in zip(parents, vjp(g)):
            if pg is None or not p.requires_grad:
                continue
            if p._vjp is None:  # a leaf adds into its own buffer, never into ``pg``
                if p.grad is None:
                    p.grad = np.zeros_like(p.data)
                p.grad += pg
            else:
                p.grad = pg if p.grad is None else p.grad + pg


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


ACTIVATIONS = ("none", "tanh", "relu")


def layer_norm(x, gamma, beta, eps: float) -> Tensor:
    """``(x - mean) / sqrt(var + eps) * gamma + beta`` over the last axis."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    sigma = np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + eps)
    xhat /= sigma
    out = xhat * gamma.data
    out += beta.data

    def vjp(g):
        dim = xhat.shape[-1]
        flat = g.reshape(-1, dim)
        gx = None
        if x.requires_grad:
            gh = g * gamma.data
            gx = gh - gh.mean(axis=-1, keepdims=True)
            gh *= xhat
            gx -= xhat * gh.mean(axis=-1, keepdims=True)
            gx /= sigma
        return (
            gx,
            (flat * xhat.reshape(-1, dim)).sum(axis=0) if gamma.requires_grad else None,
            flat.sum(axis=0) if beta.requires_grad else None,
        )

    return _make(out, (x, gamma, beta), vjp)


def affine(x, w, b, activation: str = "none") -> Tensor:
    """``act(x @ w + b)`` on the last axis of ``x``; ``w`` is (k, n)."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if activation not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {activation!r}, expected one of {ACTIVATIONS}")
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"affine: cannot map {x.shape} through a {w.shape} weight")
    k, n = w.shape
    flat_out = x.data.reshape(-1, k) @ w.data
    flat_out += b.data
    if activation == "tanh":
        np.tanh(flat_out, out=flat_out)
    elif activation == "relu":
        np.maximum(flat_out, 0.0, out=flat_out)

    def vjp(g):
        g = g.reshape(-1, n)
        if activation == "tanh":
            g = g * (1.0 - flat_out * flat_out)
        elif activation == "relu":
            g = g * (flat_out > 0)
        return (
            (g @ w.data.T).reshape(x.shape) if x.requires_grad else None,
            x.data.reshape(-1, k).T @ g if w.requires_grad else None,
            g.sum(axis=0) if b.requires_grad else None,
        )

    return _make(flat_out.reshape(x.shape[:-1] + (n,)), (x, w, b), vjp)


def attention(q, k, v, heads: int, scale: float) -> Tensor:
    """Multi-head ``softmax(q k^T * scale) v`` of (B, L_q, d) queries onto
    (B, L_k, d) keys and values: ``d`` splits into ``heads`` heads."""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if (q.ndim != 3 or k.ndim != 3 or k.shape != v.shape
            or (q.shape[0], q.shape[2]) != (k.shape[0], k.shape[2])):
        raise ShapeError(f"attention: queries {q.shape}, keys {k.shape}, values {v.shape}")
    bsz, lq, dim = q.shape
    lk = k.shape[1]
    if dim % heads:
        raise ShapeError(f"attention: dim {dim} not divisible by {heads} heads")

    def split(a, length):
        return a.reshape(bsz, length, heads, dim // heads).transpose(0, 2, 1, 3)

    def merge(a, length):
        return a.transpose(0, 2, 1, 3).reshape(bsz, length, dim)

    qh, kh, vh = split(q.data, lq), split(k.data, lk), split(v.data, lk)
    p = qh @ kh.transpose(0, 1, 3, 2)
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def vjp(g):
        gh = split(g, lq)
        gv = merge(p.transpose(0, 1, 3, 2) @ gh, lk) if v.requires_grad else None
        gs = gh @ vh.transpose(0, 1, 3, 2)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        return (
            merge(gs @ kh, lq) if q.requires_grad else None,
            merge(gs.transpose(0, 1, 3, 2) @ qh, lk) if k.requires_grad else None,
            gv,
        )

    return _make(merge(p @ vh, lq), (q, k, v), vjp)


def _scatter_add_rows(values, ids, num_rows: int) -> np.ndarray:
    """``out[i]`` = the sum of the axis-0 rows of ``values`` whose id is
    ``i``, added in row order from +0.0; rows no id names are zero."""
    tail = values.shape[1:]
    width = int(np.prod(tail))
    keys = np.add.outer(ids * width, np.arange(width)).ravel()
    flat = np.bincount(keys, weights=values.reshape(-1), minlength=num_rows * width)
    return flat.astype(np.float64, copy=False).reshape((num_rows,) + tail)  # int64 when empty


def index_select(a, idx, axis=0) -> Tensor:
    """Gather rows by an integer array along ``axis`` (repeats allowed)."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    expanded = (slice(None),) * axis + (idx,)

    def vjp(g):
        rows = idx % max(a.shape[axis], 1)  # negative ids from the end, as the gather read them
        z = _scatter_add_rows(np.moveaxis(g, axis, 0), rows, a.shape[axis])
        return (np.moveaxis(z, 0, axis),)

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
    sums = _scatter_add_rows(a.data, ids, num_segments)
    safe = np.maximum(counts, 1.0).reshape((-1,) + (1,) * (a.ndim - 1))

    def vjp(g):
        return ((g / safe)[ids],)

    return _make(sums / safe, (a,), vjp)
