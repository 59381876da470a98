"""Tape-based reverse-mode automatic differentiation on numpy arrays.

The tape is a graph of data-free nodes.  An op whose operands need a
gradient gives its output ``Tensor`` one ``_Node``: the op's
vector-Jacobian closure and its parents, each the operand's node, the
operand itself for a leaf that requires grad, or ``None`` for a
constant.  A node holds no array.  Each vjp closes over the arrays it
reads and never over a ``Tensor``, so an intermediate array is freed in
the forward as soon as the model code drops it and no vjp reads it.
``backward`` runs one reverse topological sweep, adding into each
leaf's ``grad`` in place.  The sweep consumes the graph: a node drops its
parents and closure as it is passed, so a training step holds one tape
at most, and a second backward through the same nodes raises
``RuntimeError``.  All data is float64.  Gradient accumulation order is
fixed by graph construction order, so repeated runs are bit-identical.

An operand with ``requires_grad=False`` (a constant such as a scale
factor, a lookup table or input data) gets ``None`` from the vjps, so
its gradient is never computed.  Only the primitive ops record a node
and carry a vjp.  What each vjp keeps:

- shapes and indices only: ``add``, ``reshape``, ``transpose``,
  ``sum_``, ``concat``, ``getitem``, ``index_select``;
  ``segment_mean`` also its counts;
- ``mul``, ``matmul``: ``b`` when ``a`` needs a gradient, ``a`` when
  ``b`` does; ``div``: ``b``, and the output when ``b`` needs a
  gradient;
- the output: ``tanh``, ``exp``, ``sqrt``;
- ``layer_norm(x, gamma, beta, eps)``, one node for the normalisation
  of the last axis: x̂, σ = sqrt(var + eps) and γ;
- ``affine(x, w, b, activation)``, one node and one flat 2-d GEMM for
  ``act(x @ w + b)``: ``x`` for the weight gradient (its rebuild when it
  has one, below), ``w`` for the input gradient, and the output only
  for ``tanh``; a ``relu`` reads its mask from its output's rebuild;
- ``attention(q, k, v, heads, scale)``, one node for multi-head scaled
  dot-product attention: rebuilds of its probabilities and of q, k and
  v, which keep the arrays while the probabilities are under 1 MiB;
  from that size on, each softmax row's max and sum, ``(B, H, L_q, 1)``
  arrays, from which the rebuilds recompute the rest (below).

The composites have no vjp; their gradients come from the primitives
they are built of, which keep what is listed above: ``neg`` is
``mul(a, -1.0)``, ``sub`` is ``add(a, neg(b))`` (``neg`` of a constant
records no node), ``relu`` is ``mul(a, a > 0)``, ``mean_`` is
``div(sum_, count)``, ``softmax`` is ``exp(a - max)`` over its ``sum_``
(the max a constant) and ``take_per_row`` is ``index_select`` of the
flattened ``a`` at ``arange(B) * K + idx``.

Selective recomputation: each fused op gives every output its vjp
does not keep a shared rebuild, a ``_Rebuild`` in the output's
``_remat`` that ``_make`` creates with its build and its ``sources``,
the rebuilds that build reads.  A rebuild makes its output again, byte
for byte, through the code of the forward from arrays the tape holds
anyway: ``x̂ * γ + β`` for ``layer_norm``, ``act(x' @ w + b)`` for a
``none`` or ``relu`` ``affine``, where ``x'`` is its input's rebuild
or, without one, its input's data, and the merged ``p @ v`` heads for
``attention``.  The readers are ``affine`` (the weight gradient of an
``affine`` an output feeds, a relu's rebuild of its own output, and a
relu's vjp, for its mask) and a large ``attention``.  Each reader is
counted when its op records a node, and a rebuild counts its reads of
its sources when it gets its first reader, so a rebuild that nothing
reads holds none of them and is never built.  The first read in
backward builds the array, later readers get the same array, and the
last drops it.  ``_remat`` is set only when the op records a node, so
under ``no_grad`` nothing is kept and no rebuild is made.  The outputs
are freed in the forward, then built at most once each in backward: the
layer-norm rebuild is one multiply-add, the attention rebuild redoes the
batched ``p @ v`` GEMM, and a feed-forward hidden layer (B·L × 4d, the
widest array of a transformer step) is rebuilt by its ``up`` GEMM for
``down``'s weight gradient and kept until ``up``'s vjp has its mask.
The arrays behind a rebuild must not change between the forward and the
backward, as for every array a vjp keeps.

``attention``'s vjp and its context rebuild read p, q, k and v through
one rebuild each; one size rule picks what those are.  While the
probabilities take under 1 MiB (``_ATTENTION_REBUILD_BYTES``), each
keeps the forward's array (``_kept``): there a rebuild costs time and
saves little memory.  From that size on, q, k and v are each operand's
shared rebuild, or one that keeps its data when it has none, and the
probabilities are rebuilt as ``exp(q kᵀ·scale − max) / sum`` with the
kept row max and sum, by the operations of the forward, so they keep
their bytes; that costs three projection GEMMs, one score GEMM and one
``exp`` per attention.  The size is a property of the input, so the same
call always takes the same path.

``segment_mean`` and the vjp of ``index_select`` add rows by id with one
``np.bincount`` (``_scatter_add_rows``), in row order from +0.0 as
``np.add.at`` does.

Heap policy: on glibc, loading this module keeps freed heap mapped.  A
forward or backward allocates and frees temporaries of several MB each;
by default glibc serves the larger ones with ``mmap`` and trims the
heap top when enough is free, so the next call faults every page of
them in afresh.  ``_keep_freed_heap`` raises the trim threshold to
1 GiB and fixes the mmap threshold at 32 MiB, glibc's own ceiling for
its dynamic threshold, so those temporaries reuse heap pages that stay
resident.  Setting one threshold turns off glibc's dynamic adjustment of
the other, so both are set.  Where ``mallopt`` is missing (another libc
or platform) the module leaves the allocator alone.
"""

from __future__ import annotations

import contextlib
import ctypes

import numpy as np

from ..errors import ConfigError, ShapeError

_GRAD_ENABLED = True

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def _keep_freed_heap():
    """Keep freed heap mapped for reuse (see the module docstring)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library to load, or no mallopt
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


_keep_freed_heap()


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
    """A float64 array, its ``grad``, and the ``_node`` of the op that made
    it (``None`` for a leaf or a constant).  Only a leaf that requires
    grad keeps a gradient; ``backward`` adds into its ``grad`` in place.
    ``_remat`` is ``None`` or the output's shared rebuild, a ``_Rebuild``
    whose call returns an array with the bytes of ``data``: a fused op
    records one for every output its vjp does not keep, and ``affine`` and
    a large ``attention`` read it instead of keeping ``data``."""

    __slots__ = ("data", "grad", "requires_grad", "_node", "_remat")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None
        self._remat = None

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


class _Node:
    """One op on the tape; ``grad`` is its output's gradient during a sweep."""

    __slots__ = ("vjp", "parents", "grad")

    def __init__(self, vjp, parents):
        self.vjp, self.parents, self.grad = vjp, parents, None


_CONSUMED = object()  # the ``vjp`` of a node that a backward has swept


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _Rebuild:
    """One rebuildable output, shared by all its readers (see the module
    docstring).  A call builds the array on the first read and hands the
    same array to every later one.  ``readers`` counts the reads still to
    come, added by ``count`` when each reader is recorded; the array is
    dropped after the last of them, and a read nobody counted builds it
    afresh.  ``sources`` are the rebuilds that ``build`` reads, once each:
    the first ``count`` counts those reads, so a rebuild that nothing
    reads holds none of its sources."""

    __slots__ = ("build", "readers", "array", "sources")

    def __init__(self, build, sources=()):
        self.build, self.readers, self.array, self.sources = build, 0, None, sources

    def count(self):
        """Count one more read of this rebuild."""
        sources, self.sources = self.sources, ()
        for source in sources:
            source.count()
        self.readers += 1

    def __call__(self) -> np.ndarray:
        out = self.build() if self.array is None else self.array
        self.readers -= 1
        self.array = out if self.readers > 0 else None
        return out


def _make(data, parents, vjp, remat=None, sources=()) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(vjp, tuple(p._node or (p if p.requires_grad else None)
                                     for p in parents))
        if remat is not None:
            out._remat = _Rebuild(remat, sources)
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

    The sweep consumes the graph: each node drops its parents and its vjp
    before that vjp runs, so the saved arrays are freed as the sweep
    passes them, even while the caller still holds ``t`` or other
    outputs.  Leaves keep nothing and live on; ``t.grad`` is the seed,
    which must have ``t``'s shape (ones for a scalar ``t`` by default).
    A later backward that reaches a consumed node, through the same root
    or a new graph built on it, raises ``RuntimeError`` before touching
    any gradient.
    """
    if seed is None:
        if t.data.size != 1:
            raise ShapeError("backward without a seed needs a scalar output")
        seed = np.ones_like(t.data)
    elif np.shape(seed) != t.shape:
        raise ShapeError(f"backward: a seed of shape {np.shape(seed)} "
                         f"for an output of shape {t.shape}")
    topo = []
    seen = set()
    stack = [] if t._node is None else [(t._node, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node.vjp is _CONSUMED:
            raise RuntimeError(
                f"backward from {t!r} reached a node that an earlier backward "
                "consumed; build the graph again to take another gradient")
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if type(p) is _Node and id(p) not in seen:
                stack.append((p, False))
    t.grad = np.asarray(seed, dtype=np.float64)
    if t._node is not None:
        t._node.grad = t.grad
    while topo:
        node = topo.pop()
        vjp, parents = node.vjp, node.parents
        node.vjp, node.parents = _CONSUMED, ()
        g, node.grad = node.grad, None  # intermediate grads are not kept
        if g is None:
            continue
        for p, pg in zip(parents, vjp(g)):
            if p is None or pg is None:
                continue
            if type(p) is _Node:
                p.grad = pg if p.grad is None else p.grad + pg
            else:  # a leaf adds into its own buffer, never into ``pg``
                if p.grad is None:
                    p.grad = np.zeros_like(p.data)
                p.grad += pg


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb, ra, rb = a.shape, b.shape, a.requires_grad, b.requires_grad
    return _make(a.data + b.data, (a, b), lambda g: (
        _unbroadcast(g, sa) if ra else None, _unbroadcast(g, sb) if rb else None))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.shape, b.shape
    ad, bd = (a.data if b.requires_grad else None), (b.data if a.requires_grad else None)
    return _make(a.data * b.data, (a, b), lambda g: (
        None if bd is None else _unbroadcast(g * bd, sa),
        None if ad is None else _unbroadcast(g * ad, sb)))


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb, ra, rb, bd = a.shape, b.shape, a.requires_grad, b.requires_grad, b.data
    out_data = a.data / bd
    od = out_data if rb else None  # only the gradient of ``b`` reads the output
    return _make(out_data, (a, b), lambda g: (
        _unbroadcast(g / bd, sa) if ra else None,
        _unbroadcast(-g * od / bd, sb) if rb else None))


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must be at least 2-d")
    sa, sb = a.shape, b.shape
    ad, bd = (a.data if b.requires_grad else None), (b.data if a.requires_grad else None)

    def vjp(g):
        ga = gb = None
        if bd is not None:
            ga = _unbroadcast(g @ np.swapaxes(bd, -1, -2), sa)
        if ad is not None and len(sb) == 2:
            # a shared weight: one GEMM over every leading axis of ``a``
            gb = ad.reshape(-1, sa[-1]).T @ g.reshape(-1, g.shape[-1])
        elif ad is not None:
            gb = _unbroadcast(np.swapaxes(ad, -1, -2) @ g, sb)
        return ga, gb

    return _make(a.data @ b.data, (a, b), vjp)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.tanh(a.data)
    return _make(out_data, (a,), lambda g: (g * (1.0 - out_data * out_data),))


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
    shape, axes = a.shape, _norm_axes(axis, a.ndim)
    return _make(a.data.sum(axis=axes, keepdims=keepdims), (a,), lambda g: (
        np.broadcast_to(g if keepdims else np.expand_dims(g, axes), shape).copy(),))


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    inv = tuple(np.argsort(axes))
    return _make(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def concat(tensors, axis=0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    cuts = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors,
                 lambda g: np.split(g, cuts, axis=axis))


_BASIC_INDEX = (int, np.integer, slice, type(None), type(Ellipsis))


def getitem(a, idx) -> Tensor:
    """Basic indexing (ints, slices, ``None``, ``...``), which names each
    element at most once; an array, list or bool index raises
    ``ShapeError``: gather by ids, repeats included, with index_select."""
    a = _as_tensor(a)
    for part in idx if isinstance(idx, tuple) else (idx,):
        if isinstance(part, (bool, np.bool_)) or not isinstance(part, _BASIC_INDEX):
            raise ShapeError(f"getitem: gather by a {type(part).__name__} with index_select")
    shape = a.shape

    def vjp(g):
        z = np.zeros(shape)
        z[idx] += g
        return (z,)

    return _make(a.data[idx], (a,), vjp)


# Composites (see the module docstring): no node or vjp of their own.
def neg(a) -> Tensor:
    return mul(a, -1.0)


def sub(a, b) -> Tensor:
    return add(a, neg(b))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    return mul(a, a.data > 0)


def mean_(a, axis=None, keepdims=False) -> Tensor:
    """``sum_ / count``, as ``np.mean`` computes it."""
    a = _as_tensor(a)
    count = int(np.prod([a.shape[ax] for ax in _norm_axes(axis, a.ndim)]))
    return div(sum_(a, axis, keepdims), count)


def softmax(a, axis=-1) -> Tensor:
    a = _as_tensor(a)
    e = exp(sub(a, a.data.max(axis=axis, keepdims=True)))
    return div(e, sum_(e, axis, keepdims=True))


def take_per_row(a, idx) -> Tensor:
    """``out[b] = a[b, idx[b]]`` for a 2-d ``(B, K)`` tensor (best-of-K
    picks): a gather of the flat ``a`` at ``arange(B) * K + idx``."""
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeError("take_per_row expects a 2-d tensor")
    flat = np.ravel_multi_index((np.arange(a.shape[0]), np.asarray(idx, dtype=np.intp)), a.shape)
    return index_select(reshape(a, (-1,)), flat)


ACTIVATIONS = ("none", "tanh", "relu")


def layer_norm(x, gamma, beta, eps: float) -> Tensor:
    """``(x - mean) / sqrt(var + eps) * gamma + beta`` over the last axis."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    rx, rg, rb = x.requires_grad, gamma.requires_grad, beta.requires_grad
    gd, bd, dim = gamma.data, beta.data, x.shape[-1]
    # Means as ``sum / n``: the same bytes as ``np.mean``, without its overhead.
    xhat = x.data - x.data.sum(axis=-1, keepdims=True) / dim
    sigma = np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) / dim + eps)
    xhat /= sigma

    def output():
        out = xhat * gd
        out += bd
        return out

    def vjp(g):
        flat = g.reshape(-1, dim)
        gx = None
        if rx:
            gh = g * gd
            gx = gh - gh.sum(axis=-1, keepdims=True) / dim
            gh *= xhat
            gx -= xhat * (gh.sum(axis=-1, keepdims=True) / dim)
            gx /= sigma
        return (
            gx,
            (flat * xhat.reshape(-1, dim)).sum(axis=0) if rg else None,
            flat.sum(axis=0) if rb else None,
        )

    return _make(output(), (x, gamma, beta), vjp, output)


def affine(x, w, b, activation: str = "none") -> Tensor:
    """``act(x @ w + b)`` on the last axis of ``x``; ``w`` is (k, n)."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if activation not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {activation!r}, expected one of {ACTIVATIONS}")
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"affine: cannot map {x.shape} through a {w.shape} weight")
    k, n = w.shape
    shape, rb, wf, bf = x.shape, b.requires_grad, w.data, b.data
    # The weight gradient and the output's rebuild read ``x``: its rebuild
    # when it has one, else its data.
    xr = x._remat or x.data
    xd = xr if w.requires_grad else None
    wd = wf if x.requires_grad else None

    def forward(xa):
        out = xa.reshape(-1, k) @ wf
        out += bf
        if activation == "tanh":
            np.tanh(out, out=out)
        elif activation == "relu":
            np.maximum(out, 0.0, out=out)
        return out

    def rebuild():  # this output's bytes, from ``x``'s rebuild or data
        return forward(xr() if callable(xr) else xr)

    flat_out = forward(x.data)
    saved = flat_out if activation == "tanh" else None
    own = None  # relu: the output's rebuild, read for the mask; set once recorded

    def vjp(g):
        g = g.reshape(-1, n)
        if activation == "tanh":
            g = g * (1.0 - saved * saved)
        elif activation == "relu":
            g = g * (own() > 0)
        gw = None
        if xd is not None:
            x2 = (xd() if callable(xd) else xd).reshape(-1, k)
            # For a wide input ``(g^T x)^T`` is the faster GEMM, with the same bytes.
            gw = (g.T @ x2).T if k > n else x2.T @ g
        return (
            (g @ wd.T).reshape(shape) if wd is not None else None,
            gw,
            g.sum(axis=0) if rb else None,
        )

    out = _make(flat_out.reshape(shape[:-1] + (n,)), (x, w, b), vjp,
                None if activation == "tanh" else rebuild,  # tanh's vjp keeps the output
                (xr,) if callable(xr) else ())
    if out._node is not None:  # count this op's reads of the rebuilds
        if activation == "relu":
            own = out._remat
            own.count()
        if xd is not None and callable(xr):
            xr.count()
    return out


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1, keepdims=True)`` by halving the last axis with
    ``np.maximum``; an odd last column folds into the first.  A max does
    not round, so only the sign of a zero may differ at a -0.0/+0.0 tie.
    On short rows this beats numpy's reduce, which loops per row."""
    m = a
    while m.shape[-1] > 1:
        n = m.shape[-1]
        half = np.maximum(m[..., :n // 2], m[..., n // 2:n - n % 2])
        if n % 2:
            np.maximum(half[..., :1], m[..., n - 1:], out=half[..., :1])
        m = half
    return a.copy() if m is a else m


# The size from which ``attention`` keeps neither its probabilities nor
# its q/k/v head views, but rebuilds them in backward.
_ATTENTION_REBUILD_BYTES = 1 << 20


def _kept(array: np.ndarray) -> _Rebuild:
    """A rebuild that keeps ``array`` and hands it to every read."""
    return _Rebuild(lambda: array)


def _reread(a: Tensor) -> _Rebuild:
    """The rebuild through which a large ``attention`` reads ``a``: its
    shared rebuild, or one that keeps its data."""
    return a._remat or _kept(a.data)


def attention(q, k, v, heads: int, scale: float) -> Tensor:
    """Multi-head ``softmax(q k^T * scale) v`` of (B, L_q, d) queries onto
    (B, L_k, d) keys and values: ``d`` splits into ``heads`` heads."""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if (q.ndim != 3 or k.ndim != 3 or k.shape != v.shape
            or (q.shape[0], q.shape[2]) != (k.shape[0], k.shape[2])):
        raise ShapeError(f"attention: queries {q.shape}, keys {k.shape}, values {v.shape}")
    bsz, lq, dim = q.shape
    lk = k.shape[1]
    rq, rk, rv = q.requires_grad, k.requires_grad, v.requires_grad
    if dim % heads:
        raise ShapeError(f"attention: dim {dim} not divisible by {heads} heads")

    def split(a, length):
        return a.reshape(bsz, length, heads, dim // heads).transpose(0, 2, 1, 3)

    def merged(a, b, length):
        """The per-head ``a @ b``, written straight into merged (B, length, d) layout."""
        out = np.empty((bsz, length, heads, dim // heads))
        np.matmul(a, b, out=out.transpose(0, 2, 1, 3))
        return out.reshape(bsz, length, dim)

    def scores(qa, ka):
        s = split(qa, lq) @ split(ka, lk).transpose(0, 1, 3, 2)
        s *= scale
        return s

    p = scores(q.data, k.data)
    row_max = _row_max(p)
    p -= row_max
    np.exp(p, out=p)
    row_sum = p.sum(axis=-1, keepdims=True)
    p /= row_sum
    out_data = merged(p, split(v.data, lk), lq)
    if not (_GRAD_ENABLED and (rq or rk or rv)):
        return Tensor(out_data)
    if p.nbytes < _ATTENTION_REBUILD_BYTES:
        pr, qr, kr, vr = _kept(p), _kept(q.data), _kept(k.data), _kept(v.data)
    else:  # keep the row max and sum; rebuild q, k, v and p in backward
        qr, kr, vr = _reread(q), _reread(k), _reread(v)

        def probabilities():
            p = scores(qr(), kr())
            p -= row_max
            np.exp(p, out=p)
            p /= row_sum
            return p

        pr = _Rebuild(probabilities, (qr, kr))
    for r in (pr, qr, kr, vr):  # the vjp's reads
        r.count()

    def context():
        return merged(pr(), split(vr(), lk), lq)

    def vjp(g):
        p, qh, kh, vh = pr(), split(qr(), lq), split(kr(), lk), split(vr(), lk)
        gh = split(g, lq)
        gv = merged(p.transpose(0, 1, 3, 2), gh, lk) if rv else None
        gs = gh @ vh.transpose(0, 1, 3, 2)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        return (
            merged(gs, kh, lq) if rq else None,
            merged(gs.transpose(0, 1, 3, 2), qh, lk) if rk else None,
            gv,
        )

    return _make(out_data, (q, k, v), vjp, context, (pr, vr))


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
    length = a.shape[axis]

    def vjp(g):
        rows = idx % max(length, 1)  # negative ids from the end, as the gather read them
        z = _scatter_add_rows(np.moveaxis(g, axis, 0), rows, length)
        return (np.moveaxis(z, 0, axis),)

    return _make(a.data[expanded], (a,), vjp)


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
