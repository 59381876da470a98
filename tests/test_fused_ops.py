"""Fused tape ops and the split query projection against their composite
oracles (``oracles.py``): forward and gradients at rtol 1e-12, plus a
finite-difference check of each fused op."""

import inspect
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from reverb.errors import ConfigError, ShapeError
from reverb.model import ModelConfig, ReverbPredictor
from reverb.nn import tensor as T
from reverb.nn.gradcheck import grad_check

import oracles

RTOL = 1e-12


def leaf(rng, shape):
    return T.Tensor(rng.normal(size=shape), requires_grad=True)


def run(fn, leaves, weights):
    """Forward of ``fn()`` and the gradients of ``sum(fn() * weights)``."""
    for t in leaves.values():
        t.grad = None
    out = fn()
    T.backward(T.sum_(out * weights))
    return out.data, {name: t.grad for name, t in leaves.items()}


def assert_matches(fused, oracle, leaves, rng):
    """``fused`` and ``oracle`` agree on the forward and on every leaf's
    gradient."""
    shape = oracle().shape
    weights = T.Tensor(rng.normal(size=shape))
    got, got_grads = run(fused, leaves, weights)
    want, want_grads = run(oracle, leaves, weights)
    assert got.shape == want.shape
    assert_allclose(got, want, rtol=RTOL, atol=0)
    for name in leaves:
        assert got_grads[name] is not None, name
        assert_allclose(got_grads[name], want_grads[name], rtol=RTOL, atol=0,
                        err_msg=name)


def assert_grad_check(fn, leaves, rng, tol=1e-6):
    weights = T.Tensor(rng.normal(size=fn().shape))
    report = grad_check(lambda: T.sum_(fn() * weights), leaves)
    assert report.max_rel_error <= tol, report.summary()


SHAPES = {"2d": (5, 6), "3d": (3, 4, 6), "4d": (2, 3, 4, 6)}
# (rows, k, n) of each affine with a wider input than output in the
# benchmarked models: the paper default at 60 windows (240 and 1920
# rows), the criterion-7 model at 25 windows (100 and 400) and at a
# 256-window predict chunk (1024 and 4096).
WIDE_AFFINES = (
    [(rows, k, n) for rows in (240, 1920) for k, n in ((512, 128), (128, 20), (128, 6))]
    + [(rows, k, n) for rows in (100, 400, 1024, 4096) for k, n in ((128, 32), (32, 8), (32, 6))])


class TestAffine:
    @pytest.mark.parametrize("activation", ["none", "tanh", "relu"])
    @pytest.mark.parametrize("shape", list(SHAPES.values()), ids=list(SHAPES))
    def test_matches_dense_oracle(self, shape, activation):
        rng = np.random.default_rng(600)
        leaves = {"x": leaf(rng, shape), "w": leaf(rng, (6, 5)), "b": leaf(rng, (5,))}
        args = (leaves["x"], leaves["w"], leaves["b"], activation)
        assert_matches(lambda: T.affine(*args), lambda: oracles.dense(*args), leaves, rng)

    @pytest.mark.parametrize("activation", ["none", "tanh", "relu"])
    @pytest.mark.parametrize("shape", list(SHAPES.values()), ids=list(SHAPES))
    def test_grad_check(self, shape, activation):
        rng = np.random.default_rng(601)
        leaves = {"x": leaf(rng, shape), "w": leaf(rng, (6, 3)), "b": leaf(rng, (3,))}
        assert_grad_check(lambda: T.affine(leaves["x"], leaves["w"], leaves["b"], activation),
                          leaves, rng)

    def test_constant_input_gets_no_gradient(self):
        rng = np.random.default_rng(602)
        x = T.Tensor(rng.normal(size=(3, 4)))
        w, b = leaf(rng, (4, 2)), leaf(rng, (2,))
        T.backward(T.sum_(T.affine(x, w, b, "tanh")))
        assert x.grad is None
        assert w.grad.shape == (4, 2) and b.grad.shape == (2,)

    @pytest.mark.parametrize("rows, k, n", WIDE_AFFINES)
    def test_wide_input_weight_gradient_keeps_the_bytes(self, rows, k, n):
        """For ``k > n`` the vjp takes the weight gradient as ``(g^T x)^T``;
        a BLAS that rounds it apart from ``x^T g`` fails here."""
        rng = np.random.default_rng(604)
        x, w, b = leaf(rng, (rows, k)), leaf(rng, (k, n)), leaf(rng, (n,))
        g = rng.normal(size=(rows, n))
        assert T.affine(x, w, b)._node.vjp(g)[1].tobytes() == (x.data.T @ g).tobytes()

    def test_rejects_bad_activation_and_shapes(self):
        rng = np.random.default_rng(603)
        w, b = leaf(rng, (3, 2)), leaf(rng, (2,))
        with pytest.raises(ConfigError, match="activation"):
            T.affine(T.Tensor(np.zeros((2, 3))), w, b, "gelu")
        # (2, 6) would reshape to (4, 3) without the check.
        with pytest.raises(ShapeError):
            T.affine(T.Tensor(np.zeros((2, 6))), w, b)


class TestLayerNorm:
    @pytest.mark.parametrize("shape", [(4, 7), (2, 3, 7)], ids=["2d", "3d"])
    def test_matches_oracle(self, shape):
        rng = np.random.default_rng(610)
        leaves = {"x": T.Tensor(rng.normal(loc=2.0, scale=3.0, size=shape),
                                requires_grad=True),
                  "gamma": leaf(rng, (7,)), "beta": leaf(rng, (7,))}
        args = (leaves["x"], leaves["gamma"], leaves["beta"], 1e-5)
        assert_matches(lambda: T.layer_norm(*args), lambda: oracles.layer_norm(*args),
                       leaves, rng)

    def test_grad_check(self):
        rng = np.random.default_rng(611)
        leaves = {"x": leaf(rng, (2, 3, 6)), "gamma": leaf(rng, (6,)), "beta": leaf(rng, (6,))}
        assert_grad_check(
            lambda: T.layer_norm(leaves["x"], leaves["gamma"], leaves["beta"], 1e-5),
            leaves, rng)


# (batch, query rows, key rows, dim, heads): cross-attention from 32
# query rows onto a 4-row memory, and self-attention.
ATTENTION = {"cross": (2, 32, 4, 8, 2), "self": (3, 5, 5, 12, 4)}


class TestAttention:
    @pytest.mark.parametrize("case", list(ATTENTION))
    def test_matches_oracle(self, case):
        bsz, lq, lk, dim, heads = ATTENTION[case]
        rng = np.random.default_rng(620)
        leaves = {"q": leaf(rng, (bsz, lq, dim)), "k": leaf(rng, (bsz, lk, dim)),
                  "v": leaf(rng, (bsz, lk, dim))}
        args = (leaves["q"], leaves["k"], leaves["v"], heads, 1.0 / np.sqrt(dim // heads))
        assert_matches(lambda: T.attention(*args), lambda: oracles.attention(*args),
                       leaves, rng)

    @pytest.mark.parametrize("case", list(ATTENTION))
    def test_grad_check(self, case):
        bsz, lq, lk, dim, heads = ATTENTION[case]
        rng = np.random.default_rng(621)
        leaves = {"q": leaf(rng, (1, min(lq, 6), dim)), "k": leaf(rng, (1, lk, dim)),
                  "v": leaf(rng, (1, lk, dim))}
        assert_grad_check(
            lambda: T.attention(leaves["q"], leaves["k"], leaves["v"], heads, 0.5),
            leaves, rng)

    def test_rejects_mismatched_shapes(self):
        q, kv = T.Tensor(np.zeros((2, 3, 8))), T.Tensor(np.zeros((2, 4, 6)))
        with pytest.raises(ShapeError):
            T.attention(q, kv, kv, 2, 1.0)
        with pytest.raises(ShapeError):
            T.attention(q, q, q, 3, 1.0)


def row_max_cases():
    """Random rows of every length from 1 to 33 on 2-d to 4-d arrays, with
    NaN, +-inf and -0.0/+0.0 ties planted in some rows."""
    rng = np.random.default_rng(630)
    for n in range(1, 34):
        for lead in ((7,), (3, 5), (2, 3, 4)):
            a = rng.normal(size=lead + (n,))
            rows = a.reshape(-1, n)
            rows[0, rng.integers(n)] = np.nan
            rows[1, rng.integers(n)] = np.inf
            rows[2, :] = -np.inf
            rows[3, :] = -np.abs(rows[3, :])
            rows[3, rng.integers(n)] = -0.0
            rows[3, rng.integers(n)] = 0.0
            rows[4, :] = rng.choice([-0.0, 0.0], size=n)
            yield a


class TestRowMax:
    def test_equals_numpy_max(self):
        for a in row_max_cases():
            want = a.max(axis=-1, keepdims=True)
            got = T._row_max(a)
            assert got.shape == want.shape
            assert not np.shares_memory(got, a)
            np.testing.assert_array_equal(got, want)  # NaN matches NaN, -0.0 matches +0.0
            sign_differs = np.signbit(got) != np.signbit(want)
            assert np.all(want[sign_differs] == 0.0)
            with np.errstate(invalid="ignore"):
                np.testing.assert_array_equal(np.exp(a - got), np.exp(a - want))

    @pytest.mark.parametrize("case", list(ATTENTION))
    def test_attention_bytes_match_the_numpy_max(self, case, monkeypatch):
        """Forward and vjp of ``attention`` byte for byte, against the same
        op with ``p.max(axis=-1, keepdims=True)`` in place of the fold."""
        bsz, lq, lk, dim, heads = ATTENTION[case]
        rng = np.random.default_rng(631)
        q, k, v = (leaf(rng, (bsz, n, dim)) for n in (lq, lk, lk))
        g = rng.normal(size=(bsz, lq, dim))

        def forward_and_vjp():
            out = T.attention(q, k, v, heads, 1.0 / np.sqrt(dim // heads))
            return [out.data, *out._node.vjp(g)]

        got = forward_and_vjp()
        monkeypatch.setattr(T, "_row_max", lambda a: a.max(axis=-1, keepdims=True))
        want = forward_and_vjp()
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


class TestQueryProjection:
    @pytest.mark.parametrize("name", ["non", "soc"])
    def test_matches_concat_then_dense(self, name):
        cfg = ModelConfig(t_h=4, t_f=6, d=8, k_g=4, n_theta=3, tf_layers=1,
                          tf_heads=2, noise_dim=5)
        model = ReverbPredictor(cfg, seed=630)
        branch = model.branches[name]
        rng = np.random.default_rng(631)
        branch.proj.b.data = rng.normal(size=branch.proj.b.shape)
        leaves = {"e_non": leaf(rng, (2, cfg.hist_rows, cfg.d)),
                  "w": branch.proj.w, "b": branch.proj.b}
        if name == "soc":
            leaves["e_soc"] = leaf(rng, (2, cfg.soc_rows, cfg.d))
        parts = [leaves["e_non"]] + ([leaves["e_soc"]] if name == "soc" else [])
        z = rng.normal(size=cfg.z_dim)
        assert_matches(lambda: model._query(branch, parts, z),
                       lambda: oracles.query_projection(branch.proj, parts, z, branch.rows),
                       leaves, rng)


# The ops that give their output a shared rebuild, which an ``affine``
# it feeds reads in backward instead of keeping the output.
PRODUCERS = {
    "layer_norm": lambda rng: T.layer_norm(leaf(rng, (2, 3, 6)), leaf(rng, (6,)),
                                           leaf(rng, (6,)), 1e-5),
    "attention": lambda rng: T.attention(leaf(rng, (2, 5, 6)), leaf(rng, (2, 4, 6)),
                                         leaf(rng, (2, 4, 6)), 2, 0.5),
    "relu": lambda rng: T.affine(leaf(rng, (2, 3, 4)), leaf(rng, (4, 6)), leaf(rng, (6,)),
                                 "relu"),
    "none": lambda rng: T.affine(leaf(rng, (2, 3, 4)), leaf(rng, (4, 6)), leaf(rng, (6,))),
}


class TestRebuiltInputs:
    @pytest.mark.parametrize("op", list(PRODUCERS))
    def test_rebuild_repeats_the_bytes(self, op):
        t = PRODUCERS[op](np.random.default_rng(640))
        assert t._remat is not None
        assert t._remat().tobytes() == t.data.tobytes()

    @pytest.mark.parametrize("activation", ["none", "relu"])
    @pytest.mark.parametrize("op", list(PRODUCERS))
    def test_affine_gradients_match_a_plain_copy(self, op, activation):
        rng = np.random.default_rng(641)
        t = PRODUCERS[op](rng)
        assert t._remat is not None  # the affine below takes the rebuild path
        copy = T.Tensor(t.data.copy(), requires_grad=True)
        w, b = leaf(rng, (6, 5)), leaf(rng, (5,))
        g = rng.normal(size=t.shape[:-1] + (5,))
        rebuilt = T.affine(t, w, b, activation)
        plain = T.affine(copy, w, b, activation)
        assert rebuilt.data.tobytes() == plain.data.tobytes()
        for got, want in zip(rebuilt._node.vjp(g), plain._node.vjp(g)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("op", list(PRODUCERS))
    def test_no_rebuild_without_a_node(self, op):
        with T.no_grad():
            t = PRODUCERS[op](np.random.default_rng(642))
        assert t._node is None and t._remat is None

    def test_none_rebuild_counts_its_source_only_once_read(self, rebuilds):
        """A recorded ``none`` ``affine`` output has a rebuild with its
        bytes, which builds the layer-norm rebuild it reads only when it
        is read, once, and holds it no longer than it and ``y``'s vjp
        live."""
        rng = np.random.default_rng(645)
        x = PRODUCERS["layer_norm"](rng)
        y = T.affine(x, leaf(rng, (6, 5)), leaf(rng, (5,)))
        source, own = rebuilds.of(x._remat), rebuilds.of(y._remat)
        assert source.builds == own.builds == 0
        assert y._remat().tobytes() == y.data.tobytes()
        assert y._remat() is y._remat() and source.builds == own.builds == 1
        del x  # ``y``'s weight gradient and rebuild still read the source
        assert source.alive()
        del y
        assert not source.alive() and not own.alive()

    def test_mul_with_one_gradient_keeps_no_rebuild(self):
        """Nor with two: ``mul`` never sets a rebuild, so an ``affine`` it
        feeds keeps the product's array."""
        rng = np.random.default_rng(643)
        for other in (T.Tensor(rng.normal(size=(3, 4))), leaf(rng, (3, 4))):
            t = T.mul(leaf(rng, (3, 4)), other)
            assert t._node is not None and t._remat is None

    def test_relu_reads_its_mask_from_the_shared_rebuild(self, rebuilds):
        """A relu ``affine`` keeps neither its output nor a mask: its vjp and
        the weight gradient of the ``affine`` it feeds share one build,
        freed as soon as the relu vjp, the last to read it, has its mask;
        the gradients keep the bytes of a mask taken from the forward
        output."""
        rng = np.random.default_rng(644)
        x, w, b = leaf(rng, (2, 3, 4)), leaf(rng, (4, 6)), leaf(rng, (6,))
        h = T.affine(x, w, b, "relu")
        down = T.affine(h, leaf(rng, (6, 5)), leaf(rng, (5,)))
        made, mask = rebuilds.of(h._remat), h.data.reshape(-1, 6) > 0
        down_vjp, h_vjp = down._node.vjp, h._node.vjp
        del h, down  # only the two vjps hold the rebuild now
        down_vjp(rng.normal(size=(2, 3, 5)))
        del down_vjp  # as ``backward`` drops each vjp it has run
        assert made.builds == 1 and made.alive()
        gh = rng.normal(size=(2, 3, 6))
        got = h_vjp(gh)
        assert made.builds == 1 and not made.alive()  # while ``h_vjp`` still lives
        masked = gh.reshape(-1, 6) * mask
        want = [(masked @ w.data.T).reshape(x.shape), x.data.reshape(-1, 4).T @ masked,
                masked.sum(axis=0)]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


# (batch, query rows, key rows, dim, heads): the projections of a layer
# norm, onto themselves ("self") or onto a leaf memory ("cross"), which
# take the rebuild path only with its size patched to 0; and leaves whose
# (16, 8, 32, 32) probabilities are 1 MiB ("size"), the paper-default
# self-attention at 16 windows.
LARGE = {"self": (2, 5, 5, 6, 2), "cross": (2, 5, 4, 6, 2), "size": (16, 32, 32, 128, 8)}
REBUILD_BYTES = T._ATTENTION_REBUILD_BYTES  # the size rule, before any test patches it


def attention_operands(case, rng):
    """q, k and v of ``case``, built as ``MultiHeadAttention`` builds them
    (the leaves of "size" stand for any operand without a rebuild)."""
    bsz, lq, lk, dim, heads = LARGE[case]
    if case == "size":
        return [leaf(rng, (bsz, n, dim)) for n in (lq, lk, lk)]
    x = T.layer_norm(leaf(rng, (bsz, lq, dim)), leaf(rng, (dim,)), leaf(rng, (dim,)), 1e-5)
    memory = x if case == "self" else leaf(rng, (bsz, lk, dim))
    return [T.affine(a, leaf(rng, (dim, dim)), leaf(rng, (dim,)))
            for a in (x, memory, memory)]


class TestAttentionRebuild:
    def forward_context_and_vjp(self, case, limit, monkeypatch):
        """The forward, the context rebuild read as a downstream ``affine``
        reads it, and the vjp, with the rebuild size at ``limit``."""
        monkeypatch.setattr(T, "_ATTENTION_REBUILD_BYTES", limit)
        rng = np.random.default_rng(650)
        bsz, lq, _, dim, heads = LARGE[case]
        q, k, v = attention_operands(case, rng)
        out = T.attention(q, k, v, heads, 1.0 / np.sqrt(dim // heads))
        context = out._remat()
        return [out.data, context, *out._node.vjp(rng.normal(size=(bsz, lq, dim)))]

    @pytest.mark.parametrize("case", list(LARGE))
    def test_rebuilt_path_keeps_the_bytes(self, case, monkeypatch, rebuilds):
        """Forward, context rebuild and vjp byte for byte against the path
        that keeps p and the q/k/v views; the rebuilds the large path
        reads are built once each, and every rebuild dies with the tape."""
        kept = self.forward_context_and_vjp(case, np.inf, monkeypatch)
        # The kept path reads p, q, k and v through ``_kept``, which caches
        # nothing: it builds only the context, and no layer norm or
        # projection again.
        assert {r.kind for r in rebuilds} <= {"layer_norm.<locals>.output",
                                              "affine.<locals>.rebuild",
                                              "attention.<locals>.context"}
        assert all(r.builds == 0 for r in rebuilds if r.kind != "attention.<locals>.context")
        del rebuilds[:]
        rebuilt = self.forward_context_and_vjp(
            case, REBUILD_BYTES if case == "size" else 0, monkeypatch)
        assert [a.tobytes() for a in rebuilt] == [a.tobytes() for a in kept]
        assert rebuilt[1].tobytes() == rebuilt[0].tobytes()
        read = [r for r in rebuilds if r.kind != "layer_norm.<locals>.output"]
        kinds = sorted(r.kind for r in read)
        operands = [] if case == "size" else ["affine.<locals>.rebuild"] * 3  # leaves: ``_kept``
        assert kinds == sorted(operands + ["attention.<locals>.context",
                                           "attention.<locals>.probabilities"])
        assert all(r.builds == 1 for r in read)
        assert not any(r.alive() for r in rebuilds)

    @pytest.mark.parametrize("case", list(ATTENTION))
    def test_rebuilt_path_matches_the_oracle(self, case, monkeypatch):
        monkeypatch.setattr(T, "_ATTENTION_REBUILD_BYTES", 0)
        bsz, lq, lk, dim, heads = ATTENTION[case]
        rng = np.random.default_rng(651)
        leaves = {"q": leaf(rng, (bsz, lq, dim)), "k": leaf(rng, (bsz, lk, dim)),
                  "v": leaf(rng, (bsz, lk, dim))}
        args = (leaves["q"], leaves["k"], leaves["v"], heads, 1.0 / np.sqrt(dim // heads))
        assert_matches(lambda: T.attention(*args), lambda: oracles.attention(*args),
                       leaves, rng)
        assert_grad_check(lambda: T.attention(*args), leaves, rng)

    def test_keeps_neither_probabilities_nor_projections(self, monkeypatch):
        """Above the size the projections die in the forward, and what the
        vjp reaches holds the (B, H, L_q, 1) row max and sum, not the
        (B, H, L_q, L_k) probabilities."""
        monkeypatch.setattr(T, "_ATTENTION_REBUILD_BYTES", 0)
        q, k, v = attention_operands("self", np.random.default_rng(652))
        out = T.attention(q, k, v, 2, 0.5)
        refs = [weakref.ref(a.data.base) for a in (q, k, v)]
        del q, k, v
        assert all(ref() is None for ref in refs)
        shapes, fns = [], [out._node.vjp]
        while fns:
            for cell in fns.pop().__closure__ or ():
                value = getattr(cell.cell_contents, "__wrapped__", cell.cell_contents)
                if isinstance(value, np.ndarray):
                    shapes.append(value.shape)
                elif callable(value) and hasattr(value, "__closure__"):
                    fns.append(value)
        assert (2, 2, 5, 1) in shapes and (2, 2, 5, 5) not in shapes

    def test_small_attention_reads_kept_arrays(self, rebuilds):
        """Below the size the vjp and the context read p, q, k and v
        through ``_kept`` rebuilds that hand out the forward's own arrays,
        so no layer norm, projection or probabilities are built again, and
        those rebuilds die with the vjp and the context."""
        rng = np.random.default_rng(655)
        q, k, v = attention_operands("self", rng)
        out = T.attention(q, k, v, 2, 0.5)
        vjp, context = out._node.vjp, inspect.unwrap(out._remat)
        cells = dict(zip(vjp.__code__.co_freevars, vjp.__closure__))
        reads = dict(zip(context.__code__.co_freevars, context.__closure__))
        pr, qr, kr, vr = (cells[name].cell_contents for name in ("pr", "qr", "kr", "vr"))
        assert {r.__qualname__ for r in (pr, qr, kr, vr)} == {"_kept.<locals>.<lambda>"}
        assert reads["pr"].cell_contents is pr and reads["vr"].cell_contents is vr
        assert qr() is q.data and kr() is k.data and vr() is v.data
        assert pr() is pr() and pr().shape == (2, 2, 5, 5)
        out._remat()
        vjp(rng.normal(size=(2, 5, 6)))
        assert all(r.builds == 0 for r in rebuilds if r.kind != "attention.<locals>.context")
        refs = [weakref.ref(r) for r in (pr, qr, kr, vr)]
        del out, vjp, context, cells, reads, pr, qr, kr, vr
        assert all(ref() is None for ref in refs)

    def test_small_or_untaped_attention_makes_no_rebuild(self, monkeypatch, rebuilds):
        """Below the size the attention makes no rebuild that recomputes:
        it hands p, q, k and v to its vjp and context through ``_kept``
        rebuilds, adds its context's, and holds none of its operands' own
        rebuilds; under ``no_grad`` there are no rebuilds at all."""
        rng = np.random.default_rng(654)
        q, k, v = attention_operands("self", rng)
        out = T.attention(q, k, v, 2, 0.5)
        assert [r.kind for r in rebuilds] == (
            ["layer_norm.<locals>.output"] + ["affine.<locals>.rebuild"] * 3
            + ["attention.<locals>.context"])
        reads = [cell.cell_contents for cell in out._node.vjp.__closure__]
        assert sum(getattr(r, "__qualname__", None) == "_kept.<locals>.<lambda>"
                   for r in reads) == 4
        del q, k, v, reads
        assert [r.alive() for r in rebuilds] == [True, False, False, False, True]
        del rebuilds[:]
        monkeypatch.setattr(T, "_ATTENTION_REBUILD_BYTES", 0)
        with T.no_grad():
            q, k, v = attention_operands("size", rng)
            T.attention(q, k, v, 8, 0.25)
            q, k, v = attention_operands("self", rng)
            out = T.attention(q, k, v, 2, 0.5)
        assert rebuilds == [] and out._remat is None and q._remat is None
