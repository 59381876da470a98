"""Fused tape ops and the split query projection against their composite
oracles (``oracles.py``): forward and gradients at rtol 1e-12, plus a
finite-difference check of each fused op."""

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

    def test_none_rebuild_counts_its_source_only_once_read(self):
        """A recorded ``none`` ``affine`` output has a rebuild with its
        bytes, which adds no reader to the layer-norm rebuild it reads
        until something counts it."""
        rng = np.random.default_rng(645)
        x = PRODUCERS["layer_norm"](rng)
        y = T.affine(x, leaf(rng, (6, 5)), leaf(rng, (5,)))
        assert x._remat.readers == 1  # ``y``'s weight gradient
        assert y._remat.readers == 0 and y._remat.sources == (x._remat,)
        y._remat.count()
        assert x._remat.readers == 2 and y._remat.readers == 1
        assert y._remat().tobytes() == y.data.tobytes()
        assert x._remat.readers == 1 and y._remat.array is None

    def test_mul_with_one_gradient_keeps_no_rebuild(self):
        """Nor with two: ``mul`` never sets a rebuild, so an ``affine`` it
        feeds keeps the product's array."""
        rng = np.random.default_rng(643)
        for other in (T.Tensor(rng.normal(size=(3, 4))), leaf(rng, (3, 4))):
            t = T.mul(leaf(rng, (3, 4)), other)
            assert t._node is not None and t._remat is None

    def test_relu_reads_its_mask_from_the_shared_rebuild(self):
        """A relu ``affine`` keeps neither its output nor a mask: its vjp and
        the weight gradient of the ``affine`` it feeds share one build,
        dropped after both, and the gradients keep the bytes of a mask
        taken from the forward output."""
        rng = np.random.default_rng(644)
        x, w, b = leaf(rng, (2, 3, 4)), leaf(rng, (4, 6)), leaf(rng, (6,))
        h = T.affine(x, w, b, "relu")
        down = T.affine(h, leaf(rng, (6, 5)), leaf(rng, (5,)))
        rebuild, builds = h._remat, []
        build = rebuild.build
        rebuild.build = lambda: builds.append(1) or build()
        assert rebuild.readers == 2
        down._node.vjp(rng.normal(size=(2, 3, 5)))
        gh = rng.normal(size=(2, 3, 6))
        got = h._node.vjp(gh)
        assert len(builds) == 1 and rebuild.readers == 0 and rebuild.array is None
        masked = gh.reshape(-1, 6) * (h.data.reshape(-1, 6) > 0)
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
        out._remat.count()
        context = out._remat()
        return [out.data, context, *out._node.vjp(rng.normal(size=(bsz, lq, dim)))]

    @pytest.mark.parametrize("case", list(LARGE))
    def test_rebuilt_path_keeps_the_bytes(self, case, monkeypatch, rebuilds):
        """Forward, context rebuild and vjp byte for byte against the path
        that keeps p and the q/k/v views; the rebuilds the large path
        reads are built once each and end with no reader and no array."""
        kept = self.forward_context_and_vjp(case, np.inf, monkeypatch)
        # The kept path reads p, q, k and v as they are: it builds only the
        # context, and no layer norm, projection or probabilities again.
        assert {r.kind for r in rebuilds} <= {"layer_norm.<locals>.output",
                                              "affine.<locals>.rebuild",
                                              "_kept.<locals>.<lambda>",
                                              "attention.<locals>.context"}
        assert all(r.builds == 0 for r in rebuilds
                   if r.kind in ("layer_norm.<locals>.output", "affine.<locals>.rebuild"))
        del rebuilds[:]
        rebuilt = self.forward_context_and_vjp(
            case, REBUILD_BYTES if case == "size" else 0, monkeypatch)
        assert [a.tobytes() for a in rebuilt] == [a.tobytes() for a in kept]
        assert rebuilt[1].tobytes() == rebuilt[0].tobytes()
        read = [r for r in rebuilds if r.kind != "layer_norm.<locals>.output"]
        kinds = sorted(r.kind for r in read)
        operand = "_kept.<locals>.<lambda>" if case == "size" else "affine.<locals>.rebuild"
        assert kinds == sorted([operand] * 3 + ["attention.<locals>.context",
                                                "attention.<locals>.probabilities"])
        assert all(r.builds == 1 and r.readers == 0 and r.array is None for r in read)

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
                value = cell.cell_contents
                if isinstance(value, T._Rebuild):
                    value = value.build
                if isinstance(value, np.ndarray):
                    shapes.append(value.shape)
                elif callable(value) and hasattr(value, "__closure__"):
                    fns.append(value)
        assert (2, 2, 5, 1) in shapes and (2, 2, 5, 5) not in shapes

    def test_small_attention_reads_kept_arrays(self, rebuilds):
        """Below the size the vjp and the context read p, q, k and v
        through ``_kept`` rebuilds that hand out the forward's own arrays,
        so no layer norm, projection or probabilities are built again."""
        rng = np.random.default_rng(655)
        q, k, v = attention_operands("self", rng)
        out = T.attention(q, k, v, 2, 0.5)
        vjp = out._node.vjp
        cells = dict(zip(vjp.__code__.co_freevars, vjp.__closure__))
        pr, qr, kr, vr = (cells[name].cell_contents for name in ("pr", "qr", "kr", "vr"))
        assert {r.kind for r in (pr, qr, kr, vr)} == {"_kept.<locals>.<lambda>"}
        assert out._remat.sources == (pr, vr)
        assert qr.build() is q.data and kr.build() is k.data and vr.build() is v.data
        assert pr.build() is pr.build() and pr.build().shape == (2, 2, 5, 5)
        out._remat.count()
        out._remat()
        vjp(rng.normal(size=(2, 5, 6)))
        assert all(r.builds == 0 for r in rebuilds
                   if r.kind in ("layer_norm.<locals>.output", "affine.<locals>.rebuild"))
        assert all(r.readers == 0 and r.array is None for r in (pr, qr, kr, vr))

    def test_small_or_untaped_attention_makes_no_rebuild(self, monkeypatch, rebuilds):
        """Below the size the attention makes no rebuild that recomputes:
        it hands p, q, k and v to its vjp and context through ``_kept``
        rebuilds, adds its context's, and leaves its operands' own rebuilds
        unread; under ``no_grad`` there are no rebuilds at all."""
        rng = np.random.default_rng(654)
        q, k, v = attention_operands("self", rng)
        T.attention(q, k, v, 2, 0.5)
        assert [r.kind for r in rebuilds] == (
            ["layer_norm.<locals>.output"] + ["affine.<locals>.rebuild"] * 3
            + ["_kept.<locals>.<lambda>"] * 4 + ["attention.<locals>.context"])
        assert [r.readers for r in rebuilds[1:4]] == [0, 0, 0]
        del rebuilds[:]
        monkeypatch.setattr(T, "_ATTENTION_REBUILD_BYTES", 0)
        with T.no_grad():
            q, k, v = attention_operands("size", rng)
            T.attention(q, k, v, 8, 0.25)
            q, k, v = attention_operands("self", rng)
            out = T.attention(q, k, v, 2, 0.5)
        assert rebuilds == [] and out._remat is None and q._remat is None
