import gc
import hashlib
import inspect
import weakref
from dataclasses import replace

import numpy as np
import pytest

import oracles
import reverb.model
from reverb import transforms
from reverb.data import Sample, inject_manual_neighbor, preprocess
from reverb.errors import ConfigError, ShapeError
from reverb.linear import linear_fit
from reverb.metrics import min_ade_fde
from reverb.model import EncodedBatch, ModelConfig, ReverbKernelPair, ReverbPredictor
from reverb.nn import tensor as T
from reverb.nn.transformer import DecoderLayer, EncoderLayer, FeedForward, MultiHeadAttention
from reverb.transforms import TimeSeq


def toy_config(**overrides):
    base = dict(
        t_h=4, t_f=6, m=2, dt=0.4, transform="haar",
        d=8, k_g=4, n_theta=4, tf_layers=1, tf_heads=2, noise_dim=4,
    )
    base.update(overrides)
    return ModelConfig(**base)


def make_sample(seed=0, t_h=4, t_f=6, n_neighbors=2, dt=0.4):
    rng = np.random.default_rng(seed)
    start = rng.normal(scale=4.0, size=2)
    vel = rng.normal(scale=1.2, size=2)
    steps = np.arange(t_h + t_f)[:, None] * dt
    ego = start + steps * vel + rng.normal(scale=0.05, size=(t_h + t_f, 2))
    neighbors = []
    for _ in range(n_neighbors):
        n_start = start + rng.normal(scale=3.0, size=2)
        n_vel = rng.normal(scale=1.0, size=2)
        nbr = n_start + steps[:t_h] * n_vel
        neighbors.append(TimeSeq(nbr, dt))
    return Sample(
        ego=TimeSeq(ego[:t_h], dt),
        neighbors=tuple(neighbors),
        gt=TimeSeq(ego[t_h:], dt),
        scene_id="toy",
        agent_id="a0",
        start_frame=1.0,
    )


def kept_probabilities(out):
    """The probabilities that the vjp of an ``attention`` below the
    rebuild size keeps: the array its ``pr`` rebuild hands out."""
    return closure(out._node.vjp)["pr"]()


def closure(fn):
    """The variables that ``fn`` closes over, by name."""
    return {name: cell.cell_contents
            for name, cell in zip(fn.__code__.co_freevars, fn.__closure__)}


def reachable_rebuilds(loss):
    """Weak references to the rebuilds that the tape of ``loss`` reaches
    through its vjps' closures and the rebuilds' builds, and their kinds:
    the cached ones and the ``_kept`` ones that hand out a kept array."""
    nodes, stack, values = set(), [loss._node], []
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes.add(id(node))
            stack.extend(p for p in node.parents if isinstance(p, T._Node))
            values.append(node.vjp)
    seen, refs, kinds = set(), [], []
    while values:
        value = values.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        build = inspect.unwrap(value) if callable(value) else value
        kind = getattr(build, "__qualname__", None)
        if hasattr(value, "cache_info") or kind == "_kept.<locals>.<lambda>":
            refs.append(weakref.ref(value))
            kinds.append(kind)
        if isinstance(value, (list, tuple)):
            values.extend(value)
        elif getattr(build, "__closure__", None):
            values.extend(cell.cell_contents for cell in build.__closure__)
    return refs, kinds


def run_forward(model, samples, noise=None):
    """(pred (B, K_g, t_f, m), info) of the batched forward, no tape."""
    noise = model.zero_noise() if noise is None else noise
    with T.no_grad():
        pred, info = model.forward(model.encode(samples), noise)
    return pred.data, info


def assert_bounded(pair):
    """Each kernel of a predicted pair is finite and within [-1, 1]."""
    for k in (pair.r, pair.g):
        assert np.isfinite(k).all() and np.abs(k).max() <= 1.0


def delta(info, branch):
    return info[f"delta_{branch}"].data[0]


class TestConfig:
    def test_defaults_validate(self):
        cfg = ModelConfig()
        cfg.validate()
        assert cfg.hist_rows == 4 and cfg.fut_rows == 6 and cfg.cols == 4
        assert cfg.z_dim == 64
        assert cfg.soc_rows == 32

    def test_odd_horizon_rejected_for_paired_kinds(self):
        with pytest.raises(ConfigError):
            toy_config(t_h=5).validate()
        toy_config(t_h=5, t_f=6, transform="none").validate()

    def test_all_parts_disabled_rejected(self):
        with pytest.raises(ConfigError):
            toy_config(use_linear=False, use_non=False, use_soc=False).validate()

    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            toy_config(d=10, tf_heads=4).validate()


class TestShapes:
    def test_prediction_shapes_toy(self):
        model = ReverbPredictor(toy_config(), seed=0)
        pred = model.predict([make_sample()])[0]
        assert pred.values.shape == (4, 6, 2)
        assert pred.y_lin.shape == (6, 2)
        assert pred.kernels_non.r.shape == (2, 3)
        assert pred.kernels_non.g.shape == (2, 4)
        assert pred.kernels_soc.r.shape == (8, 3)
        assert pred.kernels_soc.g.shape == (8, 4)
        assert_bounded(pred.kernels_non)
        assert_bounded(pred.kernels_soc)

    def test_social_kernel_rows_at_eight_partitions(self):
        cfg = toy_config(t_h=8, t_f=12, n_theta=8, k_g=3)
        model = ReverbPredictor(cfg, seed=1)
        sample = make_sample(seed=4, t_h=8, t_f=12)
        kernels = model.predict([sample])[0].kernels_soc
        assert kernels.r.shape == (32, 6)
        assert kernels.g.shape == (32, 3)

    def test_default_output_shape(self):
        model = ReverbPredictor(ModelConfig(), seed=0)
        sample = make_sample(seed=2, t_h=8, t_f=12, n_neighbors=1)
        pred = model.predict([sample])[0]
        assert pred.values.shape == (20, 12, 2)

    def test_wrong_window_length_rejected(self):
        model = ReverbPredictor(toy_config(), seed=0)
        with pytest.raises(ShapeError, match=r"sample 0: ego window \(6, 2\), expected \(4, 2\)"):
            model.encode([make_sample(t_h=6)])


class TestLinearOnly:
    def test_rows_equal_linear_extrapolation(self):
        cfg = toy_config(use_non=False, use_soc=False)
        model = ReverbPredictor(cfg, seed=0)
        sample = make_sample(seed=3)
        pred = model.predict([sample])[0]
        prepped = preprocess(sample)
        fit = linear_fit(prepped.ego.values, cfg.t_f)
        want = fit.predicted + prepped.offset[None, :]
        for k in range(cfg.k_g):
            np.testing.assert_allclose(pred.values[k], want, atol=1e-12)
        assert model.store.names() == []

    def test_disabled_branch_reports_no_delta(self):
        model = ReverbPredictor(toy_config(use_soc=False), seed=0)
        _, info = run_forward(model, [make_sample()])
        assert info["delta_soc"] is None
        assert info["r_soc"] is None and info["g_soc"] is None
        assert info["delta_non"].data.shape == (1, 4, 6, 2)


class TestSuperposition:
    def test_prediction_decomposes_into_parts(self):
        model = ReverbPredictor(toy_config(), seed=5)
        sample = make_sample(seed=6)
        noise = model.zero_noise()
        pred = model.predict([sample], noise=noise)[0]
        _, info = run_forward(model, [sample], noise)
        prepped = preprocess(sample)
        y_lin = linear_fit(prepped.ego.values, 6).predicted
        want = (y_lin[None] + delta(info, "non") + delta(info, "soc")
                + prepped.offset[None, None, :])
        np.testing.assert_allclose(pred.values, want, atol=1e-9)

    def test_toggling_soc_off_equals_zero_delta(self):
        # Parameter draws are insertion-ordered and the social branch is
        # registered last, so the seed gives both models identical
        # non-branch weights.
        full = ReverbPredictor(toy_config(), seed=7)
        bare = ReverbPredictor(toy_config(use_soc=False), seed=7)
        sample = make_sample(seed=8)
        noise = full.zero_noise()
        p_full = full.predict([sample], noise=noise)[0]
        p_bare = bare.predict([sample], noise=noise)[0]
        _, info = run_forward(full, [sample], noise)
        np.testing.assert_allclose(
            p_full.values - p_bare.values, delta(info, "soc"), atol=1e-9
        )

    def test_no_linear_prediction_is_sum_of_deltas(self):
        model = ReverbPredictor(toy_config(use_linear=False), seed=9)
        pred, info = run_forward(model, [make_sample(seed=9), make_sample(seed=10)])
        np.testing.assert_array_equal(
            pred, info["delta_non"].data + info["delta_soc"].data
        )


class TestBranchIsolation:
    def test_manual_neighbor_changes_only_social_delta(self):
        model = ReverbPredictor(toy_config(), seed=10)
        sample = make_sample(seed=11, n_neighbors=1)
        poked = inject_manual_neighbor(sample, [2.0, 0.0], [0.5, 0.0])
        _, before = run_forward(model, [sample])
        _, after = run_forward(model, [poked])
        np.testing.assert_array_equal(delta(before, "non"), delta(after, "non"))
        assert np.abs(delta(before, "soc") - delta(after, "soc")).max() > 1e-8

    def test_social_branch_with_empty_scene_is_well_defined(self):
        model = ReverbPredictor(toy_config(), seed=12)
        sample = make_sample(seed=13, n_neighbors=0)
        _, info = run_forward(model, [sample])
        assert np.all(np.isfinite(delta(info, "soc")))
        assert_bounded(model.predict([sample])[0].kernels_soc)


class TestEncodeNon:
    def test_tied_weights_cancel_on_linear_input(self):
        model = ReverbPredictor(toy_config(), seed=14)
        for name in list(model.store.names()):
            if name.startswith("enc.alpha"):
                twin = name.replace("enc.alpha", "enc.beta")
                model.store[twin].data[...] = model.store[name].data
        rng = np.random.default_rng(15)
        start, vel = rng.normal(size=2), rng.normal(size=2)
        steps = np.arange(10)[:, None] * 0.4
        ego = start + steps * vel
        sample = Sample(
            ego=TimeSeq(ego[:4], 0.4), neighbors=(), gt=TimeSeq(ego[4:], 0.4),
            scene_id="lin", agent_id="a0", start_frame=1.0,
        )
        with T.no_grad():
            e = model._e_non(model.encode([sample])).data[0]
        assert np.abs(e).max() < 1e-9

    def test_half_difference_of_embeddings(self):
        model = ReverbPredictor(toy_config(), seed=16)
        sample = make_sample(seed=17)
        batch = model.encode([sample])
        with T.no_grad():
            a = model.embed_alpha(T.Tensor(batch.spec_x)).data[0]
            b = model.embed_beta(T.Tensor(batch.spec_lin)).data[0]
            got = model._e_non(batch).data[0]
        np.testing.assert_allclose(got, 0.5 * (a - b), atol=1e-12)
        assert got.shape == (2, 8)

    def test_replay(self):
        def e_non():
            model = ReverbPredictor(toy_config(), seed=18)
            with T.no_grad():
                return model._e_non(model.encode([make_sample(seed=19)])).data

        np.testing.assert_array_equal(e_non(), e_non())


class TestDegenerateWeights:
    def test_zero_heads_give_time_constant_delta(self):
        cfg = toy_config(transform="none", t_h=4, t_f=5, k_g=1)
        model = ReverbPredictor(cfg, seed=20)
        for name in ("non.head_r.w", "non.head_g.w", "non.decode.w"):
            model.store[name].data[...] = 0.0
        _, info = run_forward(model, [make_sample(seed=21, t_h=4, t_f=5)])
        np.testing.assert_array_equal(info["r_non"].data, 0.0)
        np.testing.assert_array_equal(info["g_non"].data, 0.0)
        bias = model.store["non.decode.b"].data
        for t in range(cfg.t_f):
            np.testing.assert_allclose(delta(info, "non")[0, t], bias, atol=1e-12)

    def test_equal_g_columns_give_equal_generation_rows(self):
        cfg = toy_config(use_soc=False)
        model = ReverbPredictor(cfg, seed=22)
        w = model.store["non.head_g.w"].data
        w[:, 1] = w[:, 0]
        pred = model.predict([make_sample(seed=23)])[0]
        np.testing.assert_allclose(pred.values[0], pred.values[1], atol=1e-12)
        assert np.abs(pred.values[0] - pred.values[2]).max() > 1e-10


class TestInvariances:
    def test_translation_equivariance(self):
        model = ReverbPredictor(toy_config(), seed=24)
        sample = make_sample(seed=25)
        shift = np.array([310.0, -42.0])
        moved = Sample(
            ego=TimeSeq(sample.ego.values + shift, sample.ego.dt),
            neighbors=tuple(TimeSeq(n.values + shift, n.dt) for n in sample.neighbors),
            gt=TimeSeq(sample.gt.values + shift, sample.gt.dt),
            scene_id=sample.scene_id, agent_id=sample.agent_id,
            start_frame=sample.start_frame,
        )
        noise = model.zero_noise()
        base = model.predict([sample], noise=noise)[0]
        shifted = model.predict([moved], noise=noise)[0]
        np.testing.assert_allclose(
            shifted.values, base.values + shift[None, None, :], atol=1e-9
        )

    def test_same_noise_replays_exactly(self):
        model = ReverbPredictor(toy_config(), seed=26)
        sample = make_sample(seed=27)
        noise = model.draw_noise(np.random.default_rng(1))
        a = model.predict([sample], noise=noise)[0]
        b = model.predict([sample], noise=noise)[0]
        np.testing.assert_array_equal(a.values, b.values)

    def test_different_noise_changes_output(self):
        model = ReverbPredictor(toy_config(), seed=28)
        sample = make_sample(seed=29)
        a = model.predict([sample], noise=model.zero_noise())[0]
        b = model.predict([sample], rng=np.random.default_rng(2))[0]
        assert np.abs(a.values - b.values).max() > 1e-8


class TestLossGraph:
    def test_loss_matches_numpy_oracle(self):
        model = ReverbPredictor(toy_config(), seed=32)
        samples = [make_sample(seed=40 + i, n_neighbors=i % 3) for i in range(5)]
        batch = model.encode(samples)
        noise = model.zero_noise()
        loss, pred, _ = model.loss(batch, noise)
        per_sample = [
            min_ade_fde(pred.data[b], batch.gt[b])[0] for b in range(batch.size)
        ]
        assert loss.data == pytest.approx(np.mean(per_sample), rel=1e-9)

    def test_every_parameter_receives_gradient(self):
        model = ReverbPredictor(toy_config(), seed=33)
        batch = model.encode([make_sample(seed=50, n_neighbors=2)])
        loss, _, _ = model.loss(batch, model.zero_noise())
        T.backward(loss)
        for name, p in model.store.items():
            assert p.grad is not None and np.abs(p.grad).max() > 0, name
            assert np.all(np.isfinite(p.grad)), name

    def test_backward_consumes_the_graph_the_caller_still_holds(self, monkeypatch):
        saved, relu = [], []
        attention, affine = T.attention, T.affine

        def recording_attention(*args):
            out = attention(*args)
            saved.append(weakref.ref(kept_probabilities(out)))
            return out

        def recording_affine(x, w, b, activation="none"):
            out = affine(x, w, b, activation)
            if activation == "relu":  # rebuilt in backward, so not kept
                relu.append(weakref.ref(out.data.base))
            return out

        monkeypatch.setattr(T, "attention", recording_attention)
        monkeypatch.setattr(T, "affine", recording_affine)
        model = ReverbPredictor(toy_config(), seed=36)
        batch = model.encode([make_sample(seed=52, n_neighbors=2)])
        loss, pred, info = model.loss(batch, model.zero_noise())
        nodes, stack = {}, [loss._node]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(p for p in node.parents if isinstance(p, T._Node))
        pred_bytes = pred.data.tobytes()
        assert saved and all(ref() is not None for ref in saved)
        assert relu and all(ref() is None for ref in relu)
        T.backward(loss)
        assert all(node.parents == () for node in nodes.values())
        assert all(p._node is None for _, p in model.store.items())
        del nodes, node
        assert all(ref() is None for ref in saved)
        assert pred.data.tobytes() == pred_bytes

    def test_arrays_no_vjp_reads_are_freed_before_backward(self, monkeypatch):
        """Residual sums, the outputs of ``none``-activation projections
        and the relu outputs die in the forward, while ``loss``, ``pred``
        and ``info`` are held; the relu outputs are rebuilt in backward."""
        residual, projected, relu, depth = [], [], [], [0]
        add, affine = T.add, T.affine

        def recording_add(a, b):
            out = add(a, b)
            if depth[0]:  # inside a transformer layer every add is a residual
                residual.append(weakref.ref(out.data))
            return out

        def recording_affine(x, w, b, activation="none"):
            out = affine(x, w, b, activation)
            if activation == "relu":
                relu.append(weakref.ref(out.data.base))
            return out

        def layer(call):
            def wrapped(self, *args):
                depth[0] += 1
                try:
                    return call(self, *args)
                finally:
                    depth[0] -= 1
            return wrapped

        def projection(call):  # attention ``out`` and feed-forward ``down``
            def wrapped(self, *args):
                out = call(self, *args)
                projected.append(weakref.ref(out.data.base))
                return out
            return wrapped

        monkeypatch.setattr(T, "add", recording_add)
        monkeypatch.setattr(T, "affine", recording_affine)
        for cls, wrap in ((EncoderLayer, layer), (DecoderLayer, layer),
                          (MultiHeadAttention, projection), (FeedForward, projection)):
            monkeypatch.setattr(cls, "__call__", wrap(cls.__call__))
        model = ReverbPredictor(toy_config(), seed=37)
        batch = model.encode([make_sample(seed=53, n_neighbors=2)])
        loss, pred, info = model.loss(batch, model.zero_noise())  # held, no backward yet
        assert residual and projected and relu
        assert all(ref() is None for ref in residual)
        assert all(ref() is None for ref in projected)
        assert all(ref() is None for ref in relu)

    def test_inputs_affine_rebuilds_are_freed_before_backward(self, monkeypatch):
        """The ``ln_ff`` outputs, the attention contexts and the relu
        outputs die in the forward, while ``loss``, ``pred`` and ``info``
        are held: they are rebuilt in backward.  The attention
        probabilities, which a vjp reads below the rebuild size, stay."""
        ln_ff, contexts, relu, probs = [], [], [], []
        attention, affine = T.attention, T.affine

        def recording_attention(*args):
            out = attention(*args)
            contexts.append(weakref.ref(out.data))
            probs.append(weakref.ref(kept_probabilities(out)))
            return out

        def recording_affine(x, w, b, activation="none"):
            out = affine(x, w, b, activation)
            if activation == "relu":
                relu.append(weakref.ref(out.data.base))
            return out

        def feed_forward(call):
            def wrapped(self, x):
                ln_ff.append(weakref.ref(x.data))
                return call(self, x)
            return wrapped

        monkeypatch.setattr(T, "attention", recording_attention)
        monkeypatch.setattr(T, "affine", recording_affine)
        monkeypatch.setattr(FeedForward, "__call__", feed_forward(FeedForward.__call__))
        model = ReverbPredictor(toy_config(), seed=38)
        batch = model.encode([make_sample(seed=54, n_neighbors=2)])
        loss, pred, info = model.loss(batch, model.zero_noise())  # held, no backward yet
        assert ln_ff and contexts and relu and probs
        assert all(ref() is None for ref in ln_ff + contexts + relu)
        assert all(ref() is not None for ref in probs)
        T.backward(loss)
        assert all(np.isfinite(p.grad).all() for _, p in model.store.items())

    def test_one_step_builds_each_rebuild_at_most_once(self, monkeypatch, rebuilds):
        """The readers of a rebuildable output share one build, freed with
        the last of them: the q/k/v weight gradients read one layer-norm
        rebuild, and each feed-forward hidden layer is built once, for
        ``down``'s weight gradient and ``up``'s mask.  Below the attention
        rebuild size nothing reads a ``none`` projection's rebuild, so it
        is never built."""
        found = {"layer_norm": [], "attention": [], "affine": [], "none": []}

        def filing(kind, op):
            def wrapped(*args):
                out = op(*args)
                if out._remat is not None:
                    none = kind == "affine" and args[3] == "none"
                    found["none" if none else kind].append(rebuilds.of(out._remat))
                return out
            return wrapped

        for kind in ("layer_norm", "attention", "affine"):
            monkeypatch.setattr(T, kind, filing(kind, getattr(T, kind)))
        cfg = toy_config(tf_layers=2)
        model = ReverbPredictor(cfg, seed=40)
        batch = model.encode([make_sample(seed=s, n_neighbors=s % 3) for s in (58, 59)])
        loss, _, _ = model.loss(batch, model.zero_noise())
        T.backward(loss)
        layers = len(model.branches) * cfg.tf_layers  # encoder layers; as many decoder layers
        builds = {kind: [r.builds for r in made] for kind, made in found.items()}
        assert builds["affine"] == [1] * (2 * layers)  # one hidden layer per feed-forward layer
        assert builds["none"] and not any(builds["none"])
        assert builds["attention"] == [1] * (3 * layers)  # self, self and cross
        # Each ``ln_enc`` output feeds no ``affine``, so it is never built.
        assert sorted(builds["layer_norm"]) == [0] * len(model.branches) + [1] * (
            len(builds["layer_norm"]) - len(model.branches))
        assert not any(r.alive() for r in rebuilds)

    @pytest.mark.parametrize("limit", [None, 0])
    def test_every_rebuild_the_tape_reaches_dies_in_backward(self, monkeypatch, rebuilds,
                                                            limit):
        """A rebuilt array lives as long as the vjps and rebuilds that hold
        it.  By reference counting alone (no cycle collection), and with
        ``loss``, ``pred`` and ``info`` held, every rebuild the tape
        reaches after a recorded toy-model forward is built at most once,
        and none is left when ``backward`` returns.  With ``limit`` 0
        every attention takes the rebuild path."""
        if limit is not None:
            monkeypatch.setattr(T, "_ATTENTION_REBUILD_BYTES", limit)
        model = ReverbPredictor(toy_config(), seed=42)
        batch = model.encode([make_sample(seed=s, n_neighbors=s % 3) for s in (61, 62)])
        enabled = gc.isenabled()
        gc.disable()
        try:
            loss, pred, info = model.loss(batch, model.zero_noise())
            refs, kinds = reachable_rebuilds(loss)
            assert all(ref() is not None for ref in refs)
            T.backward(loss)
            assert [ref() for ref in refs if ref() is not None] == []
            assert not any(r.alive() for r in rebuilds)  # nor any that ``pred`` or ``info`` holds
        finally:
            if enabled:
                gc.enable()
        assert {"layer_norm.<locals>.output", "affine.<locals>.rebuild",
                "attention.<locals>.context", "_kept.<locals>.<lambda>"} <= set(kinds)
        assert ("attention.<locals>.probabilities" in kinds) == (limit == 0)
        assert all(r.builds <= 1 for r in rebuilds) and any(r.builds for r in rebuilds)

    def test_large_attentions_rebuild_q_k_v_and_p_once_each(self, monkeypatch, rebuilds):
        """At the paper default, 16 windows give the social branch's four
        self-attentions 1 MiB probabilities.  One step rebuilds each of
        their q, k, v and p once, shared by the context rebuild and the
        vjp; every rebuild dies with the tape; the loss and every gradient
        keep the bytes of the kept path."""
        operands, attention = [], T.attention

        def recording_attention(*args):
            out = attention(*args)
            reads = closure(out._node.vjp)
            if hasattr(reads["pr"], "cache_info"):  # the probabilities are rebuilt
                operands.extend(rebuilds.of(reads[name]) for name in ("qr", "kr", "vr"))
            return out

        monkeypatch.setattr(T, "attention", recording_attention)
        samples = [make_sample(seed=s, t_h=8, t_f=12, n_neighbors=1) for s in range(60, 76)]

        def step():
            model = ReverbPredictor(ModelConfig(), seed=41)
            loss, _, _ = model.loss(model.encode(samples), model.zero_noise())
            T.backward(loss)
            return [loss.data.tobytes()] + [p.grad.tobytes() for _, p in model.store.items()]

        rebuilt = step()
        probs = [r for r in rebuilds if r.kind == "attention.<locals>.probabilities"]
        assert [r.builds for r in probs] == [1] * 4
        assert [r.builds for r in operands] == [1] * 12  # q, k and v of each
        assert all(r.builds <= 1 for r in rebuilds) and not any(r.alive() for r in rebuilds)
        monkeypatch.setattr(T, "_ATTENTION_REBUILD_BYTES", np.inf)
        assert step() == rebuilt

    def test_no_array_of_the_field_shape_is_made(self, monkeypatch):
        """The rehearsal is a contraction: no op output, vjp gradient or
        rebuild of a training step has the (B, K_g, fut_rows, d) shape of
        the reverberation field ``(G^T f_d)(f_d^T R)``."""
        forward, backward = [], []
        make = T._make

        def recording_make(data, parents, vjp, remat=None):
            def recording_vjp(g):
                grads = vjp(g)
                backward.extend(np.shape(x) for x in grads if x is not None)
                return grads

            def recording_remat():
                out = remat()
                backward.append(out.shape)
                return out

            forward.append(np.shape(data))
            return make(data, parents, recording_vjp, remat and recording_remat)

        monkeypatch.setattr(T, "_make", recording_make)
        cfg = toy_config()
        model = ReverbPredictor(cfg, seed=39)
        batch = model.encode([make_sample(seed=s, n_neighbors=s % 3) for s in (55, 56, 57)])
        loss, _, _ = model.loss(batch, model.zero_noise())
        T.backward(loss)
        field = (3, cfg.k_g, cfg.fut_rows, cfg.d)
        assert len(set(forward)) > 10 and len(set(backward)) > 10
        assert field not in forward and field not in backward

    def test_alpha_beta_train_through_social_branch_alone(self):
        model = ReverbPredictor(toy_config(use_non=False), seed=34)
        batch = model.encode([make_sample(seed=51, n_neighbors=1)])
        loss, _, _ = model.loss(batch, model.zero_noise())
        T.backward(loss)
        assert np.abs(model.store["enc.alpha.0.w"].grad).max() > 0
        assert np.abs(model.store["enc.beta.0.w"].grad).max() > 0


class TestBatching:
    def test_batched_forward_matches_single_sample(self):
        model = ReverbPredictor(toy_config(), seed=35)
        samples = [make_sample(seed=60 + i, n_neighbors=i) for i in range(3)]
        pred, info = run_forward(model, samples)
        for b, s in enumerate(samples):
            one, one_info = run_forward(model, [s])
            np.testing.assert_allclose(pred[b], one[0], atol=1e-9)
            for branch in ("non", "soc"):
                np.testing.assert_allclose(
                    info[f"delta_{branch}"].data[b], delta(one_info, branch), atol=1e-9
                )
            prepped = preprocess(s)
            y_lin = linear_fit(prepped.ego.values, 6).predicted
            np.testing.assert_allclose(
                pred[b], y_lin[None] + delta(one_info, "non") + delta(one_info, "soc"),
                atol=1e-9,
            )

    @pytest.mark.parametrize("kind,per_step", [("none", True), ("haar", True),
                                               ("db2", False), ("dft", False)])
    def test_encode_matches_per_sample_encode(self, kind, per_step):
        cfg = toy_config(transform=kind, per_step_partitions=per_step)
        model = ReverbPredictor(cfg, seed=38)
        samples = [make_sample(seed=80 + i, n_neighbors=n) for i, n in enumerate((2, 0, 3, 1))]
        batch = model.encode(samples)
        assert batch.pair_sample.tolist() == [0, 0, 2, 2, 2, 3]
        for b, s in enumerate(samples):
            one = model.encode([s])
            for name in ("spec_x", "spec_lin", "spec_res", "y_lin", "gt", "offsets"):
                assert getattr(batch, name)[b].tobytes() == getattr(one, name)[0].tobytes()
            pairs = np.flatnonzero(batch.pair_sample == b)
            assert batch.nbr_spec[pairs].tobytes() == one.nbr_spec.tobytes()
            assert one.pair_sample.tolist() == [0] * len(s.neighbors)
            np.testing.assert_array_equal(batch.pair_rows[pairs], one.pair_rows)
            assert one.pair_rows.shape == (len(s.neighbors), cfg.hist_rows)
            assert one.pair_rows.dtype == np.int64

    @pytest.mark.parametrize("kind,per_step", [("haar", True), ("dft", False)])
    def test_mixed_samples_encode_as_preprocessed_stacks(self, kind, per_step, monkeypatch):
        """Raw, already preprocessed and neighbour-less samples in one
        batch encode byte for byte as ``preprocess`` of each, stacked;
        ``encode`` itself never calls ``preprocess``."""
        model = ReverbPredictor(toy_config(transform=kind, per_step_partitions=per_step),
                                seed=39)
        samples = [make_sample(seed=100, n_neighbors=2),
                   preprocess(make_sample(seed=101, n_neighbors=3)),
                   make_sample(seed=102, n_neighbors=0),
                   preprocess(make_sample(seed=103, n_neighbors=0)),
                   make_sample(seed=104, n_neighbors=1)]
        want = oracles.encode_preprocessed(model, samples)

        def no_preprocess(sample):
            raise AssertionError("encode called preprocess")

        monkeypatch.setattr(reverb.model, "preprocess", no_preprocess)
        batch = model.encode(iter(samples))
        assert batch.pair_sample.tolist() == [0, 0, 1, 1, 1, 4]
        for name, value in want.items():
            got = getattr(batch, name)
            assert (got.shape, got.tobytes()) == (value.shape, value.tobytes()), name

    def test_subset_matches_fresh_encode(self):
        model = ReverbPredictor(toy_config(), seed=36)
        samples = [make_sample(seed=70 + i, n_neighbors=i % 3) for i in range(4)]
        batch = model.encode(samples)
        sub = batch.subset([2, 0])
        fresh = model.encode([samples[2], samples[0]])
        noise = model.zero_noise()
        with T.no_grad():
            a, _ = model.forward(sub, noise)
            b, _ = model.forward(fresh, noise)
        np.testing.assert_allclose(a.data, b.data, atol=1e-9)
        np.testing.assert_array_equal(sub.gt, fresh.gt)

    def test_subset_with_repeated_index_keeps_neighbours_in_every_copy(self):
        model = ReverbPredictor(toy_config(), seed=36)
        samples = [make_sample(seed=70 + i, n_neighbors=n) for i, n in enumerate((2, 0, 3))]
        batch = model.encode(samples)
        noise = model.zero_noise()
        for i in range(len(samples)):
            twice, once = batch.subset([i, i]), batch.subset([i])
            n = len(samples[i].neighbors)
            assert twice.pair_sample.tolist() == [0] * n + [1] * n
            assert twice.nbr_spec.tobytes() == once.nbr_spec.tobytes() * 2
            with T.no_grad():
                two, _ = model.forward(twice, noise)
                one, _ = model.forward(once, noise)
            assert two.data[0].tobytes() == two.data[1].tobytes()
            np.testing.assert_allclose(two.data[0], one.data[0], rtol=0, atol=1e-12)

    def test_permutation_subset_forward_is_byte_identical(self):
        model = ReverbPredictor(toy_config(), seed=36)
        samples = [make_sample(seed=90 + i, n_neighbors=n) for i, n in enumerate((2, 0, 3, 1, 1))]
        batch = model.encode(samples)
        perm = [3, 0, 4, 2, 1]
        sub = batch.subset(perm)
        assert sub.pair_sample.tolist() == [0, 1, 1, 2, 3, 3, 3]
        noise = model.zero_noise()
        with T.no_grad():
            whole, _ = model.forward(batch, noise)
            part, _ = model.forward(sub, noise)
        assert part.data.tobytes() == whole.data[perm].tobytes()

    def test_uniform_r_and_static_g_modes(self):
        cfg = toy_config(kernel_r=False, kernel_g=False)
        model = ReverbPredictor(cfg, seed=37)
        pred = model.predict([make_sample(seed=71)])[0]
        np.testing.assert_allclose(pred.kernels_non.r, 0.5, atol=1e-12)
        np.testing.assert_allclose(pred.kernels_soc.r, 1.0 / 8.0, atol=1e-12)
        np.testing.assert_array_equal(
            pred.kernels_non.g, np.tanh(model.store["non.static_g"].data)
        )
        assert np.all(np.isfinite(pred.values))


class TestPredict:
    @staticmethod
    def samples():
        out = [replace(make_sample(seed=110 + i, n_neighbors=n), agent_id=f"a{i}",
                       start_frame=float(i))
               for i, n in enumerate((2, 0, 1, 3))]
        out[1] = preprocess(out[1])
        return out

    @pytest.mark.parametrize("kernels", [{}, {"kernel_r": False, "kernel_g": False}])
    def test_outputs_are_forward_plus_offsets(self, kernels):
        """Each sample's values and ``y_lin`` are its rows of the forward
        plus its offset, and its kernel pairs are its slices of ``info``
        (the batch's one row when the kernel is shared)."""
        model = ReverbPredictor(toy_config(**kernels), seed=40)
        samples = self.samples()
        preds = model.predict(samples)
        batch = model.encode(samples)
        with T.no_grad():
            pred, info = model.forward(batch, model.zero_noise())
        assert len(preds) == len(samples)
        for b, (p, s) in enumerate(zip(preds, samples)):
            assert p.values.tobytes() == (pred.data[b] + batch.offsets[b]).tobytes()
            assert p.y_lin.tobytes() == (batch.y_lin[b] + batch.offsets[b]).tobytes()
            assert (p.scene_id, p.agent_id, p.start_frame) == (
                s.scene_id, s.agent_id, s.start_frame)
            for branch in ("non", "soc"):
                pair = getattr(p, f"kernels_{branch}")
                for k in ("r", "g"):
                    full = info[f"{k}_{branch}"].data
                    want = full[b] if full.shape[0] > 1 else full[0]
                    got = getattr(pair, k)
                    assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    def test_any_iterable_predicts_as_the_list(self):
        model = ReverbPredictor(toy_config(), seed=41)
        samples = self.samples()
        want = model.predict(samples)
        for given in (iter(samples), (s for s in samples), tuple(samples)):
            got = model.predict(given)
            assert [p.agent_id for p in got] == [p.agent_id for p in want]
            for p, q in zip(got, want):
                assert p.values.tobytes() == q.values.tobytes()
                assert p.y_lin.tobytes() == q.y_lin.tobytes()

    def test_no_samples_predict_no_forecasts(self):
        model = ReverbPredictor(toy_config(), seed=42)
        assert model.predict([]) == []
        assert model.predict(iter(()), rng=np.random.default_rng(0)) == []

    def test_encode_of_no_samples_is_a_shape_error(self):
        model = ReverbPredictor(toy_config(), seed=43)
        with pytest.raises(ShapeError, match="encode: no samples"):
            model.encode([])

    def test_batch_without_neighbours(self):
        """P = 0: no sample has a neighbour, yet the social branch runs."""
        model = ReverbPredictor(toy_config(), seed=44)
        samples = [make_sample(seed=110 + i, n_neighbors=0) for i in range(3)]
        batch = model.encode(samples)
        assert batch.pair_sample.shape == (0,)
        assert batch.nbr_spec.shape[0] == 0 and batch.pair_rows.shape[0] == 0
        together = model.predict(samples)
        for s, p in zip(samples, together):
            np.testing.assert_allclose(p.values, model.predict([s])[0].values, atol=1e-9)

    @pytest.mark.parametrize("bad,message", [
        ("gt", r"sample 1: gt window \(5, 2\), expected \(6, 2\)"),
        ("neighbor", r"sample 1: neighbor window \(3, 2\), expected \(4, 2\)"),
        ("first", r"sample 0: neighbor window \(4, 3\), expected \(4, 2\)"),
    ])
    def test_wrong_window_names_the_first_offender(self, bad, message):
        """Checked per stack, a wrong window is still named as the sample
        loop names it: the first sample, ego before gt before neighbours."""
        model = ReverbPredictor(toy_config(), seed=45)
        samples = [make_sample(seed=120 + i) for i in range(3)]
        if bad == "gt":
            samples[1] = replace(samples[1], gt=TimeSeq(np.zeros((5, 2)), 0.4))
        elif bad == "neighbor":
            samples[1] = replace(samples[1], neighbors=(TimeSeq(np.zeros((3, 2)), 0.4),))
        else:  # sample 0's neighbour and sample 1's ego are both wrong
            samples[0] = replace(samples[0], neighbors=(TimeSeq(np.zeros((4, 3)), 0.4),))
            samples[1] = replace(samples[1], ego=TimeSeq(np.zeros((6, 2)), 0.4))
        with pytest.raises(ShapeError, match=message):
            model.encode(samples)

    def test_encode_reads_each_window_once(self):
        """The intake's per-window Python work on a valid batch is one read
        of each window: the shapes are checked on the stacks."""
        reads = []

        class Seq:
            def __init__(self, seq):
                self._seq = seq

            @property
            def values(self):
                reads.append(id(self))
                return self._seq.values

        samples = [make_sample(seed=130 + i, n_neighbors=i) for i in range(4)]
        counted = [replace(s, ego=Seq(s.ego), gt=Seq(s.gt),
                           neighbors=tuple(Seq(v) for v in s.neighbors)) for s in samples]
        model = ReverbPredictor(toy_config(), seed=46)
        batch = model.encode(counted)
        assert len(reads) == len(set(reads)) == 2 * 4 + (0 + 1 + 2 + 3)
        assert batch.nbr_spec.tobytes() == model.encode(samples).nbr_spec.tobytes()


class TestClosedFormRehearsal:
    """``_rehearse`` uses G^T F_d R = (G^T f_d)(f_d^T R); the general-F
    kernel algebra in ``oracles`` is its reference."""

    @pytest.mark.parametrize("kernel_r,kernel_g", [(True, True), (True, False),
                                                   (False, True), (False, False)])
    @pytest.mark.parametrize("branch", ["non", "soc"])
    def test_matches_similarity_oracle(self, kernel_r, kernel_g, branch):
        cfg = toy_config(kernel_r=kernel_r, kernel_g=kernel_g)
        model = ReverbPredictor(cfg, seed=40)
        layers = model.branches[branch]
        rng = np.random.default_rng(41)
        f = T.Tensor(rng.normal(size=(3, layers.rows, cfg.d)))
        with T.no_grad():
            r, g = model._kernels(layers, f)
            got = model._rehearse(f, r, g, layers.decode).data
        # Uniform R is broadcast over the batch; static G has one stack entry.
        assert r.data.shape == (3, layers.rows, cfg.fut_rows)
        assert g.data.shape == ((3 if kernel_g else 1), layers.rows, cfg.k_g)
        inv = transforms.inverse_matrix(cfg.transform, cfg.t_f, cfg.m)
        for b in range(3):
            pair = ReverbKernelPair(r=r.data[b], g=g.data[b if kernel_g else 0])
            fld = oracles.reverberation_transform(oracles.sequential_similarity(f.data[b]), pair)
            spec = fld @ layers.decode.w.data + layers.decode.b.data
            want = (spec.reshape(cfg.k_g, -1) @ inv).reshape(cfg.k_g, cfg.t_f, cfg.m)
            np.testing.assert_allclose(got[b], want, rtol=1e-12)


def _sha256(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


class TestParameterStorePin:
    """Parameter names, their order and the seed-1 initial weights of the
    paper-default model are pinned: checkpoints and the init stream must
    not change when the model code is reorganised."""

    HEADS = ["enc.alpha.0.w", "enc.alpha.0.b", "enc.alpha.1.w", "enc.alpha.1.b",
             "enc.beta.0.w", "enc.beta.0.b", "enc.beta.1.w", "enc.beta.1.b",
             "non.proj.w", "non.proj.b", "non.value.w", "non.value.b",
             "non.decode.w", "non.decode.b", "non.head_r.w", "non.head_r.b",
             "non.head_g.w", "non.head_g.b",
             "soc.own.0.w", "soc.own.0.b", "soc.own.1.w", "soc.own.1.b",
             "soc.pair.0.w", "soc.pair.0.b", "soc.pair.1.w", "soc.pair.1.b",
             "soc.proj.w", "soc.proj.b", "soc.value.w", "soc.value.b",
             "soc.decode.w", "soc.decode.b", "soc.head_r.w", "soc.head_r.b",
             "soc.head_g.w", "soc.head_g.b"]

    @pytest.mark.parametrize("kernel_g,n_names,names_sha,weights_sha", [
        (True, 212,
         "ca338cac0e014c705b5837d9d271c1aed27bb707283d05a4038e5fb49d28ebfe",
         "c80de0e2323493e5a26459fe1ec80ce27b9d9be18a753d996478200fb0411764"),
        (False, 210,
         "11e6fa658de085312ab802a7fc64555050f4193f05f81e4e0bc4467119dae746",
         "d3de660ebe85f70fdc9b49c34ca8c2cc67d414ccadd42567b0691bcd2d7d0559"),
    ], ids=["learned_g", "static_g"])
    def test_names_and_seed_1_weights(self, kernel_g, n_names, names_sha, weights_sha):
        model = ReverbPredictor(ModelConfig(kernel_g=kernel_g), seed=1)
        names = model.store.names()
        heads = [n for n in names if not n.startswith(("non.tf.", "soc.tf."))]
        if kernel_g:
            assert heads == self.HEADS
        else:
            assert heads == [n.replace("head_g.w", "static_g") for n in self.HEADS
                             if not n.endswith("head_g.b")]
        assert len(names) == n_names
        assert _sha256(["\n".join(names).encode()]) == names_sha
        arrays = model.store.state_arrays()
        assert _sha256(a.tobytes() for a in arrays.values()) == weights_sha
