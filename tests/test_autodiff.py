"""Op-level gradient checks for the autodiff core."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from reverb.errors import ShapeError
from reverb.model import ReverbPredictor
from reverb.nn import tensor as T
from reverb.nn.gradcheck import grad_check
from reverb.nn.layers import Dense, ParameterStore
from test_model import make_sample, toy_config


def leaf(rng, shape, scale=1.0):
    return T.Tensor(rng.normal(scale=scale, size=shape), requires_grad=True)


def check(fn, named, tol=1e-6):
    report = grad_check(fn, named)
    assert report.max_rel_error <= tol, report.summary()


class TestScalarChain:
    def test_square_at_three(self):
        w = T.Tensor(3.0, requires_grad=True)
        out = w * w
        T.backward(out)
        assert_allclose(w.grad, 6.0, atol=1e-12)
        check(lambda: w * w, {"w": w})

    def test_shared_subexpression_accumulates(self):
        x = T.Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 5
        T.backward(T.sum_(y))
        assert_allclose(x.grad, [5.0], atol=1e-12)

    def test_backward_requires_scalar(self):
        x = T.Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ShapeError):
            T.backward(x + 1.0)

    @pytest.mark.parametrize("seed_shape", [(2,), (4,), (1, 2), (2, 3)],
                             ids=["2", "4", "1x2", "2x3"])
    def test_seed_of_another_shape_is_rejected_before_the_sweep(self, seed_shape):
        """(2,) and (1, 2) would broadcast into the gradients, and (4,)
        would fail inside a vjp after the sweep had begun."""
        x = T.Tensor(np.ones((3, 2)), requires_grad=True)
        out = T.mul(x, 2.0)
        with pytest.raises(ShapeError, match=r"seed of shape .* output of shape \(3, 2\)"):
            T.backward(out, seed=np.ones(seed_shape))
        assert x.grad is None and out.grad is None
        T.backward(out, seed=np.ones((3, 2)))  # the graph is still whole
        assert_allclose(x.grad, 2.0, atol=0)


class TestElementwise:
    def test_arithmetic_with_broadcasting(self):
        rng = np.random.default_rng(50)
        a = leaf(rng, (3, 4))
        b = leaf(rng, (4,))
        c = leaf(rng, (3, 1))
        fn = lambda: T.sum_((a + b) * c - b / (a * a + 2.0))
        check(fn, {"a": a, "b": b, "c": c})

    def test_unary_ops(self):
        rng = np.random.default_rng(51)
        x = leaf(rng, (5,))
        check(lambda: T.sum_(T.tanh(x) * T.exp(0.3 * x)), {"x": x})
        y = T.Tensor(rng.uniform(0.5, 2.0, size=4), requires_grad=True)
        check(lambda: T.sum_(T.sqrt(y)), {"y": y})

    def test_relu_gradient_mask(self):
        x = T.Tensor(np.array([-2.0, 3.0, -0.5, 1.5]), requires_grad=True)
        T.backward(T.sum_(T.relu(x)))
        assert_allclose(x.grad, [0.0, 1.0, 0.0, 1.0], atol=1e-12)

    def test_softmax(self):
        rng = np.random.default_rng(52)
        x = leaf(rng, (2, 5))
        w = T.Tensor(rng.normal(size=(2, 5)))
        check(lambda: T.sum_(T.softmax(x, axis=-1) * w), {"x": x})
        row_sums = T.softmax(x, axis=-1).data.sum(axis=-1)
        assert_allclose(row_sums, 1.0, atol=1e-12)


class TestMatmul:
    def test_plain_2d(self):
        rng = np.random.default_rng(53)
        a = leaf(rng, (3, 4))
        b = leaf(rng, (4, 2))
        check(lambda: T.sum_(T.matmul(a, b)), {"a": a, "b": b})

    def test_batched_with_stack_broadcast(self):
        rng = np.random.default_rng(54)
        a = leaf(rng, (2, 1, 3, 4))
        b = leaf(rng, (2, 5, 4, 2))
        out = T.matmul(a, b)
        assert out.shape == (2, 5, 3, 2)
        check(lambda: T.sum_(T.matmul(a, b) * T.matmul(a, b)), {"a": a, "b": b})

    def test_nd_times_2d(self):
        rng = np.random.default_rng(55)
        a = leaf(rng, (2, 3, 4))
        w = leaf(rng, (4, 6))
        check(lambda: T.sum_(T.tanh(T.matmul(a, w))), {"a": a, "w": w})

    @pytest.mark.parametrize("lead", [(5,), (3, 4)])
    def test_flat_weight_gradient_equals_per_slice_sum(self, lead):
        rng = np.random.default_rng(56)
        a = leaf(rng, lead + (6, 4))
        w = leaf(rng, (4, 3))
        g = rng.normal(size=lead + (6, 3))
        T.backward(T.matmul(a, w), seed=g)
        a_slices = a.data.reshape((-1, 6, 4))
        g_slices = g.reshape((-1, 6, 3))
        want = sum(a_b.T @ g_b for a_b, g_b in zip(a_slices, g_slices))
        assert_allclose(w.grad, want, rtol=1e-12, atol=0)
        assert_allclose(a.grad, g @ w.data.T, rtol=1e-12, atol=0)

    def test_dense_on_4d_input(self):
        rng = np.random.default_rng(57)
        store = ParameterStore(seed=57)
        layer = Dense(store, "dense", 4, 3, "tanh")
        x = leaf(rng, (2, 3, 5, 4))
        check(lambda: T.sum_(layer(x) * layer(x)),
              {"w": layer.w, "b": layer.b, "x": x})

    def test_vector_operands_rejected(self):
        with pytest.raises(ShapeError):
            T.matmul(T.Tensor(np.zeros(3)), T.Tensor(np.zeros((3, 2))))


class TestReductionsAndShapes:
    def test_sum_mean_axes(self):
        rng = np.random.default_rng(56)
        x = leaf(rng, (3, 4, 2))
        w1 = T.Tensor(rng.normal(size=(3, 2)))
        w2 = T.Tensor(rng.normal(size=(1, 4, 1)))

        def fn():
            a = T.sum_(T.mean_(x, axis=1) * w1)
            b = T.sum_(T.sum_(x, axis=(0, 2), keepdims=True) * w2)
            return a + b

        check(fn, {"x": x})

    def test_reshape_transpose_concat(self):
        rng = np.random.default_rng(57)
        x = leaf(rng, (2, 6))
        y = leaf(rng, (2, 3))

        def fn():
            xr = T.reshape(x, (2, 3, 2))
            xt = T.transpose(xr, (1, 0, 2))
            flat = T.reshape(xt, (3, 4))
            joined = T.concat([flat, T.transpose(y, (1, 0))], axis=1)
            return T.sum_(joined * joined)

        check(fn, {"x": x, "y": y})

    def test_getitem_slices(self):
        rng = np.random.default_rng(58)
        x = leaf(rng, (4, 5))
        check(lambda: T.sum_(x[1:3, ::2] * 2.0), {"x": x})

    @pytest.mark.parametrize("idx", [
        np.array([0, 0]), [0, 0], np.array([1, 2]), np.array([True, False, True, False]),
        True, (np.arange(2), 0), (slice(None), [1]), np.bool_(True),
    ], ids=["repeated", "list", "distinct", "mask", "bool", "pair", "list_in_tuple", "np_bool"])
    def test_getitem_rejects_array_list_and_bool_indices(self, idx):
        # x[[0, 0]]'s vjp z[idx] += g would add the repeated row once
        x = T.Tensor(np.arange(20.0).reshape(4, 5), requires_grad=True)
        with pytest.raises(ShapeError, match="index_select"):
            x[idx]

    def test_getitem_takes_basic_indices(self):
        rng = np.random.default_rng(62)
        x = leaf(rng, (4, 5))
        for idx in (np.int64(1), (1, slice(None)), (Ellipsis, 0), (None, 2), slice(4, None)):
            assert x[idx].data.tobytes() == x.data[idx].tobytes()
        check(lambda: T.sum_(x[np.int64(1)] * x[..., None, 0][2]), {"x": x})


class TestGatherScatter:
    def test_index_select_with_repeats(self):
        rng = np.random.default_rng(59)
        x = leaf(rng, (4, 3))
        idx = np.array([0, 2, 2, 1, 0])
        out = T.index_select(x, idx)
        assert_allclose(out.data, x.data[idx])
        check(lambda: T.sum_(T.index_select(x, idx) * T.index_select(x, idx)), {"x": x})

    def test_take_per_row(self):
        rng = np.random.default_rng(60)
        x = leaf(rng, (5, 3))
        idx = np.array([0, 2, 1, 1, 0])
        out = T.take_per_row(x, idx)
        assert_allclose(out.data, x.data[np.arange(5), idx])
        check(lambda: T.sum_(T.take_per_row(x, idx) * T.take_per_row(x, idx)), {"x": x})

    def test_segment_mean_values_and_grads(self):
        rng = np.random.default_rng(61)
        x = leaf(rng, (6, 2))
        ids = np.array([0, 0, 2, 2, 2, 3])
        out = T.segment_mean(x, ids, num_segments=5)
        assert_allclose(out.data[0], x.data[:2].mean(axis=0))
        assert_allclose(out.data[2], x.data[2:5].mean(axis=0))
        assert_allclose(out.data[1], 0.0)  # empty segment
        assert_allclose(out.data[4], 0.0)
        w = T.Tensor(rng.normal(size=(5, 2)))
        check(lambda: T.sum_(T.segment_mean(x, ids, 5) * w), {"x": x})


class TestScatterBytes:
    """``segment_mean`` and the ``index_select`` vjp add rows by id with
    ``np.bincount``; their bytes equal the ``np.add.at`` oracles'.  Ids
    repeat, segment 1 is empty, some values are -0.0 (added to the +0.0
    start they give +0.0) and magnitudes span 12 decades, so that a
    different order of addition changes the sums."""

    IDS = np.random.default_rng(64).choice([0, 2, 3, 4], size=40)

    @staticmethod
    def values(rng, shape):
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, size=shape)
        x[::3] = -0.0
        return x

    @pytest.mark.parametrize("tail", [(), (5,), (3, 4)])
    def test_segment_mean_forward_equals_add_at(self, tail):
        x = self.values(np.random.default_rng(62), (len(self.IDS),) + tail)
        out = T.segment_mean(T.Tensor(x), self.IDS, 5)
        assert out.data.tobytes() == oracles.segment_mean(x, self.IDS, 5).tobytes()
        assert not np.signbit(out.data[1]).any()

    @pytest.mark.parametrize("shape,axis", [((4, 5), 0), ((4, 3, 2), 0), ((2, 4, 3), 1)])
    def test_index_select_vjp_equals_add_at(self, shape, axis):
        rng = np.random.default_rng(63)
        x = T.Tensor(rng.normal(size=shape), requires_grad=True)
        idx = np.concatenate([[-1], self.IDS[self.IDS != 4]])  # -1 is row 3; row 1 is unread
        out = T.index_select(x, idx, axis=axis)
        w = self.values(rng, out.shape)
        T.backward(T.sum_(out * T.Tensor(w)))
        assert x.grad.tobytes() == oracles.index_select_vjp(shape, idx, w, axis).tobytes()


class TestCompositeBytes:
    """``neg``, ``sub``, ``relu``, ``mean_``, ``softmax`` and
    ``take_per_row`` are built from other tape ops.  Their forwards have
    the bytes of the numpy expressions they stand for, and their
    gradients those of the closed forms they replaced.  A leaf adds its
    gradient into zeros, so each closed form is added into zeros too."""

    values = staticmethod(TestScatterBytes.values)

    @staticmethod
    def grad(make, x, rng):
        """The leaf gradient of ``make(leaf)`` for a seed of ``values``."""
        leaf_x = T.Tensor(x, requires_grad=True)
        out = make(leaf_x)
        g = TestCompositeBytes.values(rng, (out.data.size,)).reshape(out.shape)
        T.backward(out, seed=g)
        return leaf_x.grad, g

    def test_elementwise_forwards(self):
        rng = np.random.default_rng(70)
        a, b = self.values(rng, (3, 4, 5)), self.values(rng, (4, 5))
        assert T.sub(T.Tensor(a), T.Tensor(b)).data.tobytes() == (a - b).tobytes()
        assert T.sub(T.Tensor(b), T.Tensor(a)).data.tobytes() == (b - a).tobytes()
        assert T.neg(T.Tensor(a)).data.tobytes() == (-a).tobytes()
        assert T.relu(T.Tensor(a)).data.tobytes() == (a * (a > 0)).tobytes()
        e = np.exp(a - a.max(axis=1, keepdims=True))
        want = e / e.sum(axis=1, keepdims=True)
        assert T.softmax(T.Tensor(a), axis=1).data.tobytes() == want.tobytes()

    def test_elementwise_gradients(self):
        rng = np.random.default_rng(71)
        a, b = self.values(rng, (3, 4, 5)), self.values(rng, (4, 5))
        ga, g = self.grad(lambda x: T.neg(x), a, rng)
        assert ga.tobytes() == (np.zeros(a.shape) + -g).tobytes()
        ga, g = self.grad(lambda x: T.relu(x), a, rng)
        assert ga.tobytes() == (np.zeros(a.shape) + g * (a > 0)).tobytes()
        # Each operand of ``sub`` in turn; the other is a broadcast constant.
        ga, g = self.grad(lambda x: T.sub(x, T.Tensor(b)), a, rng)
        assert ga.tobytes() == (np.zeros(a.shape) + g).tobytes()
        gb, g = self.grad(lambda y: T.sub(T.Tensor(a), y), b, rng)
        assert gb.tobytes() == (np.zeros(b.shape) + (-g).sum(axis=0)).tobytes()

    @pytest.mark.parametrize("axis", [None, 1, -1, (0, 2), (2, 0)])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_mean(self, axis, keepdims):
        rng = np.random.default_rng(72)
        a = self.values(rng, (3, 4, 5))
        want = a.mean(axis=axis, keepdims=keepdims)
        assert T.mean_(T.Tensor(a), axis, keepdims).data.tobytes() == want.tobytes()
        ga, g = self.grad(lambda x: T.mean_(x, axis, keepdims), a, rng)
        kept = a.mean(axis=axis, keepdims=True).shape
        count = a.size // int(np.prod(kept))
        closed = np.broadcast_to(g.reshape(kept) / count, a.shape)
        assert ga.tobytes() == (np.zeros(a.shape) + closed).tobytes()

    def test_take_per_row(self):
        rng = np.random.default_rng(73)
        a, idx = self.values(rng, (6, 4)), rng.integers(0, 4, size=6)
        rows = np.arange(6)
        assert T.take_per_row(T.Tensor(a), idx).data.tobytes() == a[rows, idx].tobytes()
        ga, g = self.grad(lambda x: T.take_per_row(x, idx), a, rng)
        one_hot = np.zeros(a.shape)
        np.add.at(one_hot, (rows, idx), g)
        assert ga.tobytes() == (np.zeros(a.shape) + one_hot).tobytes()
        with pytest.raises(ShapeError):
            T.take_per_row(T.Tensor(np.zeros((2, 3, 4))), idx[:2])

    def test_div_keeps_its_output_only_for_the_divisor_gradient(self):
        def kept_outputs(out):
            cells = [c.cell_contents for c in out._node.vjp.__closure__]
            return [v for v in cells if isinstance(v, np.ndarray) and v.shape == out.shape]

        x = T.Tensor(np.ones((3, 4)), requires_grad=True)
        assert kept_outputs(T.div(x, 2.0)) == []
        assert kept_outputs(T.div(x, T.Tensor(np.full(4, 2.0)))) == []
        assert kept_outputs(T.mean_(x, axis=1)) == []  # the node of its ``div``
        y = T.Tensor(np.full(4, 2.0), requires_grad=True)
        assert len(kept_outputs(T.div(x, y))) == 1


class TestGraphMechanics:
    def test_no_grad_builds_no_graph(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            y = x * 2.0
        assert not y.requires_grad and y._node is None

    def test_constants_do_not_require_grad(self):
        y = T.Tensor(np.ones(3)) * 2.0
        assert not y.requires_grad

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div, T.matmul])
    @pytest.mark.parametrize("const_slot", [0, 1])
    def test_constant_operand_gets_no_gradient(self, op, const_slot):
        rng = np.random.default_rng(58)
        operands = [T.Tensor(rng.uniform(1.0, 2.0, size=(2, 3, 3))) for _ in range(2)]
        operands[1 - const_slot].requires_grad = True
        const, var = operands[const_slot], operands[1 - const_slot]
        out = op(*operands)
        slots = out._node.vjp(np.ones(out.shape))
        assert slots[const_slot] is None
        assert slots[1 - const_slot].shape == var.shape
        T.backward(T.sum_(out))
        assert const.grad is None
        assert var.grad is not None

    def test_no_vjp_closes_over_a_tensor(self):
        model = ReverbPredictor(toy_config(), seed=36)
        batch = model.encode([make_sample(seed=52, n_neighbors=2)])
        loss, _, _ = model.loss(batch, model.zero_noise())
        seen, stack, cells = set(), [loss._node], 0
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(p for p in node.parents if isinstance(p, T._Node))
            fns = [node.vjp]  # and the helpers a vjp calls, such as attention's split
            while fns:
                for cell in fns.pop().__closure__ or ():
                    value = cell.cell_contents
                    items = value if isinstance(value, (list, tuple)) else (value,)
                    assert not any(isinstance(v, T.Tensor) for v in items), value
                    value = getattr(value, "__wrapped__", value)  # a cached rebuild's build
                    if callable(value) and hasattr(value, "__closure__"):
                        fns.append(value)
                    cells += 1
        assert len(seen) > 50 and cells > len(seen)

    def test_intermediate_grads_are_dropped(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        h = x * 3.0
        out = T.sum_(h)
        T.backward(out)
        assert h.grad is None
        assert_allclose(x.grad, 3.0)

    def test_two_backwards_accumulate_on_leaves(self):
        x = T.Tensor(np.ones(2), requires_grad=True)
        T.backward(T.sum_(x * 2.0))
        T.backward(T.sum_(x * 2.0))
        assert_allclose(x.grad, 4.0)

    def test_second_backward_on_the_same_root_raises(self):
        x = T.Tensor(np.ones(2), requires_grad=True)
        out = T.sum_(x * 2.0)
        T.backward(out)
        with pytest.raises(RuntimeError, match="earlier backward consumed"):
            T.backward(out)
        assert_allclose(x.grad, 2.0, atol=0)

    def test_new_graph_on_a_consumed_intermediate_raises(self):
        x = T.Tensor(np.ones(2), requires_grad=True)
        h = x * 2.0
        T.backward(T.sum_(h))
        with pytest.raises(RuntimeError, match="earlier backward consumed"):
            T.backward(T.sum_(h * 3.0))
        assert_allclose(x.grad, 2.0, atol=0)
        assert_allclose(h.data, 2.0, atol=0)

    def test_leaf_adds_in_place_without_touching_a_shared_vjp_array(self):
        # add's vjp hands the one seed array to both slots of x + x
        x = T.Tensor(np.ones(3), requires_grad=True)
        seed = np.array([1.0, 2.0, 3.0])
        T.backward(x + x, seed=seed)
        assert_allclose(seed, [1.0, 2.0, 3.0], atol=0)
        assert_allclose(x.grad, 2.0 * seed, atol=0)
        buffer = x.grad
        T.backward(x + x, seed=seed)
        assert x.grad is buffer
        assert_allclose(x.grad, 4.0 * seed, atol=0)

    def test_leaf_gradient_array_also_read_by_an_intermediate_node(self):
        # ``a`` and ``x`` receive the same array from the outer add; ``a``'s
        # vjp then hands that array on to ``x`` and ``h``, and ``h`` reads it
        # only after ``x`` has accumulated twice.
        x = T.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        h = x * 2.0
        a = x + h
        seed = np.array([0.5, 3.0])
        T.backward(a + x, seed=seed)
        assert_allclose(x.grad, 4.0 * seed, atol=0)
        assert_allclose(seed, [0.5, 3.0], atol=0)
        assert a.grad is None and h.grad is None

    def test_packed_parameter_gradient_stays_a_view_of_the_store(self):
        store = ParameterStore(seed=0)
        w = store.add("w", (2,), "ones")
        store.zero_grad()
        view = w.grad
        T.backward(T.sum_(w * w))
        T.backward(T.sum_(w + w))
        assert w.grad is view and np.shares_memory(w.grad, store.grads)
        assert_allclose(store.grads, 4.0, atol=0)
