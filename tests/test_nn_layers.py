"""Dense/MLP/LayerNorm behaviour and the parameter store."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from reverb.errors import ConfigError, TrainingError
from reverb.nn import tensor as T
from reverb.nn.gradcheck import grad_check
from reverb.nn.layers import MLP, Dense, LayerNorm, ParameterStore
from reverb.nn.optim import Adam


class TestDense:
    def test_identity_initialized_layer_is_identity(self):
        store = ParameterStore(seed=0)
        layer = Dense(store, "lin", 3, 3)
        layer.w.data = np.eye(3)
        x = T.Tensor(np.arange(6, dtype=float).reshape(2, 3))
        assert_allclose(layer(x).data, x.data, atol=1e-15)

    def test_relu_of_negative_is_zero(self):
        layer = Dense(ParameterStore(seed=0), "lin", 1, 1, activation="relu")
        layer.w.data = np.eye(1)
        out = layer(T.Tensor(np.array([-1.0])))
        assert out.data[0] == 0.0

    def test_weight_gradient_closed_form(self):
        # d/dW of ||W x||^2 / 2 is (W x) x^T
        rng = np.random.default_rng(70)
        w = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x = T.Tensor(rng.normal(size=(3, 1)))
        y = T.matmul(w, x)
        T.backward(T.sum_(y * y) * 0.5)
        assert_allclose(w.grad, y.data @ x.data.T, atol=1e-12)
        report = grad_check(lambda: T.sum_(T.matmul(w, x) * T.matmul(w, x)) * 0.5, {"w": w})
        assert report.max_rel_error <= 1e-4

    def test_bias_starts_at_zero_and_xavier_is_bounded(self):
        store = ParameterStore(seed=1)
        layer = Dense(store, "lin", 10, 20)
        assert_allclose(layer.b.data, 0.0)
        limit = np.sqrt(6.0 / 30.0)
        assert np.abs(layer.w.data).max() <= limit


class TestMLP:
    def test_gradcheck_two_layer_tanh(self):
        rng = np.random.default_rng(71)
        store = ParameterStore(seed=2)
        mlp = MLP(store, "emb", [4, 8, 8], activation="tanh")
        x = T.Tensor(rng.normal(size=(5, 4)))
        report = grad_check(lambda: T.sum_(mlp(x) * mlp(x)), store)
        assert report.max_rel_error <= 1e-5, report.summary()

    def test_layer_count(self):
        store = ParameterStore(seed=3)
        mlp = MLP(store, "emb", [4, 8, 8])
        assert len(mlp.layers) == 2
        with pytest.raises(ConfigError):
            MLP(store, "bad", [4])


class TestLayerNorm:
    def test_normalizes_last_axis(self):
        rng = np.random.default_rng(72)
        store = ParameterStore(seed=4)
        ln = LayerNorm(store, "ln", 16)
        x = T.Tensor(rng.normal(loc=3.0, scale=5.0, size=(4, 16)))
        out = ln(x).data
        assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_gradcheck(self):
        rng = np.random.default_rng(73)
        store = ParameterStore(seed=5)
        ln = LayerNorm(store, "ln", 6)
        x = T.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        named = dict(store.items())
        named["x"] = x
        w = T.Tensor(rng.normal(size=(3, 6)))
        report = grad_check(lambda: T.sum_(ln(x) * w), named)
        assert report.max_rel_error <= 1e-5, report.summary()


class TestParameterStore:
    def test_seeded_init_is_reproducible(self):
        a = ParameterStore(seed=9)
        b = ParameterStore(seed=9)
        Dense(a, "l", 4, 4)
        Dense(b, "l", 4, 4)
        assert_allclose(a["l.w"].data, b["l.w"].data, atol=0)

    def test_duplicate_names_rejected(self):
        store = ParameterStore(seed=0)
        store.add("p", (2, 2))
        with pytest.raises(ConfigError):
            store.add("p", (2, 2))

    def test_load_arrays_reports_dimension_diff(self):
        store = ParameterStore(seed=0)
        store.add("w", (2, 3))
        with pytest.raises(ConfigError, match=r"\(4, 3\).*\(2, 3\)"):
            store.load_arrays({"w": np.zeros((4, 3))})
        with pytest.raises(ConfigError, match="missing"):
            store.load_arrays({})
        with pytest.raises(ConfigError, match="unexpected"):
            store.load_arrays({"w": np.zeros((2, 3)), "extra": np.zeros(1)})

    def test_packing_makes_every_tensor_a_view_of_the_flat_vectors(self):
        store = ParameterStore(seed=0)
        Dense(store, "a", 3, 2)
        LayerNorm(store, "ln", 2)
        before = {name: p.data.copy() for name, p in store.items()}
        Adam(store)
        assert store.values.size == store.grads.size == 3 * 2 + 2 + 2 + 2
        assert_array_equal(store.values,
                           np.concatenate([a.ravel() for a in before.values()]))
        assert_array_equal(store.grads, 0.0)
        for name, p in store.items():
            assert_array_equal(p.data, before[name])
            assert np.shares_memory(p.data, store.values), name
            assert np.shares_memory(p.grad, store.grads), name
        store.grads[:] = 1.0
        assert all((p.grad == 1.0).all() for _, p in store.items())
        store.zero_grad()
        assert all((p.grad == 0.0).all() for _, p in store.items())

    def test_add_after_packing_raises(self):
        store = ParameterStore(seed=0)
        store.add("w", (2, 3))
        store.zero_grad()
        with pytest.raises(ConfigError, match="packed"):
            store.add("late", (2,))
        assert store.names() == ["w"]

    def test_load_arrays_writes_in_place_and_keeps_the_views(self):
        store = ParameterStore(seed=0)
        w = store.add("w", (2, 3))
        b = store.add("b", (3,), "zeros")
        Adam(store)
        values = store.values
        store.load_arrays({"w": np.full((2, 3), 2.0), "b": [1.0, 2.0, 3.0]})
        assert store.values is values
        assert np.shares_memory(w.data, values) and np.shares_memory(b.data, values)
        assert_array_equal(values, [2.0] * 6 + [1.0, 2.0, 3.0])
        assert np.shares_memory(store.state_arrays()["w"], values)  # views, not copies
        state = store.state_arrays(np.arange(9.0), prefix="x.")
        assert_array_equal(state["x.b"], [6.0, 7.0, 8.0])

    def test_check_finite_on_the_gradient_vector_names_the_offender(self):
        store = ParameterStore(seed=0)
        store.add("a", (2,), "zeros")
        b = store.add("b.w", (2, 2))
        store.zero_grad()
        store.check_finite("gradient of", store.grads)
        b.grad[1, 0] = np.inf
        with pytest.raises(TrainingError, match="gradient of 'b.w'"):
            store.check_finite("gradient of", store.grads)

    def test_check_finite_names_the_offender(self):
        store = ParameterStore(seed=0)
        p = store.add("bad.w", (2, 2))
        p.data[0, 0] = np.nan
        with pytest.raises(TrainingError, match="bad.w"):
            store.check_finite()
