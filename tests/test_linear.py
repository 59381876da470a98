"""Affine reference-motion fit: frozen examples and algebraic properties."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from reverb.errors import DomainError, InsufficientDataError, ShapeError
from reverb.linear import linear_fit
from reverb.transforms import TimeSeq


def normal_equations_oracle(values, t_f):
    """Closed-form (A^T A)^-1 A^T X on the 1-based design, kept independent
    of the implementation under test."""
    t_h = values.shape[0]
    a_h = np.stack([np.ones(t_h), np.arange(1, t_h + 1, dtype=float)], axis=1)
    w = np.linalg.pinv(a_h.T @ a_h) @ (a_h.T @ values)
    a_f = np.stack(
        [np.ones(t_f), np.arange(t_h + 1, t_h + t_f + 1, dtype=float)], axis=1
    )
    return w, a_h @ w, a_f @ w


class TestExamples:
    def test_exactly_linear_input(self):
        x = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        fit = linear_fit(x, t_f=2)
        assert_allclose(fit.predicted, [[4.0, 8.0], [5.0, 10.0]], atol=1e-12)
        assert_allclose(fit.fitted, x, atol=1e-12)
        assert_allclose(x - fit.fitted, 0.0, atol=1e-12)

    def test_one_based_design_pins_the_weights(self):
        # values t-1 at times t = 1..3 give intercept -1, slope 1 in the
        # 1-based convention (a 0-based design would give intercept 0)
        x = np.array([[0.0], [1.0], [2.0]])
        fit = linear_fit(x, t_f=1)
        assert_allclose(fit.w_lin, [[-1.0], [1.0]], atol=1e-12)

    def test_alternating_sequence_slope(self):
        x = np.array([[0.0], [1.0], [0.0], [1.0]])
        fit = linear_fit(x, t_f=1)
        w, fitted, predicted = normal_equations_oracle(x, 1)
        assert_allclose(fit.w_lin, w, atol=1e-12)
        assert_allclose(fit.w_lin[1, 0], 0.2, atol=1e-12)
        assert_allclose(fit.fitted, fitted, atol=1e-12)
        assert_allclose(fit.predicted, predicted, atol=1e-12)

    def test_constant_trajectory(self):
        x = np.full((6, 2), 4.2)
        fit = linear_fit(x, t_f=3)
        assert_allclose(fit.w_lin[1], 0.0, atol=1e-12)
        assert_allclose(fit.predicted, 4.2, atol=1e-12)


class TestProperties:
    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            t_h = int(rng.integers(2, 12))
            t_f = int(rng.integers(1, 12))
            m = int(rng.integers(1, 4))
            x = rng.normal(scale=3.0, size=(t_h, m))
            fit = linear_fit(x, t_f)
            w, fitted, predicted = normal_equations_oracle(x, t_f)
            assert_allclose(fit.w_lin, w, atol=1e-9)
            assert_allclose(fit.fitted, fitted, atol=1e-9)
            assert_allclose(fit.predicted, predicted, atol=1e-9)

    def test_residual_orthogonal_to_design(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(8, 2))
        fit = linear_fit(x, t_f=4)
        a_h = np.stack([np.ones(8), np.arange(1, 9, dtype=float)], axis=1)
        assert np.abs(a_h.T @ (x - fit.fitted)).max() <= 1e-9

    def test_idempotence(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(8, 2))
        fit = linear_fit(x, t_f=4)
        refit = linear_fit(fit.fitted, t_f=4)
        assert_allclose(refit.w_lin, fit.w_lin, atol=1e-9)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(6, 2))
        c = np.array([10.0, -3.0])
        fit = linear_fit(x, t_f=5)
        fit_shifted = linear_fit(x + c, t_f=5)
        assert_allclose(fit_shifted.w_lin[1], fit.w_lin[1], atol=1e-9)
        assert_allclose(fit_shifted.fitted, fit.fitted + c, atol=1e-9)
        assert_allclose(fit_shifted.predicted, fit.predicted + c, atol=1e-9)

    def test_timeseq_input_accepted(self):
        seq = TimeSeq(np.array([[0.0], [1.0]]), dt=0.4)
        fit = linear_fit(seq, t_f=2)
        assert_allclose(fit.predicted, [[2.0], [3.0]], atol=1e-12)


class TestErrors:
    def test_single_step_rejected(self):
        with pytest.raises(InsufficientDataError):
            linear_fit(np.zeros((1, 2)), t_f=2)

    def test_nan_rejected(self):
        x = np.zeros((4, 2))
        x[0, 0] = np.nan
        with pytest.raises(DomainError):
            linear_fit(x, t_f=2)

    def test_zero_horizon_rejected(self):
        with pytest.raises(ShapeError):
            linear_fit(np.zeros((4, 2)), t_f=0)


class TestStacked:
    def test_stack_equals_row_by_row(self):
        rng = np.random.default_rng(13)
        x = rng.normal(scale=20.0, size=(4, 3, 8, 2))
        fit = linear_fit(x, t_f=12)
        assert fit.w_lin.shape == (4, 3, 2, 2)
        assert fit.predicted.shape == (4, 3, 12, 2)
        for i in np.ndindex(4, 3):
            one = linear_fit(x[i], t_f=12)
            assert fit.w_lin[i].tobytes() == one.w_lin.tobytes()
            assert fit.fitted[i].tobytes() == one.fitted.tobytes()
            assert fit.predicted[i].tobytes() == one.predicted.tobytes()

    def test_condition_checked_once_per_call(self, monkeypatch):
        calls = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda a: calls.append(a) or cond(a))
        linear_fit(np.zeros((50, 8, 2)), t_f=2)
        assert len(calls) == 1

    def test_stack_keeps_the_checks(self):
        x = np.zeros((3, 4, 2))
        x[1, 2, 1] = np.nan
        with pytest.raises(DomainError):
            linear_fit(x, t_f=2)
        with pytest.raises(InsufficientDataError):
            linear_fit(np.zeros((3, 1, 2)), t_f=2)
        with pytest.raises(ShapeError):
            linear_fit(np.zeros(4), t_f=2)
