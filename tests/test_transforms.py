"""Transform correctness: frozen hand examples, round trips, algebra."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from reverb import transforms
from reverb.errors import (
    ConfigError,
    DomainError,
    SequenceLengthError,
    ShapeError,
)

SQRT2 = np.sqrt(2.0)


def invert(spec, kind, t, m):
    """The ``(t, m)`` sequence of a spectrum, through ``inverse_matrix``."""
    return (np.ravel(spec) @ transforms.inverse_matrix(kind, t, m)).reshape(t, m)


class TestHaarExamples:
    def test_hand_computed_pairs(self):
        # pairs (1,1) and (3,5): averages 2/sqrt2, 8/sqrt2; differences 0, -2/sqrt2
        x = np.array([[1.0], [1.0], [3.0], [5.0]])
        out = transforms.forward_values(x, "haar")
        assert_allclose(
            out,
            [[1.41421356, 0.0], [5.65685425, -1.41421356]],
            atol=1e-5,
        )

    def test_constant_sequence_has_zero_details(self):
        c = 3.7
        x = np.full((6, 2), c)
        out = transforms.forward_values(x, "haar")
        assert_allclose(out[:, :2], c * SQRT2, atol=1e-12)
        assert_allclose(out[:, 2:], 0.0, atol=1e-12)

    def test_inverse_of_hand_spectrum(self):
        back = invert([[SQRT2, 0.0]], "haar", 2, 1)
        assert_allclose(back, [[1.0], [1.0]], atol=1e-12)

    def test_shape_contract(self):
        x = np.zeros((8, 2))
        assert transforms.forward_values(x, "haar").shape == (4, 4)
        assert transforms.spectrum_shape("haar", 8, 2) == (4, 4)


class TestIdentityKind:
    def test_forward_is_identity(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(9, 3))
        assert_allclose(transforms.forward_values(x, "none"), x)

    def test_inverse_is_identity(self):
        rng = np.random.default_rng(8)
        s = rng.normal(size=(5, 2))
        assert_allclose(invert(s, "none", 5, 2), s)


class TestDft:
    def test_constant_energy_only_in_dc(self):
        c = -2.5
        x = np.full((8, 1), c)
        out = transforms.forward_values(x, "dft")
        assert_allclose(out[0, 0], c * np.sqrt(8.0), atol=1e-12)
        rest = out.copy()
        rest[0, 0] = 0.0
        assert_allclose(rest, 0.0, atol=1e-12)

    def test_energy_preserved(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            t = 2 * rng.integers(1, 16)
            x = rng.normal(size=(t, 2))
            s = transforms.forward_values(x, "dft")
            assert_allclose(
                np.linalg.norm(s), np.linalg.norm(x), rtol=0, atol=1e-9
            )


class TestDb2:
    def test_round_trip_length_8(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(8, 2))
        back = invert(transforms.forward_values(x, "db2"), "db2", *x.shape)
        assert np.abs(back - x).max() <= 1e-6

    def test_vanishing_moment_on_affine_input(self):
        # a 4-tap wavelet with two vanishing moments annihilates straight lines
        t = np.arange(8, dtype=float)
        x = np.stack([2.0 + 0.5 * t, -1.0 - 3.0 * t], axis=1)
        out = transforms.forward_values(x, "db2")
        details = out[:, 2:]
        assert np.abs(details).max() <= 1e-9

    def test_minimum_length_pair(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 1))
        back = invert(transforms.forward_values(x, "db2"), "db2", *x.shape)
        assert_allclose(back, x, atol=1e-9)


class TestRoundTrip:
    @pytest.mark.parametrize("kind,tol", [("none", 1e-9), ("haar", 1e-9), ("dft", 1e-6), ("db2", 1e-6)])
    def test_random_sequences(self, kind, tol):
        rng = np.random.default_rng(42)
        for _ in range(200):
            t = 2 * int(rng.integers(1, 17))
            m = int(rng.integers(1, 4))
            x = rng.normal(scale=5.0, size=(t, m))
            back = invert(transforms.forward_values(x, kind), kind, t, m)
            assert np.abs(back - x).max() <= tol


class TestLinearity:
    @pytest.mark.parametrize("kind", ["haar", "dft", "db2", "none"])
    def test_forward_is_linear(self, kind):
        rng = np.random.default_rng(14)
        for _ in range(50):
            x = rng.normal(size=(8, 2))
            y = rng.normal(size=(8, 2))
            a, b = rng.normal(size=2)
            lhs = transforms.forward_values(a * x + b * y, kind)
            rhs = a * transforms.forward_values(x, kind) + b * transforms.forward_values(y, kind)
            assert np.abs(lhs - rhs).max() <= 1e-9

    def test_haar_preserves_energy(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(12, 3))
        s = transforms.forward_values(x, "haar")
        assert_allclose(np.linalg.norm(s), np.linalg.norm(x), atol=1e-9)


class TestInverseMatrix:
    @pytest.mark.parametrize("kind", transforms.KINDS)
    def test_matches_functional_inverse(self, kind):
        # W undoes forward_values: F @ W == I for the forward matrix F
        for t in range(2, 33, 2):
            for m in (1, 2, 3):
                big_t, big_m = transforms.spectrum_shape(kind, t, m)
                w = transforms.inverse_matrix(kind, t, m)
                assert w.shape == (big_t * big_m, t * m)
                assert not w.flags.writeable
                eye = np.eye(t * m)
                forward = transforms.forward_values(eye.reshape(-1, t, m), kind)
                err = np.abs(forward.reshape(t * m, -1) @ w - eye).max()
                assert err <= 1e-12, (t, m, err)


class TestErrors:
    def test_odd_length_rejected_for_paired_kinds(self):
        x = np.zeros((5, 2))
        for kind in ("haar", "db2", "dft"):
            with pytest.raises(SequenceLengthError):
                transforms.forward_values(x, kind)

    def test_too_short(self):
        with pytest.raises(SequenceLengthError):
            transforms.forward_values(np.zeros((1, 2)), "none")

    def test_nan_rejected(self):
        x = np.zeros((4, 2))
        x[1, 0] = np.nan
        with pytest.raises(DomainError):
            transforms.forward_values(x, "haar")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            transforms.forward_values(np.zeros((4, 2)), "haar2")

    def test_wrong_rank(self):
        with pytest.raises(ShapeError):
            transforms.forward_values(np.zeros(4), "haar")


class TestStacked:
    @pytest.mark.parametrize("kind", transforms.KINDS)
    def test_stack_equals_row_by_row(self, kind):
        rng = np.random.default_rng(12)
        for t in (2, 8, 12):
            x = rng.normal(scale=30.0, size=(3, 5, t, 2))
            out = transforms.forward_values(x, kind)
            assert out.shape == (3, 5) + transforms.spectrum_shape(kind, t, 2)
            for i in np.ndindex(3, 5):
                assert out[i].tobytes() == transforms.forward_values(x[i], kind).tobytes()

    def test_stack_keeps_the_checks(self):
        x = np.zeros((3, 4, 2))
        x[2, 1, 0] = np.inf
        with pytest.raises(DomainError):
            transforms.forward_values(x, "dft")
        with pytest.raises(SequenceLengthError):
            transforms.forward_values(np.zeros((3, 5, 2)), "db2")
        with pytest.raises(SequenceLengthError):
            transforms.forward_values(np.zeros((3, 1, 2)), "none")
