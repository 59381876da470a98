import numpy as np
import pytest

from reverb.errors import ShapeError
from reverb.metrics import min_ade_fde, stat_ade_fde


def loop_oracle(preds, gt):
    """Straightforward per-element reimplementation for cross-checking."""
    ades, fdes = [], []
    for row in preds:
        dists = [float(np.hypot(*(p - q))) for p, q in zip(row, gt)]
        ades.append(sum(dists) / len(dists))
        fdes.append(dists[-1])
    k = len(ades)
    mean_a = sum(ades) / k
    mean_f = sum(fdes) / k
    var_a = sum((a - mean_a) ** 2 for a in ades) / k
    var_f = sum((f - mean_f) ** 2 for f in fdes) / k
    return min(ades), min(fdes), mean_a, var_a ** 0.5, mean_f, var_f ** 0.5


class TestMinAdeFde:
    def test_perfect_prediction(self):
        gt = np.random.default_rng(0).normal(size=(6, 2))
        preds = np.stack([gt + 4.0, gt])
        assert min_ade_fde(preds, gt) == (0.0, 0.0)

    def test_constant_offsets(self):
        gt = np.zeros((5, 2))
        preds = np.stack([
            gt + np.array([1.0, 0.0]),
            gt + np.array([2.0, 0.0]),
        ])
        ade, fde = min_ade_fde(preds, gt)
        assert ade == pytest.approx(1.0)
        assert fde == pytest.approx(1.0)

    def test_hand_case_three_and_one(self):
        gt = np.zeros((6, 2))
        preds = np.stack([
            gt + np.array([3.0, 0.0]),
            gt + np.array([1.0, 0.0]),
        ])
        assert min_ade_fde(preds, gt)[0] == pytest.approx(1.0)

    def test_minima_are_independent(self):
        gt = np.zeros((4, 2))
        # Row 0: tiny average error but a bad final step.
        row0 = np.zeros((4, 2))
        row0[-1, 0] = 4.0
        # Row 1: large running error, good final step.
        row1 = np.zeros((4, 2))
        row1[:, 0] = 1.5
        row1[-1, 0] = 0.1
        ade, fde = min_ade_fde(np.stack([row0, row1]), gt)
        assert ade == pytest.approx(1.0)   # from row 0
        assert fde == pytest.approx(0.1)   # from row 1

    def test_extra_row_never_hurts(self):
        rng = np.random.default_rng(1)
        gt = rng.normal(size=(6, 2))
        preds = rng.normal(size=(5, 6, 2))
        extra = np.concatenate([preds, rng.normal(size=(1, 6, 2))])
        a1, f1 = min_ade_fde(preds, gt)
        a2, f2 = min_ade_fde(extra, gt)
        assert a2 <= a1 and f2 <= f1

    def test_monotone_in_generations(self):
        rng = np.random.default_rng(31)
        gt = rng.normal(size=(6, 2))
        preds = rng.normal(size=(8, 6, 2))
        ades = [min_ade_fde(preds[:k], gt)[0] for k in range(1, 9)]
        assert all(a >= b for a, b in zip(ades, ades[1:]))

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            min_ade_fde(np.zeros((2, 5, 2)), np.zeros((6, 2)))
        with pytest.raises(ShapeError):
            min_ade_fde(np.zeros((0, 6, 2)), np.zeros((6, 2)))


class TestStatAdeFde:
    def test_identical_rows_zero_std(self):
        gt = np.zeros((5, 2))
        row = np.random.default_rng(2).normal(size=(5, 2))
        preds = np.stack([row, row, row])
        mean_a, std_a, mean_f, std_f = stat_ade_fde(preds, gt)
        assert std_a == 0.0 and std_f == 0.0
        assert mean_a == pytest.approx(np.linalg.norm(row, axis=1).mean())

    def test_two_point_case(self):
        gt = np.zeros((3, 2))
        preds = np.stack([
            gt + np.array([1.0, 0.0]),
            gt + np.array([3.0, 0.0]),
        ])
        mean_a, std_a, mean_f, std_f = stat_ade_fde(preds, gt)
        assert mean_a == pytest.approx(2.0)
        assert std_a == pytest.approx(1.0)
        assert mean_f == pytest.approx(2.0)
        assert std_f == pytest.approx(1.0)

    def test_mean_at_least_min(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            gt = rng.normal(size=(4, 2))
            preds = rng.normal(size=(6, 4, 2))
            ade, fde = min_ade_fde(preds, gt)
            mean_a, _, mean_f, _ = stat_ade_fde(preds, gt)
            assert mean_a >= ade and mean_f >= fde


class TestOracleEquivalence:
    def test_hundred_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            k = int(rng.integers(1, 7))
            t_f = int(rng.integers(2, 9))
            gt = rng.normal(size=(t_f, 2))
            preds = rng.normal(scale=2.0, size=(k, t_f, 2))
            want = loop_oracle(preds, gt)
            ade, fde = min_ade_fde(preds, gt)
            mean_a, std_a, mean_f, std_f = stat_ade_fde(preds, gt)
            got = (ade, fde, mean_a, std_a, mean_f, std_f)
            np.testing.assert_allclose(got, want, atol=1e-12)
