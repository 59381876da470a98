from types import SimpleNamespace

import numpy as np
import pytest

from reverb.curves import (
    BASELINE_LABELS,
    average_curves,
    branch_curves,
    curve_labels,
    write_curves_csv,
)
from reverb.errors import InsufficientDataError, ShapeError
from reverb.model import PREDICT_CHUNK, ReverbKernelPair, ReverbPredictor


def brute_force_non(r):
    """r(t|t_p) per the defining ratio, one scalar at a time."""
    t_h, t_f = r.shape
    out = np.zeros_like(r)
    degenerate = np.zeros(t_f, dtype=bool)
    for t in range(t_f):
        denom = sum(r[x, t] ** 2 for x in range(t_h))
        if denom == 0.0:
            out[:, t] = 1.0 / t_h
            degenerate[t] = True
        else:
            for t_p in range(t_h):
                out[t_p, t] = r[t_p, t] ** 2 / denom
    return out, degenerate


def plain(r):
    """The (T_h, T_f) plain curves of one kernel and their flags."""
    values, degenerate = branch_curves(r)
    return values[0, 0], degenerate[0, 0]


def altered(r, g, k):
    values, degenerate = branch_curves(r, g, [k])
    return values[0, 1], degenerate[0, 1]


def non_labels(t_h):
    return [("non", None, None, t_p) for t_p in range(1, t_h + 1)]


class TestCurveNon:
    def test_uniform_kernel_quarter(self):
        values, degenerate = plain(np.full((4, 6), 0.7))
        assert values.shape == (4, 6) and degenerate.shape == (6,)
        np.testing.assert_allclose(values, 0.25, atol=1e-15)
        assert not degenerate.any()

    def test_single_source_column(self):
        r = np.zeros((4, 3))
        r[0, 1] = 2.0
        r[:, 0] = 1.0
        r[:, 2] = 1.0
        values, degenerate = plain(r)
        np.testing.assert_allclose(values[:, 1], [1.0, 0.0, 0.0, 0.0])
        assert not degenerate[1]

    def test_zero_column_goes_uniform_with_flag(self):
        r = np.ones((4, 3))
        r[:, 2] = 0.0
        values, degenerate = plain(r)
        assert degenerate.tolist() == [False, False, True]
        np.testing.assert_allclose(values[:, 2], 0.25)
        np.testing.assert_allclose(values[:, 0], 0.25)

    def test_brute_force_match(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            r = rng.normal(size=(rng.integers(2, 6), rng.integers(2, 7)))
            values, degenerate = plain(r)
            want, want_deg = brute_force_non(r)
            np.testing.assert_allclose(values, want, atol=1e-12)
            np.testing.assert_array_equal(degenerate, want_deg)

    def test_normalization(self):
        rng = np.random.default_rng(1)
        values, _ = plain(rng.normal(size=(5, 7)))
        np.testing.assert_allclose(values.sum(axis=0), 1.0, atol=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        r = rng.normal(size=(4, 6))
        base, _ = plain(r)
        doubled, _ = plain(2.0 * r)
        np.testing.assert_array_equal(base, doubled)
        scaled, _ = plain(-3.7 * r)
        np.testing.assert_allclose(base, scaled, atol=1e-12)

    def test_rejects_bad_rank(self):
        with pytest.raises(ShapeError):
            branch_curves(np.zeros(4))
        with pytest.raises(ShapeError):
            branch_curves(np.zeros((4, 3)), np.zeros(4))

    def test_stack_equals_each_window(self):
        rng = np.random.default_rng(13)
        r = rng.normal(size=(5, 3, 4))
        r[2, :, 1] = 0.0
        values, degenerate = branch_curves(r)
        for i in range(5):
            want, want_deg = plain(r[i])
            np.testing.assert_array_equal(values[i, 0, 0], want)
            np.testing.assert_array_equal(degenerate[i, 0, 0], want_deg)


class TestCurveNonAltered:
    def test_all_ones_column_reduces_to_original(self):
        rng = np.random.default_rng(3)
        r = rng.normal(size=(4, 6))
        base, _ = plain(r)
        values, _ = altered(r, np.ones((4, 2)), 1)
        np.testing.assert_array_equal(base, values)

    def test_one_hot_column_concentrates(self):
        rng = np.random.default_rng(4)
        r = rng.normal(size=(4, 6))
        r[0, :] = 1.5  # keep the surviving row nonzero everywhere
        g = np.zeros((4, 3))
        g[0, 1] = 1.0
        values, degenerate = altered(r, g, 2)
        assert not degenerate.any()
        np.testing.assert_allclose(values[0], 1.0, atol=1e-12)
        np.testing.assert_allclose(values[1:], 0.0, atol=1e-12)

    def test_brute_force_match(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            t_h, t_f, k_g = rng.integers(2, 6), rng.integers(2, 6), rng.integers(1, 5)
            r = rng.normal(size=(t_h, t_f))
            g = rng.normal(size=(t_h, k_g))
            k = int(rng.integers(1, k_g + 1))
            values, degenerate = altered(r, g, k)
            want, want_deg = brute_force_non(r * g[:, k - 1][:, None])
            np.testing.assert_allclose(values, want, atol=1e-12)
            np.testing.assert_array_equal(degenerate, want_deg)

    def test_generation_bounds(self):
        rng = np.random.default_rng(14)
        r = np.ones((3, 4))
        g = rng.normal(size=(3, 2))
        with pytest.raises(ShapeError, match="generation 0 outside 1..2"):
            branch_curves(r, g, [0])
        with pytest.raises(ShapeError, match="generation 3 outside 1..2"):
            branch_curves(r, g, [3])
        values, _ = altered(r, g, 2)
        np.testing.assert_array_equal(values, plain(r * g[:, [1]])[0])


class TestCurveSoc:
    def test_blocks_match_plain_curves(self):
        rng = np.random.default_rng(6)
        n_theta, t_h, t_f = 4, 3, 5
        r_soc = rng.normal(size=(n_theta * t_h, t_f))
        values, _ = branch_curves(r_soc, partitions=n_theta)
        for n in range(1, n_theta + 1):
            block = r_soc[(n - 1) * t_h : n * t_h]
            np.testing.assert_array_equal(values[n - 1, 0], plain(block)[0])

    def test_labels(self):
        config = SimpleNamespace(use_non=False, use_soc=True, n_theta=4,
                                 hist_rows=2, k_g=1)
        labels = curve_labels(config, [1])
        assert labels[8:10] == [("soc", 3, None, 1), ("soc", 3, None, 2)]
        values, _ = branch_curves(np.ones((8, 5)), partitions=4)
        np.testing.assert_allclose(values[2, 0], 0.5)

    def test_altered_ones_column(self):
        rng = np.random.default_rng(7)
        r_soc = rng.normal(size=(8, 5))
        values, _ = branch_curves(r_soc, np.ones((8, 3)), [1], partitions=4)
        np.testing.assert_array_equal(values[1, 0], values[1, 1])

    def test_bad_partition_rejected(self):
        with pytest.raises(ShapeError):
            branch_curves(np.ones((8, 5)), partitions=0)
        with pytest.raises(ShapeError):
            branch_curves(np.ones((7, 5)), partitions=4)


class KernelModel:
    """Stands in for a model: each sample is the R kernel its prediction
    carries on the non branch, with an all-ones G of one generation."""

    def __init__(self, t_h, t_f, chunk=2):
        self.config = SimpleNamespace(use_non=True, use_soc=False, n_theta=1,
                                      hist_rows=t_h, fut_rows=t_f, k_g=1)
        self.chunk = chunk

    def predict_chunks(self, samples):
        for start in range(0, len(samples), self.chunk):
            yield [SimpleNamespace(kernels_non=ReverbKernelPair(r, np.ones((len(r), 1))))
                   for r in samples[start:start + self.chunk]]


def average_plain(kernels):
    """Mean plain curves (rows 0..T_h-1 of average_curves) and flags."""
    labels, values, degenerate = average_curves(KernelModel(*kernels[0].shape), kernels)
    t_h = kernels[0].shape[0]
    assert labels[:t_h] == non_labels(t_h)
    return values[:t_h], degenerate[:t_h]


class TestAveraging:
    def test_single_agent_identity(self):
        rng = np.random.default_rng(8)
        r = rng.normal(size=(4, 6))
        values, _ = average_plain([r])
        np.testing.assert_array_equal(values, plain(r)[0])

    def test_three_agent_hand_average(self):
        rng = np.random.default_rng(9)
        kernels = [rng.normal(size=(4, 6)) for _ in range(3)]
        values, _ = average_plain(kernels)
        want = sum(plain(r)[0] for r in kernels) / 3.0
        np.testing.assert_allclose(values, want, atol=1e-12)

    def test_average_preserves_normalization(self):
        rng = np.random.default_rng(10)
        values, _ = average_plain([rng.normal(size=(4, 6)) for _ in range(5)])
        np.testing.assert_allclose(values.sum(axis=0), 1.0, atol=1e-9)

    def test_degenerate_flag_propagates(self):
        sick = np.ones((3, 2))
        sick[:, 1] = 0.0
        _, degenerate = average_plain([np.ones((3, 2)), sick])
        assert degenerate[0].tolist() == [False, True]

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            average_curves(KernelModel(3, 2), [])


def window_rows(pred, generations, n_theta):
    """One prediction's (C, T_f) curves, family by family."""
    non, _ = branch_curves(pred.kernels_non.r, pred.kernels_non.g, generations)
    soc, _ = branch_curves(pred.kernels_soc.r, pred.kernels_soc.g, generations, n_theta)
    return np.concatenate([non.reshape(-1, non.shape[-1]), soc.reshape(-1, soc.shape[-1])])


class TestModelIntegration:
    def make_model_and_samples(self, n=3):
        from test_model import make_sample, toy_config

        model = ReverbPredictor(toy_config(), seed=0)
        samples = [make_sample(seed=s, n_neighbors=1) for s in range(1, n + 1)]
        return model, samples

    def test_average_curves_over_split(self):
        model, samples = self.make_model_and_samples()
        labels, values, _ = average_curves(model, samples)
        per_window = [window_rows(p, [1, 2, 3, 4], 4) for p in model.predict(samples)]
        assert values.shape == (len(labels), 3)
        np.testing.assert_allclose(values, np.mean(per_window, axis=0), atol=1e-12)

    def test_average_over_several_chunks_is_the_mean_of_windows(self):
        model, samples = self.make_model_and_samples(PREDICT_CHUNK + 44)
        _, values, degenerate = average_curves(model, samples, generations=[2, 4])
        preds = [p for chunk in model.predict_chunks(samples) for p in chunk]
        per_window = np.stack([window_rows(p, [2, 4], 4) for p in preds])
        assert values.tobytes() == np.mean(per_window, axis=0).tobytes()
        assert not degenerate.any()

    def test_families_present(self):
        model, samples = self.make_model_and_samples()
        labels = curve_labels(model.config)
        kinds = [kind for kind, *_ in labels]
        assert set(kinds) == {"non", "non_altered", "soc", "soc_altered"}
        # 2 hist rows; 4 generations; 4 partitions.
        assert kinds.count("non") == 2
        assert kinds.count("non_altered") == 8
        assert kinds.count("soc") == 8
        assert kinds.count("soc_altered") == 32
        assert average_curves(model, samples[:1])[1].shape == (50, 3)

    def test_empty_split_rejected(self):
        model, _ = self.make_model_and_samples()
        with pytest.raises(InsufficientDataError):
            average_curves(model, [])


class TestCsvExport:
    def test_layout_and_metadata(self, tmp_path):
        rng = np.random.default_rng(11)
        values, degenerate = plain(rng.normal(size=(4, 6)))
        blocks = [("a1", non_labels(4), values, np.broadcast_to(degenerate, (4, 6))),
                  ("", BASELINE_LABELS, np.full((1, 6), 0.25), np.zeros((1, 6), dtype=bool))]
        path = tmp_path / "curves.csv"
        write_curves_csv(path, iter(blocks), 5, config_hash="abc123def456", seed=7)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "# config_hash=abc123def456 seed=7"
        assert lines[1] == "kind,agent,partition,generation,t_p,t,value,degenerate"
        rows = [l.split(",") for l in lines[2:]]
        assert len(rows) == 5 * 6
        non_rows = [r for r in rows if r[0] == "non"]
        assert all(r[1] == "a1" and r[2] == "" and r[3] == "" for r in non_rows)
        assert {r[4] for r in non_rows} == {"1", "2", "3", "4"}
        assert {r[5] for r in non_rows} == {"5", "6", "7", "8", "9", "10"}
        base_rows = [r for r in rows if r[0] == "baseline"]
        assert len(base_rows) == 6
        assert all(r[1] == "" and r[4] == "0" for r in base_rows)
        assert all(float(r[6]) == 0.25 for r in base_rows)
        assert all(r[7] in {"0", "1"} for r in rows)

    def test_values_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(12)
        values, degenerate = plain(rng.normal(size=(3, 4)))
        path = tmp_path / "c.csv"
        write_curves_csv(path, [("", non_labels(3), values,
                                 np.broadcast_to(degenerate, (3, 4)))], 4)
        lines = path.read_text().strip().split("\n")[2:]
        parsed = np.array([float(l.split(",")[6]) for l in lines]).reshape(3, 4)
        np.testing.assert_array_equal(parsed, values)
