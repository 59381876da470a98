"""The general-F kernel algebra of ``oracles``: similarity structure,
bilinear map, rank bound."""

import numpy as np
from numpy.testing import assert_allclose

from oracles import matrix_rank, rank_report, reverberation_transform, sequential_similarity
from reverb.model import ReverbKernelPair


def brute_force_transform(sim, r, g):
    """Slice-by-slice matrix products, the direct reading of the formula."""
    t_f = r.shape[1]
    k_g = g.shape[1]
    out = np.empty((k_g, t_f, sim.shape[2]))
    for d in range(sim.shape[2]):
        out[:, :, d] = g.T @ sim[:, :, d] @ r
    return out


def random_kernels(rng, t, t_f, k_g):
    return ReverbKernelPair(
        r=np.tanh(rng.normal(size=(t, t_f))),
        g=np.tanh(rng.normal(size=(t, k_g))),
    )


class TestSequentialSimilarity:
    def test_hand_example(self):
        sim = sequential_similarity(np.array([[1.0], [2.0]]))
        assert_allclose(sim[:, :, 0], [[1.0, 2.0], [2.0, 4.0]], atol=1e-12)

    def test_zero_column_gives_zero_slice(self):
        f = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        sim = sequential_similarity(f)
        assert_allclose(sim[:, :, 1], 0.0, atol=1e-15)

    def test_slices_symmetric_psd_rank_one(self):
        rng = np.random.default_rng(31)
        sim = sequential_similarity(rng.normal(size=(6, 4)))
        for d in range(4):
            s = sim[:, :, d]
            assert_allclose(s, s.T, atol=1e-12)
            assert np.linalg.eigvalsh(s).min() >= -1e-12
            assert matrix_rank(s) <= 1


class TestReverberationTransform:
    def test_identity_kernels_reproduce_the_input(self):
        rng = np.random.default_rng(32)
        t = 4
        sim = rng.normal(size=(t, t, 3))
        kernels = ReverbKernelPair(r=np.eye(t), g=np.eye(t))
        out = reverberation_transform(sim, kernels)
        assert_allclose(out, sim, atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            t, t_f, k_g, d = rng.integers(2, 8, size=4)
            sim = rng.normal(size=(t, t, d))
            kernels = random_kernels(rng, t, t_f, k_g)
            out = reverberation_transform(sim, kernels)
            assert out.shape == (k_g, t_f, d)
            assert_allclose(out, brute_force_transform(sim, kernels.r, kernels.g), atol=1e-12)

    def test_linearity_in_the_similarity(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            t, t_f, k_g, d = 4, 6, 3, 2
            kernels = random_kernels(rng, t, t_f, k_g)
            s1 = rng.normal(size=(t, t, d))
            s2 = rng.normal(size=(t, t, d))
            a, b = rng.normal(size=2)
            lhs = reverberation_transform(a * s1 + b * s2, kernels)
            rhs = a * reverberation_transform(s1, kernels) + b * reverberation_transform(s2, kernels)
            assert np.abs(lhs - rhs).max() <= 1e-9

    def test_homogeneity(self):
        rng = np.random.default_rng(35)
        sim = rng.normal(size=(4, 4, 2))
        kernels = random_kernels(rng, 4, 6, 3)
        assert_allclose(
            reverberation_transform(2.5 * sim, kernels),
            2.5 * reverberation_transform(sim, kernels),
            atol=1e-9,
        )

    def test_single_entry_r_selects_one_column(self):
        rng = np.random.default_rng(36)
        t, t_f = 4, 6
        sim = rng.normal(size=(t, t, 2))
        r = np.zeros((t, t_f))
        r[2, 5] = 1.0
        kernels = ReverbKernelPair(r=r, g=np.eye(t))
        out = reverberation_transform(sim, kernels)
        assert_allclose(out[:, 5, :], sim[:, 2, :], atol=1e-12)
        assert_allclose(out[:, :5, :], 0.0, atol=1e-12)


class TestRankBound:
    def test_similarity_slices_give_rank_at_most_one(self):
        rng = np.random.default_rng(37)
        sim = sequential_similarity(rng.normal(size=(5, 3)))
        kernels = random_kernels(rng, 5, 7, 4)
        report = rank_report(kernels, sim)
        assert max(report.rank_out) <= 1

    def test_full_rank_wide_r(self):
        rng = np.random.default_rng(38)
        r = np.tanh(rng.normal(size=(4, 9)))
        assert matrix_rank(r) == 4

    def test_duplicated_g_columns_lower_the_rank(self):
        rng = np.random.default_rng(39)
        g = np.tanh(rng.normal(size=(5, 4)))
        g[:, 3] = g[:, 0]
        kernels = ReverbKernelPair(r=np.tanh(rng.normal(size=(5, 6))), g=g)
        sim = rng.normal(size=(5, 5, 1))
        report = rank_report(kernels, sim)
        assert report.rank_g < 4

    def test_bound_on_general_full_rank_inputs(self):
        # the inequality holds for arbitrary tensors, not only rank-1 slices
        rng = np.random.default_rng(40)
        for _ in range(100):
            t = int(rng.integers(2, 7))
            t_f = int(rng.integers(2, 9))
            k_g = int(rng.integers(1, 9))
            d = int(rng.integers(1, 4))
            sim = rng.normal(size=(t, t, d))
            kernels = random_kernels(rng, t, t_f, k_g)
            if rng.random() < 0.3:
                kernels.r[:, rng.integers(t_f)] = 0.0
            if rng.random() < 0.3 and k_g > 1:
                kernels.g[:, 1] = kernels.g[:, 0]
            report = rank_report(kernels, sim)  # raises on violation
            for d_i, rank_o in enumerate(report.rank_out):
                assert rank_o <= min(report.rank_g, report.rank_sim[d_i], report.rank_r)

    def test_many_generations_cannot_add_information(self):
        rng = np.random.default_rng(41)
        t, t_f, k_g = 4, 6, 64
        sim = rng.normal(size=(t, t, 2))
        report = rank_report(random_kernels(rng, t, t_f, k_g), sim)
        assert max(report.rank_out) <= min(t, t_f)

    def test_subspace_containment(self):
        rng = np.random.default_rng(42)
        sim = rng.normal(size=(5, 5, 2))
        kernels = random_kernels(rng, 5, 7, 3)
        out = reverberation_transform(sim, kernels)
        for d in range(2):
            # row space of out_d is contained in the row space of g.T
            proj = kernels.g.T @ np.linalg.lstsq(kernels.g.T, out[:, :, d], rcond=None)[0]
            assert np.abs(proj - out[:, :, d]).max() <= 1e-8
            # column space of out_d is contained in the column space of r.T
            proj_c = kernels.r.T @ np.linalg.lstsq(kernels.r.T, out[:, :, d].T, rcond=None)[0]
            assert np.abs(proj_c - out[:, :, d].T).max() <= 1e-8


class TestValidation:
    def test_zero_similarity_reports_zero_ranks(self):
        kernels = ReverbKernelPair(r=np.eye(3), g=np.eye(3))
        report = rank_report(kernels, np.zeros((3, 3, 2)))
        assert max(report.rank_out) == 0
        assert report.rank_sim == [0, 0]
        assert report.rank_r == report.rank_g == 3
