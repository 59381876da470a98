import numpy as np
import pytest

from reverb import transforms
from reverb.data import Sample, preprocess
from reverb.errors import ConfigError
from reverb.model import ModelConfig, ReverbPredictor
from reverb.nn import tensor as T
from reverb.nn.layers import ParameterStore
from reverb.social import SocialEncoder, assign_partitions
from reverb.transforms import TimeSeq


def make_encoder(kind="haar", t_h=4, m=2, d=6, n_theta=8, per_step=False, seed=3):
    store = ParameterStore(seed)
    enc = SocialEncoder(store, "soc", kind, t_h, m, d, n_theta, per_step=per_step)
    return enc, store


def make_model(kind="haar", t_h=4, d=6, n_theta=8, per_step=False, seed=3):
    cfg = ModelConfig(t_h=t_h, t_f=2, transform=kind, d=d, k_g=2, n_theta=n_theta,
                      tf_layers=1, tf_heads=2, use_non=False, per_step_partitions=per_step)
    return ReverbPredictor(cfg, seed=seed)


def straight_walk(start, velocity, t_h, dt=0.4):
    start = np.asarray(start, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    steps = np.arange(t_h)[:, None] * dt
    return start + steps * velocity


def make_sample(ego, neighbors, dt=0.4):
    return Sample(
        ego=TimeSeq(np.asarray(ego, float), dt),
        neighbors=tuple(TimeSeq(np.asarray(n, float), dt) for n in neighbors),
        gt=TimeSeq(np.zeros((2, 2)), dt), scene_id="s", agent_id="a", start_frame=1.0,
    )


def pooled(model, ego, neighbors):
    """Pooled pair features of one sample as (N_theta, T_h, d), through the
    batched encode -> _social_rows path."""
    c = model.config
    with T.no_grad():
        rows = model._social_rows(model.encode([make_sample(ego, neighbors)]))
    return rows.data[0].reshape(c.n_theta, c.hist_rows, c.d)


def embeddings(model, batch):
    """Own-frame embeddings of a batch's egos and of its pair neighbors."""
    with T.no_grad():
        return (model.social.embed_own(T.Tensor(batch.spec_x)).data,
                model.social.embed_own(T.Tensor(batch.nbr_spec)).data)


def bucket(ego_xy, nbr_xy, n_theta=8):
    """Bucket of one neighbor window against one ego window (final frames)."""
    idx, _ = assign_partitions(np.asarray(ego_xy, float)[-1], np.asarray(nbr_xy, float)[-1],
                               n_theta)
    return int(idx)


class TestPartitionAssignment:
    def test_due_plus_x_is_partition_zero(self):
        ego = straight_walk([0.0, 0.0], [1.0, 0.0], 4)
        nbr = ego + np.array([2.0, 0.0])
        assert bucket(ego, nbr) == 0

    def test_due_plus_y_is_partition_two(self):
        ego = np.zeros((4, 2))
        nbr = np.zeros((4, 2))
        nbr[:, 1] = 3.0
        assert bucket(ego, nbr) == 2

    def test_sector_boundaries(self):
        # pi/4 sits exactly on the edge between sectors 0 and 1.
        assert bucket([[0.0, 0.0]], [[1.0, 1.0]]) == 1
        # Just under the edge stays in sector 0.
        assert bucket([[0.0, 0.0]], [[1.0, 0.999]]) == 0

    def test_negative_angles_wrap(self):
        assert bucket([[0.0, 0.0]], [[0.0, -1.0]]) == 6
        assert bucket([[0.0, 0.0]], [[-1.0, -1e-9]]) == 4

    def test_only_final_frame_matters(self):
        enc, _ = make_encoder(kind="none", n_theta=8)
        ego = np.zeros((4, 2))
        nbr = np.array([[5.0, -9.0], [0.0, -3.0], [1.0, 1.0], [0.0, 2.0]])
        assert enc.row_partitions(ego, nbr).tolist() == [2, 2, 2, 2]

    def test_coincident_neighbor_degenerate(self):
        idx, degenerate = assign_partitions(
            np.zeros((3, 2)),
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]),
            8,
        )
        assert idx.tolist() == [0, 0, 0]
        assert degenerate.tolist() == [True, False, True]

    def test_every_index_in_range(self):
        rng = np.random.default_rng(0)
        ego = rng.normal(size=(500, 2))
        nbr = rng.normal(size=(500, 2))
        for n_theta in (1, 3, 8):
            idx, _ = assign_partitions(ego, nbr, n_theta)
            assert idx.min() >= 0 and idx.max() < n_theta
            # Cross-check against a scalar arctan2 oracle.
            for i in (0, 17, 499):
                dx, dy = nbr[i] - ego[i]
                theta = np.arctan2(dy, dx) % (2.0 * np.pi)
                want = min(int(np.floor(theta * n_theta / (2.0 * np.pi))), n_theta - 1)
                assert idx[i] == want

    def test_bearing_matches_atan2(self):
        # Bearings pi/2 and pi, measured counter-clockwise from +x, fall in
        # quarter-sectors 1 and 2.
        assert bucket([[1.0, 1.0]], [[1.0, 2.0]], n_theta=4) == 1
        assert bucket([[0.0, 0.0]], [[-1.0, 0.0]], n_theta=4) == 2
        # A ring of neighbors at mid-sector bearings lands sector by sector.
        theta = (np.arange(8) + 0.5) * 2.0 * np.pi / 8
        ring = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        idx, _ = assign_partitions(np.zeros((8, 2)), ring, 8)
        assert idx.tolist() == list(range(8))

    def test_zero_partitions_rejected(self):
        with pytest.raises(ConfigError):
            assign_partitions([0.0, 0.0], [1.0, 0.0], 0)


class TestFlatten:
    def test_bucket_major_order(self):
        # Per-step buckets on the identity transform: the neighbor sits due
        # +y (bucket 2) for two steps, then due -y (bucket 6).  Pooled flat
        # row n * T_h + t holds the step-t pair feature exactly when the
        # neighbor is in bucket n at step t, and zero otherwise.
        model = make_model(kind="none", per_step=True)
        ego = straight_walk([0.0, 0.0], [1.0, 0.5], 4)
        nbr = ego + np.array([[0.0, 2.0], [0.0, 2.0], [0.0, -2.0], [0.0, -2.0]])
        batch = model.encode([make_sample(ego, [nbr])])
        ego_e, nbr_e = embeddings(model, batch)
        with T.no_grad():
            flat = model._social_rows(batch).data[0]
            pair = model.social.embed_pair(T.Tensor(ego_e[0] * nbr_e[0])).data
        want = np.zeros_like(flat)
        for n, t in ((2, 0), (2, 1), (6, 2), (6, 3)):
            want[n * 4 + t] = pair[t]
        np.testing.assert_allclose(flat, want, atol=1e-12)
        assert np.abs(flat[2 * 4]).max() > 0

    def test_flatten_gradient_routes_back(self):
        # Empty bucket rows are constants: a loss on them sends no gradient
        # back; a loss on an occupied row reaches both embeddings.
        model = make_model()
        ego = straight_walk([0.0, 0.0], [1.0, 0.0], 4)
        nbr = ego + np.array([0.0, 2.0])  # due +y -> bucket 2
        batch = model.encode([make_sample(ego, [nbr])])
        rows = model.config.hist_rows
        soc = [n for n in model.store.names() if n.startswith(("soc.own.", "soc.pair."))]
        for lo, expect_grad in ((0, False), (2 * rows, True)):
            model.store.zero_grad()
            out = model._social_rows(batch)
            part = out[:, lo:lo + rows, :]
            T.backward(T.sum_(part * part))
            for name in soc:
                g = model.store[name].grad
                moved = g is not None and np.abs(g).max() > 0
                assert moved == expect_grad, (lo, name)


class TestOwnSpectrum:
    def test_translated_last_point_is_origin(self):
        enc, _ = make_encoder()
        rng = np.random.default_rng(1)
        seq = rng.normal(size=(4, 2)) + 7.0
        spec = enc.own_spectrum(seq)
        back = (spec.ravel() @ transforms.inverse_matrix("haar", 4, 2)).reshape(4, 2)
        np.testing.assert_allclose(back[-1], [0.0, 0.0], atol=1e-12)

    def test_translation_invariance(self):
        enc, _ = make_encoder()
        rng = np.random.default_rng(2)
        seq = rng.normal(size=(4, 2))
        shifted = seq + np.array([13.0, -4.0])
        e = enc.embed_own(T.Tensor(enc.own_spectrum(np.stack([seq, shifted])))).data
        np.testing.assert_allclose(e[0], e[1], atol=1e-12)

    @pytest.mark.parametrize("kind", transforms.KINDS)
    def test_ego_own_spectrum_is_spec_x(self, kind):
        # _social_rows takes each pair's ego side from spec_x; that is exact
        # because a preprocessed ego already ends at the origin.
        model = make_model(kind=kind)
        rng = np.random.default_rng(4)
        samples = [make_sample(rng.normal(size=(4, 2)) * 3.0 + rng.normal(size=2) * 50.0,
                               [rng.normal(size=(4, 2))]) for _ in range(5)]
        batch = model.encode(samples)
        egos = np.stack([preprocess(s).ego.values for s in samples])
        assert model.social.own_spectrum(egos).tobytes() == batch.spec_x.tobytes()

    def test_identical_agents_identical_embeddings(self):
        model = make_model()
        ego = straight_walk([0.0, 0.0], [1.0, 0.0], 4)
        seq = straight_walk([1.0, 2.0], [0.5, -0.2], 4)
        batch = model.encode([make_sample(ego, [seq, seq.copy()])])
        _, nbr_e = embeddings(model, batch)
        np.testing.assert_array_equal(nbr_e[0], nbr_e[1])


class TestPairFeature:
    def test_product_symmetry(self):
        # One neighbor per sample, so pair p is (ego p, neighbor p) and
        # swapping the ego and neighbor spectra swaps the pair's factors.
        model = make_model()
        rng = np.random.default_rng(3)
        ego = straight_walk([0.0, 0.0], [0.7, 0.1], 4)
        batch = model.encode([make_sample(ego, [ego + rng.normal(size=2)]) for _ in range(3)])
        assert batch.pair_sample.tolist() == [0, 1, 2]
        with T.no_grad():
            a = model._social_rows(batch).data
            batch.spec_x, batch.nbr_spec = batch.nbr_spec, batch.spec_x
            b = model._social_rows(batch).data
        np.testing.assert_array_equal(a, b)

    def test_elementwise_product_against_brute_force(self):
        model = make_model()
        ego = straight_walk([0.0, 0.0], [1.0, 0.0], 4)
        nbr = straight_walk([0.5, 2.0], [0.3, -0.4], 4)
        assert bucket(ego, nbr) == 2
        batch = model.encode([make_sample(ego, [nbr])])
        ego_e, nbr_e = embeddings(model, batch)
        with T.no_grad():
            want = model.social.embed_pair(T.Tensor(ego_e[0] * nbr_e[0])).data
        np.testing.assert_allclose(pooled(model, ego, [nbr])[2], want, atol=1e-12)

    def test_zero_neighbor_gives_bias_only(self):
        # With the own-embedding's last layer zeroed every agent embeds to
        # zero, so an occupied bucket holds the pair embedding of zero.
        model = make_model()
        model.store["soc.own.1.w"].data[...] = 0.0
        model.store["soc.own.1.b"].data[...] = 0.0
        ego = straight_walk([0.0, 0.0], [1.0, 0.0], 4)
        got = pooled(model, ego, [ego + np.array([0.0, 2.0])])[2]
        with T.no_grad():
            want = model.social.embed_pair(T.Tensor(np.zeros((2, 6)))).data
        np.testing.assert_array_equal(got, want)
        assert got.shape == (2, 6)


class TestRepresent:
    def test_no_neighbors_all_zero(self):
        model = make_model()
        ego = straight_walk([0.0, 0.0], [1.0, 0.0], 4)
        out = pooled(model, ego, [])
        assert out.shape == (8, 2, 6)
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_single_neighbor_touches_one_bucket(self):
        model = make_model()
        ego = straight_walk([0.0, 0.0], [1.0, 0.0], 4)
        nbr = ego + np.array([0.0, 2.0])  # due +y -> bucket 2
        out = pooled(model, ego, [nbr])
        assert np.abs(out[2]).max() > 0
        for b in range(8):
            if b != 2:
                np.testing.assert_array_equal(out[b], 0.0)

    def test_same_bucket_pair_averages(self):
        model = make_model()
        ego = straight_walk([0.0, 0.0], [1.0, 0.0], 4)
        n1 = ego + np.array([0.0, 2.0])
        n2 = ego * 0.5 + np.array([0.3, 3.0])
        assert bucket(ego, n1) == bucket(ego, n2) == 2
        both = pooled(model, ego, [n1, n2])[2]
        one = pooled(model, ego, [n1])[2]
        two = pooled(model, ego, [n2])[2]
        np.testing.assert_allclose(both, 0.5 * (one + two), atol=1e-12)

    def test_permutation_invariance(self):
        model = make_model()
        rng = np.random.default_rng(6)
        ego = straight_walk([0.0, 0.0], [0.7, 0.1], 4)
        nbrs = [ego + rng.normal(scale=3.0, size=2) for _ in range(5)]
        fwd = pooled(model, ego, nbrs)
        rev = pooled(model, ego, nbrs[::-1])
        np.testing.assert_allclose(fwd, rev, atol=1e-12)

    def test_replay_is_deterministic(self):
        ego = straight_walk([0.0, 1.0], [0.2, 0.3], 4)
        nbr = ego + np.array([1.0, 1.0])
        a = pooled(make_model(seed=11), ego, [nbr])
        b = pooled(make_model(seed=11), ego, [nbr])
        np.testing.assert_array_equal(a, b)

    def test_gradients_reach_both_embeddings(self):
        model = make_model()
        ego = straight_walk([0.0, 0.0], [1.0, 0.0], 4)
        nbr = ego + np.array([2.0, 1.0])
        out = model._social_rows(model.encode([make_sample(ego, [nbr])]))
        T.backward(T.sum_(out * out))
        names = [n for n in model.store.names() if n.startswith(("soc.own.", "soc.pair."))]
        assert len(names) == 8
        for name in names:
            g = model.store[name].grad
            assert g is not None and np.abs(g).max() > 0, name


class TestPerStep:
    def test_dft_rejected(self):
        with pytest.raises(ConfigError):
            make_encoder(kind="dft", per_step=True)

    def test_row_partitions_follow_motion(self):
        enc, _ = make_encoder(kind="none", t_h=4, per_step=True, n_theta=8)
        ego = np.zeros((4, 2))
        nbr = np.array([[0.0, 2.0], [0.0, 2.0], [0.0, -2.0], [0.0, -2.0]])
        rows = enc.row_partitions(ego, nbr)
        assert rows.tolist() == [2, 2, 6, 6]

    def test_static_repeats_final_assignment(self):
        enc, _ = make_encoder(kind="none", t_h=4, per_step=False, n_theta=8)
        ego = np.zeros((4, 2))
        nbr = np.array([[0.0, 2.0], [0.0, 2.0], [0.0, -2.0], [0.0, -2.0]])
        assert enc.row_partitions(ego, nbr).tolist() == [6, 6, 6, 6]

    def test_paired_kind_anchors_on_odd_frames(self):
        enc, _ = make_encoder(kind="haar", t_h=4, per_step=True, n_theta=8)
        ego = np.zeros((4, 2))
        # Rows cover frames (0,1) and (2,3); anchors are frames 1 and 3.
        nbr = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 0.0], [0.0, -2.0]])
        assert enc.row_partitions(ego, nbr).tolist() == [2, 6]


class TestStacked:
    @pytest.mark.parametrize("kind,per_step", [("none", True), ("haar", True),
                                               ("db2", False), ("dft", False)])
    def test_stack_equals_row_by_row(self, kind, per_step):
        enc, _ = make_encoder(kind=kind, t_h=8, per_step=per_step)
        rng = np.random.default_rng(7)
        ego = rng.normal(size=(5, 8, 2))
        nbr = ego + rng.normal(scale=2.0, size=(5, 8, 2))
        spec = enc.own_spectrum(nbr)
        rows = enc.row_partitions(ego, nbr)
        assert spec.shape == (5, 4 if kind != "none" else 8, 4 if kind != "none" else 2)
        for i in range(5):
            assert spec[i].tobytes() == enc.own_spectrum(nbr[i]).tobytes()
            np.testing.assert_array_equal(rows[i], enc.row_partitions(ego[i], nbr[i]))
