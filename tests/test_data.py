import numpy as np
import pytest

from reverb.data import (
    Sample,
    Scene,
    SynthLatencySpec,
    Tracklet,
    inject_manual_neighbor,
    load_scene,
    load_split_manifest,
    make_windows,
    preprocess,
    synth_latency_scenes,
    write_scene,
)
from reverb.errors import ParseError, ValidationError
from reverb.linear import linear_fit
from reverb.social import assign_partitions
from reverb.transforms import TimeSeq

from oracles import change_point_frame


def write(tmp_path, text, name="scene.tsv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadScene:
    def test_basic_grouping_and_sorting(self, tmp_path):
        p = write(tmp_path, "\n".join([
            "2 a 1.0 0.0",
            "1 a 0.0 0.0",
            "# a comment",
            "",
            "1 b 5.0 5.0",
            "2 b 5.0 6.0",
        ]) + "\n")
        scene = load_scene(p)
        assert scene.scene_id == "scene"
        assert sorted({t.agent_id for t in scene.tracklets}) == ["a", "b"]
        a = [t for t in scene.tracklets if t.agent_id == "a"][0]
        np.testing.assert_array_equal(a.frames, [1.0, 2.0])
        np.testing.assert_array_equal(a.xy, [[0.0, 0.0], [1.0, 0.0]])

    def test_wrong_column_count_names_line(self, tmp_path):
        p = write(tmp_path, "1 a 0.0 0.0\n2 a 1.0\n")
        with pytest.raises(ParseError) as err:
            load_scene(p)
        assert err.value.line == 2

    def test_bad_number_names_line_and_column(self, tmp_path):
        p = write(tmp_path, "1 a 0.0 0.0\n2 a oops 1.0\n")
        with pytest.raises(ParseError, match="column 3"):
            load_scene(p)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_coordinate_names_line(self, tmp_path, token):
        p = write(tmp_path, f"1 a 0.0 0.0\n2 a {token} 1.0\n")
        with pytest.raises(ParseError, match="column 3") as err:
            load_scene(p)
        assert err.value.line == 2 and str(p) in str(err.value)
        p = write(tmp_path, f"1 a 0.0 {token}\n")
        with pytest.raises(ParseError, match="column 4"):
            load_scene(p)

    def test_duplicate_names_both_lines(self, tmp_path):
        p = write(tmp_path, "1 a 0.0 0.0\n2 a 1.0 0.0\n1 a 9.0 9.0\n")
        with pytest.raises(ParseError, match="line 1") as err:
            load_scene(p)
        assert err.value.line == 3

    def test_gap_splits_tracklet(self, tmp_path):
        p = write(tmp_path, "\n".join(
            f"{f} a {float(f)} 0.0" for f in [1, 2, 3, 7, 8]
        ) + "\n")
        scene = load_scene(p)
        lengths = sorted(len(t.frames) for t in scene.tracklets)
        assert lengths == [2, 3]
        assert all(t.agent_id == "a" for t in scene.tracklets)

    def test_non_unit_stride_accepted(self, tmp_path):
        p = write(tmp_path, "\n".join(
            f"{f} a {float(f)} 1.0" for f in [10, 20, 30, 40]
        ) + "\n")
        scene = load_scene(p)
        assert len(scene.tracklets) == 1

    def test_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        xy = rng.normal(size=(6, 2)) * np.pi
        scene = Scene("rt", 0.4, [Tracklet("a", np.arange(1.0, 7.0), xy)])
        path = tmp_path / "rt.tsv"
        write_scene(path, scene)
        back = load_scene(path, dt=0.4)
        np.testing.assert_array_equal(back.tracklets[0].xy, xy)
        np.testing.assert_array_equal(back.tracklets[0].frames, np.arange(1.0, 7.0))


class TestWindows:
    def make_scene(self, n=10, agents=("a", "b")):
        tracklets = []
        for i, agent in enumerate(agents):
            frames = np.arange(1.0, n + 1.0)
            xy = np.stack([frames * (i + 1), np.zeros(n)], axis=1)
            tracklets.append(Tracklet(agent, frames, xy))
        return Scene("w", 0.4, tracklets)

    def test_single_window_exact_fit(self):
        scene = self.make_scene(n=10, agents=("a",))
        samples = make_windows(scene, t_h=4, t_f=6)
        assert len(samples) == 1
        s = samples[0]
        assert s.ego.values.shape == (4, 2)
        assert s.gt.values.shape == (6, 2)
        assert s.neighbors == ()
        assert s.start_frame == 1.0

    def test_sliding_count_and_stride(self):
        scene = self.make_scene(n=12, agents=("a",))
        assert len(make_windows(scene, 4, 6)) == 3
        assert len(make_windows(scene, 4, 6, stride=2)) == 2

    def test_neighbors_must_cover_observation(self):
        full = Tracklet("a", np.arange(1.0, 11.0), np.zeros((10, 2)))
        cover = Tracklet("b", np.arange(1.0, 5.0), np.ones((4, 2)))
        partial = Tracklet("c", np.arange(2.0, 5.0), np.ones((3, 2)))
        scene = Scene("w", 0.4, [full, cover, partial])
        samples = make_windows(scene, t_h=4, t_f=6)
        egos = {s.agent_id: s for s in samples}
        assert set(egos) == {"a"}
        assert len(egos["a"].neighbors) == 1
        np.testing.assert_array_equal(egos["a"].neighbors[0].values, np.ones((4, 2)))

    def test_split_tracklets_never_bridge_gaps(self, tmp_path):
        p = write(tmp_path, "\n".join(
            f"{f} a {float(f)} 0.0" for f in list(range(1, 7)) + list(range(20, 26))
        ) + "\n")
        scene = load_scene(p)
        samples = make_windows(scene, t_h=3, t_f=3)
        starts = sorted(s.start_frame for s in samples)
        assert starts == [1.0, 20.0]

    def test_agent_never_its_own_neighbor(self):
        scene = self.make_scene(n=10, agents=("a", "b"))
        for s in make_windows(scene, 4, 6):
            assert len(s.neighbors) == 1

    def test_bad_stride_rejected(self):
        with pytest.raises(ValidationError):
            make_windows(self.make_scene(), 4, 6, stride=0)


class TestPreprocess:
    def sample(self):
        rng = np.random.default_rng(1)
        return Sample(
            ego=TimeSeq(rng.normal(size=(4, 2)) + 10.0, 0.4),
            neighbors=(TimeSeq(rng.normal(size=(4, 2)), 0.4),),
            gt=TimeSeq(rng.normal(size=(6, 2)) + 10.0, 0.4),
            scene_id="s", agent_id="a", start_frame=1.0,
        )

    def test_last_observed_point_at_origin(self):
        s = preprocess(self.sample())
        np.testing.assert_array_equal(s.ego.values[-1], [0.0, 0.0])
        assert s.offset is not None

    def test_round_trip_exact(self):
        raw = self.sample()
        s = preprocess(raw)
        np.testing.assert_allclose(s.ego.values + s.offset, raw.ego.values, atol=1e-12)
        np.testing.assert_allclose(s.gt.values + s.offset, raw.gt.values, atol=1e-12)
        np.testing.assert_allclose(
            s.neighbors[0].values + s.offset, raw.neighbors[0].values, atol=1e-12
        )

    def test_idempotent(self):
        s = preprocess(self.sample())
        assert preprocess(s) is s

    def test_relative_geometry_unchanged(self):
        raw = self.sample()
        s = preprocess(raw)
        np.testing.assert_allclose(
            s.neighbors[0].values - s.ego.values,
            raw.neighbors[0].values - raw.ego.values,
            atol=1e-12,
        )


class TestManualNeighbor:
    def test_plus_x_offset_lands_in_partition_zero(self):
        ego = TimeSeq(np.zeros((4, 2)), 0.4)
        s = Sample(ego=ego, neighbors=(), gt=TimeSeq(np.zeros((6, 2)), 0.4),
                   scene_id="s", agent_id="a", start_frame=1.0)
        poked = inject_manual_neighbor(s, [2.0, 0.0], [0.0, 0.0])
        assert len(poked.neighbors) == 1
        nbr = poked.neighbors[0].values
        np.testing.assert_array_equal(nbr[-1], [2.0, 0.0])
        idx, _ = assign_partitions(s.ego.values[-1], nbr[-1], 8)
        assert idx == 0

    def test_constant_velocity_track(self):
        ego = TimeSeq(np.zeros((5, 2)), 0.5)
        s = Sample(ego=ego, neighbors=(), gt=TimeSeq(np.zeros((6, 2)), 0.5),
                   scene_id="s", agent_id="a", start_frame=1.0)
        poked = inject_manual_neighbor(s, [1.0, -1.0], [2.0, 0.0])
        nbr = poked.neighbors[0].values
        steps = np.diff(nbr, axis=0)
        np.testing.assert_allclose(steps, np.tile([1.0, 0.0], (4, 1)), atol=1e-12)
        np.testing.assert_array_equal(nbr[-1], [1.0, -1.0])

    def test_original_sample_unchanged(self):
        ego = TimeSeq(np.zeros((4, 2)), 0.4)
        s = Sample(ego=ego, neighbors=(), gt=TimeSeq(np.zeros((6, 2)), 0.4),
                   scene_id="s", agent_id="a", start_frame=1.0)
        inject_manual_neighbor(s, [1.0, 0.0], [0.0, 0.0])
        assert s.neighbors == ()


class TestSynth:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SynthLatencySpec(t_e=1).validate()
        with pytest.raises(ValidationError):
            SynthLatencySpec(deltas=(-1,)).validate()
        with pytest.raises(ValidationError):
            SynthLatencySpec(t_e=18, deltas=(3,), duration=4, n_frames=20).validate()
        with pytest.raises(ValidationError):
            SynthLatencySpec(sigma=-0.1).validate()
        SynthLatencySpec().validate()

    def test_shapes_and_labels(self):
        spec = SynthLatencySpec(n_scenes=3, n_agents=2, seed=1)
        scenes, labels = synth_latency_scenes(spec)
        assert len(scenes) == 3
        assert len(labels) == 6
        for scene in scenes:
            assert len(scene.tracklets) == 2
            for t in scene.tracklets:
                assert t.xy.shape == (spec.n_frames, 2)
        deltas = [lab["delta"] for lab in labels]
        assert set(deltas) <= set(spec.deltas)
        for lab in labels:
            assert lab["onset_frame"] == lab["t_e"] + lab["delta"]

    def test_zero_turn_is_exactly_linear(self):
        spec = SynthLatencySpec(
            n_scenes=1, n_agents=3, turn_magnitude=0.0, sigma=0.0, seed=2
        )
        scenes, _ = synth_latency_scenes(spec)
        for t in scenes[0].tracklets:
            fit = linear_fit(t.xy[:10], 5)
            assert np.abs(t.xy[:10] - fit.fitted).max() < 1e-9

    def test_speed_pulse_scales_with_delta(self):
        spec = SynthLatencySpec(
            n_scenes=2, n_agents=4, deltas=(0, 1, 2, 3), sigma=0.0, seed=3
        )
        scenes, labels = synth_latency_scenes(spec)
        by_key = {(l["scene_id"], l["agent_id"]): l for l in labels}
        for scene in scenes:
            for t in scene.tracklets:
                lab = by_key[(scene.scene_id, t.agent_id)]
                speeds = np.linalg.norm(np.diff(t.xy, axis=0), axis=1)
                base = speeds[0]
                pulse_step = spec.t_e - 2  # step into frame t_e
                observed = speeds[pulse_step] / base - 1.0
                expected = spec.pulse_scale * lab["delta"] * abs(spec.turn_magnitude)
                assert observed == pytest.approx(expected, abs=1e-9)

    def test_change_point_oracle_recovers_onset(self):
        spec = SynthLatencySpec(
            n_scenes=4, n_agents=3, deltas=(1, 2, 3), sigma=0.0, seed=4
        )
        scenes, labels = synth_latency_scenes(spec)
        by_key = {(l["scene_id"], l["agent_id"]): l for l in labels}
        for scene in scenes:
            for t in scene.tracklets:
                lab = by_key[(scene.scene_id, t.agent_id)]
                assert change_point_frame(t.xy) == lab["onset_frame"]

    def test_deterministic_by_seed(self):
        a, _ = synth_latency_scenes(SynthLatencySpec(n_scenes=2, seed=9))
        b, _ = synth_latency_scenes(SynthLatencySpec(n_scenes=2, seed=9))
        for sa, sb in zip(a, b):
            for ta, tb in zip(sa.tracklets, sb.tracklets):
                np.testing.assert_array_equal(ta.xy, tb.xy)

    def test_noise_perturbs_positions(self):
        a, _ = synth_latency_scenes(SynthLatencySpec(n_scenes=1, sigma=0.0, seed=5))
        b, _ = synth_latency_scenes(SynthLatencySpec(n_scenes=1, sigma=0.1, seed=5))
        assert np.abs(a[0].tracklets[0].xy - b[0].tracklets[0].xy).max() > 0

    def test_windows_flow_through_model_contract(self):
        spec = SynthLatencySpec(n_scenes=1, n_agents=2, seed=6)
        scenes, _ = synth_latency_scenes(spec)
        samples = make_windows(scenes[0], t_h=8, t_f=12)
        assert samples
        assert all(len(s.neighbors) == 1 for s in samples)


class TestSplitManifest:
    def test_relative_paths_resolve(self, tmp_path):
        (tmp_path / "scenes").mkdir()
        manifest = tmp_path / "split.txt"
        manifest.write_text(
            "# comment\ntrain scenes/a.tsv\ntrain scenes/b.tsv\ntest scenes/c.tsv\n"
        )
        splits = load_split_manifest(manifest)
        assert sorted(splits) == ["test", "train"]
        assert len(splits["train"]) == 2
        assert splits["test"][0].endswith("/scenes/c.tsv")
        assert splits["test"][0].startswith(str(tmp_path))

    def test_malformed_line_rejected(self, tmp_path):
        manifest = tmp_path / "split.txt"
        manifest.write_text("justonepath\n")
        with pytest.raises(ParseError):
            load_split_manifest(manifest)
