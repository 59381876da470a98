import hashlib
import os
import re
import tracemalloc

import numpy as np
import pytest

from reverb.config import RunConfig, model_hash
from reverb.data import SynthLatencySpec, make_windows, synth_latency_scenes
from reverb.errors import ConfigError, ParseError
from reverb.model import ModelConfig, ReverbPredictor
from reverb.train import EpochStats, load_model, run_training, save_checkpoint
from reverb.nn.optim import Adam


def tiny_cfg(**train_kw):
    cfg = RunConfig()
    cfg.model = ModelConfig(t_h=4, t_f=6, d=8, k_g=2, n_theta=4,
                            tf_layers=1, tf_heads=2, noise_dim=2)
    cfg.epochs = train_kw.pop("epochs", 3)
    cfg.batch_size = train_kw.pop("batch_size", 4)
    cfg.checkpoint_every = train_kw.pop("checkpoint_every", 2)
    cfg.seed = train_kw.pop("seed", 1)
    assert not train_kw
    return cfg


def tiny_samples(cfg, n_scenes=3, seed=0):
    spec = SynthLatencySpec(
        n_scenes=n_scenes, n_agents=2, n_frames=cfg.model.t_h + cfg.model.t_f,
        dt=cfg.model.dt, t_e=2, deltas=(0, 1), duration=1, sigma=0.05,
        seed=seed,
    )
    scenes, _ = synth_latency_scenes(spec)
    samples = []
    for scene in scenes:
        samples.extend(make_windows(scene, cfg.model.t_h, cfg.model.t_f))
    return samples


def test_training_writes_artifacts(tmp_path):
    cfg = tiny_cfg()
    out = run_training(cfg, tiny_samples(cfg), str(tmp_path))
    assert os.path.exists(out["final_checkpoint"])
    assert os.path.exists(str(tmp_path / "checkpoints" / "epoch0002.bin"))
    assert os.path.exists(str(tmp_path / "loss_log.csv"))
    assert [s.epoch for s in out["history"]] == [1, 2, 3]
    assert all(np.isfinite(s.mean_loss) for s in out["history"])


def test_no_periodic_checkpoint_duplicates_final(tmp_path):
    cfg = tiny_cfg(epochs=2, checkpoint_every=2)
    run_training(cfg, tiny_samples(cfg), str(tmp_path))
    names = sorted(os.listdir(tmp_path / "checkpoints"))
    assert names == ["final.bin"]


def test_loss_log_format(tmp_path):
    cfg = tiny_cfg()
    run_training(cfg, tiny_samples(cfg), str(tmp_path))
    lines = (tmp_path / "loss_log.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=") and "seed=1" in lines[0]
    assert lines[1] == "epoch,mean_loss"
    assert len(lines) == 2 + cfg.epochs
    first = lines[2].split(",")
    assert first[0] == "1"
    float(first[1])


class TestTinyRunPin:
    """The bytes a 3-epoch ``tiny_cfg`` run writes are pinned: a change to
    how the training state is stored or updated must not move one byte of
    the loss log or the final checkpoint."""

    LOSS_LOG_SHA = "3f1baea0f7ac4383cc2850ad802014ae0d92c953ded0d1be438251e32b618afa"
    FINAL_SHA = "b8b973b4fe11c452e818a1c1b1f8f922d6d7995d1b57b34c3a468d0c276f06bc"

    def test_loss_log_and_final_checkpoint_bytes(self, tmp_path):
        cfg = tiny_cfg()
        out = run_training(cfg, tiny_samples(cfg), str(tmp_path))
        sha = lambda path: hashlib.sha256(open(path, "rb").read()).hexdigest()
        assert sha(tmp_path / "loss_log.csv") == self.LOSS_LOG_SHA
        assert sha(out["final_checkpoint"]) == self.FINAL_SHA


def test_same_seed_same_bytes(tmp_path):
    cfg = tiny_cfg()
    samples = tiny_samples(cfg)
    a = run_training(cfg, samples, str(tmp_path / "a"))
    b = run_training(cfg, samples, str(tmp_path / "b"))
    bytes_a = open(a["final_checkpoint"], "rb").read()
    bytes_b = open(b["final_checkpoint"], "rb").read()
    assert bytes_a == bytes_b
    log_a = (tmp_path / "a" / "loss_log.csv").read_text()
    log_b = (tmp_path / "b" / "loss_log.csv").read_text()
    assert log_a == log_b


def test_different_seed_different_trajectory(tmp_path):
    cfg = tiny_cfg()
    samples = tiny_samples(cfg)
    a = run_training(cfg, samples, str(tmp_path / "a"))
    cfg2 = tiny_cfg(seed=2)
    b = run_training(cfg2, samples, str(tmp_path / "b"))
    la = [s.mean_loss for s in a["history"]]
    lb = [s.mean_loss for s in b["history"]]
    assert la != lb


def test_resume_continues_epoch_numbering(tmp_path):
    cfg = tiny_cfg(epochs=4, checkpoint_every=2)
    samples = tiny_samples(cfg)
    first = run_training(cfg, samples, str(tmp_path / "run"))
    assert [s.epoch for s in first["history"]] == [1, 2, 3, 4]
    mid = str(tmp_path / "run" / "checkpoints" / "epoch0002.bin")
    cfg_more = tiny_cfg(epochs=6, checkpoint_every=2)
    resumed = run_training(cfg_more, samples, str(tmp_path / "resumed"),
                           resume=mid)
    assert [s.epoch for s in resumed["history"]] == [3, 4, 5, 6]


def test_resume_reuses_the_uninterrupted_random_stream(tmp_path):
    # The per-epoch streams must line up; this holds for any checkpoint
    # precision (files of earlier versions hold float32 weights).
    cfg = tiny_cfg(epochs=4, checkpoint_every=2)
    samples = tiny_samples(cfg)
    full = run_training(cfg, samples, str(tmp_path / "full"))
    mid = str(tmp_path / "full" / "checkpoints" / "epoch0002.bin")
    resumed = run_training(cfg, samples, str(tmp_path / "resumed"), resume=mid)
    full_tail = [s.mean_loss for s in full["history"][2:]]
    res_tail = [s.mean_loss for s in resumed["history"]]
    assert [s.epoch for s in resumed["history"]] == [3, 4]
    np.testing.assert_allclose(res_tail, full_tail, rtol=1e-4)


def test_resume_is_byte_exact(tmp_path):
    cfg = tiny_cfg(epochs=4, checkpoint_every=2)
    samples = tiny_samples(cfg)
    full = run_training(cfg, samples, str(tmp_path / "full"))
    mid = str(tmp_path / "full" / "checkpoints" / "epoch0002.bin")
    resumed = run_training(cfg, samples, str(tmp_path / "resumed"), resume=mid)
    read = lambda path: open(path, "rb").read()
    assert read(resumed["final_checkpoint"]) == read(full["final_checkpoint"])
    rows = lambda run: read(tmp_path / run / "loss_log.csv").splitlines()
    assert rows("resumed")[2:] == rows("full")[4:6]


def test_resume_past_the_epoch_budget_is_rejected(tmp_path):
    cfg = tiny_cfg(epochs=4)
    samples = tiny_samples(cfg)
    final = run_training(cfg, samples, str(tmp_path / "run"))["final_checkpoint"]
    with pytest.raises(ConfigError) as err:
        run_training(tiny_cfg(epochs=2), samples, str(tmp_path / "resumed"), resume=final)
    assert str(err.value) == f"checkpoint {final} is at epoch 4, past train.epochs = 2"
    assert not (tmp_path / "resumed").exists()


def test_resume_builds_the_model_and_adam_once(tmp_path, monkeypatch):
    cfg = tiny_cfg()
    samples = tiny_samples(cfg)
    run_training(cfg, samples, str(tmp_path / "full"))
    built = []
    for cls in (ReverbPredictor, Adam):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built.append(_name)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    mid = str(tmp_path / "full" / "checkpoints" / "epoch0002.bin")
    run_training(cfg, samples, str(tmp_path / "resumed"), resume=mid)
    assert sorted(built) == ["Adam", "ReverbPredictor"]


def test_progress_callback_sees_every_epoch(tmp_path):
    cfg = tiny_cfg()
    seen = []
    run_training(cfg, tiny_samples(cfg), str(tmp_path), progress=seen.append)
    assert [s.epoch for s in seen] == [1, 2, 3]
    assert all(isinstance(s, EpochStats) for s in seen)


def test_load_model_round_trip(tmp_path):
    cfg = tiny_cfg(epochs=1)
    out = run_training(cfg, tiny_samples(cfg), str(tmp_path))
    model, arrays, meta = load_model(out["final_checkpoint"], cfg)
    assert meta["epoch"] == "1"
    assert meta["model_hash"] == model_hash(cfg.model)
    assert any(k.startswith("adam.m.") for k in arrays)
    loaded = dict(model.store.items())
    for name, p in out["model"].store.items():
        np.testing.assert_array_equal(loaded[name].data, p.data)


def test_load_model_rejects_wrong_dimensions(tmp_path):
    cfg = tiny_cfg(epochs=1)
    out = run_training(cfg, tiny_samples(cfg), str(tmp_path))
    other = tiny_cfg()
    other.model.d = 16
    with pytest.raises((ConfigError, ValueError)):
        load_model(out["final_checkpoint"], other)


def test_load_model_rejects_same_shape_different_meaning(tmp_path):
    # haar and db2 spectra agree on every array shape; only the hash in
    # the checkpoint metadata can refuse the mismatch.
    cfg = tiny_cfg(epochs=1)
    out = run_training(cfg, tiny_samples(cfg), str(tmp_path))
    other = tiny_cfg()
    other.model.transform = "db2"
    with pytest.raises(ConfigError, match="model settings"):
        load_model(out["final_checkpoint"], other)


def test_checkpoint_meta_fields(tmp_path):
    from reverb.model import ReverbPredictor
    from reverb.nn import checkpoint

    cfg = tiny_cfg()
    model = ReverbPredictor(cfg.model, seed=cfg.seed)
    adam = Adam(model.store, lr=cfg.lr)
    path = str(tmp_path / "ck.bin")
    save_checkpoint(path, model, adam, epoch=5, cfg=cfg)
    _, meta = checkpoint.load(path)
    assert meta["epoch"] == "5"
    assert meta["seed"] == "1"
    assert meta["adam_t"] == "0"
    assert len(meta["config_hash"]) == 12
    assert len(meta["model_hash"]) == 12


def test_checkpoint_of_a_paper_size_state_is_written_without_copies(tmp_path):
    """The parameters, Adam's m and Adam's v reach the file as views of
    their flat vectors: saving the paper-default state (3 x 15.3 MiB)
    allocates less than one of them, and the file keeps the bytes that
    copying each slice first gave (the pinned sha256)."""
    cfg = RunConfig()
    cfg.model = ModelConfig()
    model = ReverbPredictor(cfg.model, seed=cfg.seed)
    adam = Adam(model.store, lr=cfg.lr)
    adam.m[:] = np.linspace(-1.0, 1.0, adam.m.size)
    adam.v[:] = np.linspace(0.0, 2.0, adam.v.size)
    adam.step_count = 3
    path = tmp_path / "ck.bin"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        save_checkpoint(str(path), model, adam, epoch=2, cfg=cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < model.store.values.nbytes
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "7e9d20f83c567a98f4b29b9b8f1bd83a84bc74bd2de643d1fdf1712def871719")


def test_training_loss_decreases_on_average(tmp_path):
    cfg = tiny_cfg(epochs=12, batch_size=8)
    out = run_training(cfg, tiny_samples(cfg, n_scenes=4), str(tmp_path))
    losses = [s.mean_loss for s in out["history"]]
    assert np.mean(losses[-3:]) < np.mean(losses[:3])


# Each case edits the manifest of a valid checkpoint, which then has to
# fail the resume with a ParseError naming the file.
MALFORMED = {
    "shape": (rb"(tensor \S+ float64 )[0-9,]+", rb"\g<1>2,x"),
    "offset": (rb"(tensor \S+ float64 [0-9,]+ )0", rb"\g<1>zero"),
    "blob_size": (rb"\nblob \d+", rb"\nblob 1e3"),
    "meta_value": (rb"meta seed \d+", rb"meta seed"),
    "missing_epoch": (rb"meta epoch \d+\n", rb""),
    "missing_adam_t": (rb"meta adam_t \d+\n", rb""),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_resume_checkpoint_is_parse_error(tmp_path, case):
    cfg = tiny_cfg()
    model = ReverbPredictor(cfg.model, seed=cfg.seed)
    path = tmp_path / "bad.bin"
    save_checkpoint(str(path), model, Adam(model.store, lr=cfg.lr), 1, cfg)
    raw = path.read_bytes()
    cut = raw.index(b"\nblob ") + 1
    cut = raw.index(b"\n", cut) + 1
    pattern, repl = MALFORMED[case]
    manifest, n = re.subn(pattern, repl, raw[:cut], count=1)
    assert n == 1
    path.write_bytes(manifest + raw[cut:])
    with pytest.raises(ParseError) as err:
        run_training(cfg, tiny_samples(cfg), str(tmp_path / "out"), resume=str(path))
    assert str(path) in str(err.value)
