import hashlib
import os
import re

import pytest

from reverb.config import (
    RunConfig,
    as_sections,
    config_hash,
    dump_config,
    load_config,
    model_hash,
    resolve_output_dir,
)
from reverb.errors import ConfigError
from reverb.model import ModelConfig


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_defaults_without_file():
    cfg = load_config()
    assert cfg.lr == 3e-4
    assert cfg.batch_size == 1000
    assert cfg.epochs == 200
    assert cfg.seed == 1
    assert cfg.model.t_h == 8
    assert cfg.model.transform == "haar"
    assert cfg.train_split == "train"
    assert cfg.eval_split == "test"


def test_file_values_override_defaults(tmp_path):
    path = write(tmp_path, "[model]\nt_h = 12\ntransform = db2\n[train]\nlr = 1e-2\n")
    cfg = load_config(path)
    assert cfg.model.t_h == 12
    assert cfg.model.transform == "db2"
    assert cfg.lr == 1e-2
    assert cfg.epochs == 200


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "nope.ini"))


def test_unknown_section_and_key_listed(tmp_path):
    path = write(tmp_path, "[model]\nt_hh = 8\n[foo]\nx = 1\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "[foo]" in str(err.value)
    assert "[model] t_hh" in str(err.value)


def test_unknown_keys_reported_together(tmp_path):
    path = write(tmp_path, "[train]\nlrr = 1\nepoch = 2\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "lrr" in str(err.value) and "epoch" in str(err.value)


def test_set_overrides_apply_last(tmp_path):
    path = write(tmp_path, "[train]\nepochs = 7\n")
    cfg = load_config(path, ["train.epochs=9", "model.d=32"])
    assert cfg.epochs == 9
    assert cfg.model.d == 32


def test_malformed_override_rejected():
    with pytest.raises(ConfigError, match="section.key=value"):
        load_config(None, ["epochs=9"])
    with pytest.raises(ConfigError, match="section.key=value"):
        load_config(None, ["train.epochs"])


def test_unknown_override_key_rejected():
    with pytest.raises(ConfigError, match="train.epoch"):
        load_config(None, ["train.epoch=9"])


def test_bool_words_accepted():
    for word, value in [("true", True), ("on", True), ("1", True),
                        ("FALSE", False), ("no", False), ("0", False)]:
        cfg = load_config(None, [f"model.use_soc={word}"])
        assert cfg.model.use_soc is value


def test_bad_bool_rejected():
    with pytest.raises(ConfigError, match="use_soc"):
        load_config(None, ["model.use_soc=maybe"])


def test_bad_int_and_float_rejected():
    with pytest.raises(ConfigError, match="t_h"):
        load_config(None, ["model.t_h=eight"])
    with pytest.raises(ConfigError, match="lr"):
        load_config(None, ["train.lr=fast"])


def test_optional_int_empty_means_none():
    cfg = load_config(None, ["model.noise_dim="])
    assert cfg.model.noise_dim is None
    cfg = load_config(None, ["model.noise_dim=6"])
    assert cfg.model.noise_dim == 6


def test_values_are_validated():
    with pytest.raises(ConfigError):
        load_config(None, ["model.t_h=0"])
    with pytest.raises(ConfigError):
        load_config(None, ["train.lr=-1"])
    with pytest.raises(ConfigError):
        load_config(None, ["train.batch_size=0"])
    for key, value in [("tf_heads", 0), ("tf_heads", -2), ("tf_layers", 0), ("tf_layers", -1)]:
        with pytest.raises(ConfigError, match=f"{key} >= 1"):
            load_config(None, [f"model.{key}={value}"])
    for key, text in [("train.lr", "learning rate"), ("model.dt", "dt")]:
        for value in ("nan", "inf", "-inf", "0"):
            with pytest.raises(ConfigError, match=f"{text} must be positive and finite, got"):
                load_config(None, [f"{key}={value}"])


def test_dump_round_trips(tmp_path):
    cfg = load_config(None, ["model.d=48", "model.use_soc=false",
                             "train.epochs=3", "output.dir=runs/x"])
    path = write(tmp_path, dump_config(cfg), "dumped.ini")
    again = load_config(path)
    assert as_sections(again) == as_sections(cfg)
    assert config_hash(again) == config_hash(cfg)


def test_dump_carries_hash_comment():
    cfg = RunConfig()
    text = dump_config(cfg)
    assert text.splitlines()[0] == f"# config_hash={config_hash(cfg)}"


def test_hash_is_stable_and_sensitive():
    a = RunConfig()
    b = RunConfig()
    assert config_hash(a) == config_hash(b)
    b.epochs = 201
    assert config_hash(a) != config_hash(b)
    c = RunConfig()
    c.model.use_soc = False
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 12


class TestDefaultConfigPin:
    """The default config's text and hashes are pinned: a change to how
    the settings are declared or read must not move one byte of them."""

    DUMP_SHA = "5888a6d7dd6d87ee48ec2b8130f35aba1c5214ee2b9507a30cb838bc571d7976"

    def test_dump_config_bytes(self):
        text = dump_config(RunConfig())
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.DUMP_SHA

    def test_config_and_model_hash(self):
        assert config_hash(RunConfig()) == "48b07c162882"
        assert model_hash(ModelConfig()) == "bd00948c519e"


def test_model_hash_ignores_training_keys():
    a = RunConfig()
    b = RunConfig()
    b.epochs = 999
    b.lr = 1.0
    assert model_hash(a.model) == model_hash(b.model)
    b.model.transform = "db2"
    assert model_hash(a.model) != model_hash(b.model)


def test_model_hash_differs_for_same_shaped_variants():
    # haar and db2 spectra have identical shapes; the hash must still
    # tell their checkpoints apart.
    a = ModelConfig(transform="haar")
    b = ModelConfig(transform="db2")
    assert model_hash(a) != model_hash(b)


def test_readme_example_loads(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        section = f.read().split("## Configuration", 1)[1]
    block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    cfg = load_config(write(tmp_path, block))
    assert cfg.model == ModelConfig()
    assert cfg.model.noise_dim is None
    assert cfg.manifest == "data/manifest.txt"
    assert cfg.output_dir == "runs/default"


def test_output_dir_priority(tmp_path, monkeypatch):
    cfg = RunConfig()
    cfg.output_dir = "from_config"
    monkeypatch.delenv("REVERB_OUTPUT_DIR", raising=False)
    assert resolve_output_dir(cfg) == "from_config"
    monkeypatch.setenv("REVERB_OUTPUT_DIR", "from_env")
    assert resolve_output_dir(cfg) == "from_env"
    assert resolve_output_dir(cfg, "from_cli") == "from_cli"


def test_every_schema_key_maps_to_an_attribute():
    cfg = RunConfig()
    sections = as_sections(cfg)
    for section, keys in sections.items():
        for key, text in keys.items():
            assert isinstance(text, str)
    # Dumping default config and re-reading it is the identity.
    assert sections == as_sections(load_config())
