"""Run configuration: flat key=value sections, diff-friendly.

Grammar (INI as read by configparser, no interpolation):

    [model]
    ; horizons, feature dims, toggles (the ModelConfig fields)
    t_h = 8
    [train]
    lr = 3e-4
    [data]
    manifest = splits.txt
    [output]
    dir = runs/exp

Unknown sections or keys are rejected outright so typos cannot silently
fall back to defaults.  The file must be UTF-8; every error in it names
the file, and the line where configparser reports one.  ``--set section.key=value`` overrides reuse the
same schema.  The config hash is the first 12 hex digits of a sha256
over the sorted canonical ``section.key=value`` lines, so any change of
any effective setting changes the hash.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import os
import typing

from .data import read_text
from .errors import ConfigError, ParseError
from .model import ModelConfig

ENV_OUTPUT_DIR = "REVERB_OUTPUT_DIR"

_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _setting(section: str, default, key: str | None = None):
    """A RunConfig field read from ``[section] key`` (key: the field name)."""
    return dataclasses.field(default=default, metadata={"section": section, "key": key})


@dataclasses.dataclass
class RunConfig:
    model: ModelConfig = dataclasses.field(default_factory=ModelConfig)
    lr: float = _setting("train", 3e-4)
    batch_size: int = _setting("train", 1000)
    epochs: int = _setting("train", 200)
    seed: int = _setting("train", 1)
    checkpoint_every: int = _setting("train", 50)
    manifest: str = _setting("data", "")
    train_split: str = _setting("data", "train")
    eval_split: str = _setting("data", "test")
    output_dir: str = _setting("output", "runs/default", key="dir")

    def validate(self) -> "RunConfig":
        self.model.validate()
        if not 0 < self.lr < float("inf"):
            raise ConfigError(f"learning rate must be positive and finite, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.checkpoint_every < 1:
            raise ConfigError("checkpoint interval must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        return self


def _schema() -> dict:
    """``{section: {key: (attribute, type)}}``: ``[model]`` holds every
    ModelConfig field, the other sections the RunConfig fields whose
    metadata names them."""
    schema = {}
    for cls, fixed in ((ModelConfig, "model"), (RunConfig, None)):
        types = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            section = fixed or f.metadata.get("section")
            if section:
                key = f.metadata.get("key") or f.name
                schema.setdefault(section, {})[key] = (f.name, types[f.name])
    return schema


SCHEMA = _schema()


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def as_sections(cfg: RunConfig) -> dict:
    """Canonical nested dict of every effective setting, as strings."""
    return {
        section: {key: _format(getattr(cfg.model if section == "model" else cfg, attr))
                  for key, (attr, _) in sorted(keys.items())}
        for section, keys in SCHEMA.items()
    }


def _hash_lines(lines) -> str:
    digest = hashlib.sha256("\n".join(sorted(lines)).encode("utf-8")).hexdigest()
    return digest[:12]


def config_hash(cfg: RunConfig) -> str:
    return _hash_lines(
        f"{section}.{key}={value}"
        for section, keys in as_sections(cfg).items()
        for key, value in keys.items()
    )


def model_hash(model: ModelConfig) -> str:
    """Hash of the model section alone; checkpoint compatibility key."""
    return _hash_lines(
        f"model.{key}={_format(getattr(model, attr))}"
        for key, (attr, _) in SCHEMA["model"].items()
    )


def dump_config(cfg: RunConfig) -> str:
    """INI text round-trippable through load_config."""
    out = [f"# config_hash={config_hash(cfg)}"]
    for section, keys in as_sections(cfg).items():
        out.append(f"[{section}]")
        out.extend(f"{key} = {value}" for key, value in keys.items())
        out.append("")
    return "\n".join(out)


def _assign(cfg: RunConfig, section: str, key: str, raw: str):
    """Set ``[section] key`` of ``cfg`` from its text."""
    attr, kind = SCHEMA[section][key]
    raw = raw.strip()
    optional = typing.get_args(kind)  # ``X | None``: empty text is None
    kind = optional[0] if optional else kind
    try:
        if optional and raw == "":
            value = None
        else:
            value = _BOOL_WORDS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"[{section}] {key}: cannot read {raw!r} as {kind.__name__}") from None
    setattr(cfg.model if section == "model" else cfg, attr, value)


def _apply_file(cfg: RunConfig, path):
    """Apply a UTF-8 INI file to ``cfg``; errors give the line where one
    is known, and ``load_config`` prefixes the path."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(read_text(path), source=str(path))
    except OSError as e:
        raise ConfigError(f"config file not found or unreadable ({e.strerror})") from None
    except ParseError as e:
        raise ConfigError(str(e).removeprefix(f"{path}: ")) from None
    except configparser.Error as e:
        if getattr(e, "errors", None):  # lines that are not "key = value"
            line, what = e.errors[0][0], f"cannot parse {e.errors[0][1]}"
        else:  # no section header, or a repeated section or key
            line, what = e.lineno, e.message.splitlines()[0].split("]: ", 1)[-1]
        raise ConfigError(f"line {line}: {what}") from None
    unknown = []
    for section in parser.sections():
        if section not in SCHEMA:
            unknown.append(f"[{section}]")
            continue
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                unknown.append(f"[{section}] {key}")
            else:
                _assign(cfg, section, key, raw)
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))


def load_config(path=None, overrides=()) -> RunConfig:
    """Build a RunConfig from an optional INI file plus --set overrides."""
    cfg = RunConfig()
    if path is not None:
        try:
            _apply_file(cfg, path)
        except ConfigError as e:
            raise ConfigError(f"{path}: {e}") from None
    for spec in overrides:
        if "=" not in spec or "." not in spec.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {spec!r}")
        dotted, raw = spec.split("=", 1)
        section, key = dotted.split(".", 1)
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown config key {section}.{key}")
        _assign(cfg, section, key, raw)
    return cfg.validate()


def resolve_output_dir(cfg: RunConfig, cli_value=None) -> str:
    """Priority: explicit CLI flag, then environment, then config."""
    if cli_value:
        return cli_value
    env = os.environ.get(ENV_OUTPUT_DIR)
    return env if env else cfg.output_dir
