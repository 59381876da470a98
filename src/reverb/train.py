"""Training loop: deterministic batching, logging, checkpointing.

Every epoch draws its own generator seeded by (run seed, epoch index),
so a resumed run consumes exactly the random stream the uninterrupted
run would have, and two runs with the same seed produce byte-identical
checkpoints and logs.  Checkpoints hold the float64 state as trained, so
a resumed run writes the same bytes as an uninterrupted one.  This
module alone names the checkpoint keys: each parameter's name, the same
name under ``adam.m.`` and ``adam.v.``, and the meta fields.  The loop
is single-threaded by design; that is the reference path the
determinism guarantees are stated for.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, config_hash, model_hash
from .errors import ConfigError, ParseError
from .model import ReverbPredictor
from .nn import checkpoint
from .nn import tensor as T
from .nn.optim import Adam


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float


def save_checkpoint(path, model: ReverbPredictor, adam: Adam, epoch: int,
                    cfg: RunConfig):
    store = model.store
    arrays = {**store.state_arrays(), **store.state_arrays(adam.m, "adam.m."),
              **store.state_arrays(adam.v, "adam.v.")}
    meta = {
        "epoch": epoch,
        "seed": cfg.seed,
        "config_hash": config_hash(cfg),
        "model_hash": model_hash(cfg.model),
        "adam_t": adam.step_count,
    }
    checkpoint.save(path, arrays, meta)


def load_model(path, cfg: RunConfig) -> tuple:
    """Build a model from config and fill it from a checkpoint.

    Returns (model, arrays, meta); raises ConfigError naming the checkpoint,
    with its first dimension mismatches when it disagrees with the config,
    or a hash comparison when shapes agree but settings do not.
    """
    arrays, meta = checkpoint.load(path)
    model = ReverbPredictor(cfg.model, seed=cfg.seed)
    try:
        model.store.load_arrays({k: v for k, v in arrays.items() if not k.startswith("adam.")})
    except ConfigError as e:
        raise ConfigError(f"checkpoint {path}: {e}") from None
    want = model_hash(cfg.model)
    got = meta.get("model_hash", "")
    if got and got != want:
        raise ConfigError(
            f"checkpoint {path} was written with different model settings "
            f"(model_hash {got}, config wants {want})"
        )
    return model, arrays, meta


def _meta_int(meta: dict, key: str, path) -> int:
    """An integer meta entry a resume needs, or ParseError naming the file."""
    try:
        return int(float(meta[key]))
    except (KeyError, ValueError, OverflowError):
        raise ParseError(f"meta {key!r} is missing or not a number", path=path) from None


def write_loss_log(path, history, cfg: RunConfig):
    lines = [f"# config_hash={config_hash(cfg)} seed={cfg.seed}",
             "epoch,mean_loss"]
    lines.extend(f"{s.epoch},{s.mean_loss:.17g}" for s in history)
    checkpoint.atomic_write(path, "\n".join(lines) + "\n")


def run_training(cfg: RunConfig, samples, out_dir, resume=None,
                 progress=None) -> dict:
    """Train on the given samples; write logs and checkpoints under out_dir.

    Returns a summary dict with the final checkpoint path and history.
    ``resume`` continues epoch numbering from an earlier final checkpoint.
    """
    cfg.validate()
    if not samples:
        raise ConfigError("no training samples after windowing")

    if resume is None:
        model = ReverbPredictor(cfg.model, seed=cfg.seed)
    else:
        model, arrays, meta = load_model(resume, cfg)
    adam = Adam(model.store, lr=cfg.lr)
    start_epoch = 0
    if resume is not None:
        try:  # the weights matched, so a bad moment is the file's fault
            model.store.load_arrays(arrays, adam.m, "adam.m.")
            model.store.load_arrays(arrays, adam.v, "adam.v.")
        except ConfigError as e:
            raise ParseError(str(e), path=resume) from None
        adam.step_count = _meta_int(meta, "adam_t", resume)
        start_epoch = _meta_int(meta, "epoch", resume)
        if start_epoch > cfg.epochs:
            raise ConfigError(f"checkpoint {resume} is at epoch {start_epoch}, "
                              f"past train.epochs = {cfg.epochs}")

    ckpt_dir = os.path.join(out_dir, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)
    encoded = model.encode(samples)
    n = encoded.size
    history = []
    for epoch in range(start_epoch, cfg.epochs):
        rng = np.random.default_rng([cfg.seed, epoch])
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            sub = encoded.subset(idx)
            noise = model.draw_noise(rng)
            model.store.zero_grad()
            loss, _, _ = model.loss(sub, noise)
            T.backward(loss)
            adam.step()
            total += float(loss.data) * len(idx)
        model.store.check_finite(f"parameter after epoch {epoch + 1}")
        stats = EpochStats(epoch=epoch + 1, mean_loss=total / n)
        history.append(stats)
        if progress is not None:
            progress(stats)
        if (epoch + 1) % cfg.checkpoint_every == 0 and (epoch + 1) < cfg.epochs:
            save_checkpoint(
                os.path.join(ckpt_dir, f"epoch{epoch + 1:04d}.bin"),
                model, adam, epoch + 1, cfg,
            )
    final_path = os.path.join(ckpt_dir, "final.bin")
    save_checkpoint(final_path, model, adam, cfg.epochs, cfg)
    write_loss_log(os.path.join(out_dir, "loss_log.csv"), history, cfg)
    return {
        "model": model,
        "final_checkpoint": final_path,
        "history": history,
        "config_hash": config_hash(cfg),
    }
