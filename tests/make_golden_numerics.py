"""Golden numerics of the model's forward, loss, gradients and first
Adam steps, written to ``tests/golden_numerics.txt``.

    PYTHONPATH=src python tests/make_golden_numerics.py

``test_golden_numerics.py`` recomputes every value with the functions
below and compares against the file: the forward (predictions, losses)
at rtol 1e-12, gradient figures within 1e-12 of the largest gradient
figure of their case.  Regenerate the file only for an intended change
of the model's math, and say why in CHANGES.md; a refactor or a speed-up
must pass against the file as it stands.

Two cases:

``small.<kind>``  the criterion-7 model shape, seed 1, for the ``haar``
    and ``dft`` transforms, on a fixed 6-sample batch whose samples have
    2, 0, 1, 3, 1 and 2 neighbours: the predictions, the loss, each
    parameter's gradient L2 norm (``norm.<name>``) and the gradient's
    dot product with a fixed random unit vector (``proj.<name>``).
``paper``  the paper-default model, seed 1, on a fixed 4-sample batch:
    the loss, the gradient L2 norm over each name prefix (``enc.``,
    ``non.``, ``soc.``) and the losses after one, two and three Adam
    steps (lr 3e-4, fresh noise per step).
"""

from __future__ import annotations

import os
import sys

import numpy as np

from reverb.data import Sample
from reverb.model import ModelConfig, ReverbPredictor
from reverb.nn import tensor as T
from reverb.nn.optim import Adam
from reverb.transforms import TimeSeq

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_numerics.txt")
SMALL_MODEL = dict(t_h=8, t_f=12, d=32, k_g=8, n_theta=4, tf_layers=1, tf_heads=4)
SMALL_NEIGHBOURS = (2, 0, 1, 3, 1, 2)
PAPER_NEIGHBOURS = (1, 0, 2, 3)
PREFIXES = ("enc.", "non.", "soc.")
ADAM_STEPS = 3
DT = 0.4


def _track(rng, frames: int) -> np.ndarray:
    """A turning walk: (frames, 2) positions."""
    heading = rng.uniform(0.0, 2.0 * np.pi) + np.cumsum(rng.normal(scale=0.15, size=frames))
    speed = rng.uniform(0.8, 1.6)
    steps = speed * DT * np.stack([np.cos(heading), np.sin(heading)], axis=1)
    return rng.normal(scale=3.0, size=2) + np.cumsum(steps, axis=0)


def make_batch(neighbours, t_h: int = 8, t_f: int = 12, seed: int = 2024) -> list:
    """Samples with the given neighbour counts, from one seeded stream."""
    rng = np.random.default_rng(seed)
    samples = []
    for i, n in enumerate(neighbours):
        ego = _track(rng, t_h + t_f)
        nbrs = tuple(TimeSeq(_track(rng, t_h), DT) for _ in range(n))
        samples.append(Sample(ego=TimeSeq(ego[:t_h], DT), neighbors=nbrs,
                              gt=TimeSeq(ego[t_h:], DT), scene_id="golden",
                              agent_id=f"a{i}", start_frame=float(i)))
    return samples


def _loss_and_grads(model, batch, noise):
    model.store.zero_grad()
    loss, pred, _ = model.loss(batch, noise)
    T.backward(loss)
    return loss, pred


def small_case(kind: str) -> dict:
    model = ReverbPredictor(ModelConfig(transform=kind, **SMALL_MODEL), seed=1)
    batch = model.encode(make_batch(SMALL_NEIGHBOURS))
    noise = model.draw_noise(np.random.default_rng(7))
    loss, pred = _loss_and_grads(model, batch, noise)
    out = {f"small.{kind}.pred": pred.data.ravel(), f"small.{kind}.loss": loss.data}
    rng = np.random.default_rng(11)
    for name, p in model.store.items():
        u = rng.standard_normal(p.data.size)
        g = p.grad.ravel()
        out[f"small.{kind}.norm.{name}"] = np.linalg.norm(g)
        out[f"small.{kind}.proj.{name}"] = g @ (u / np.linalg.norm(u))
    return out


def paper_case() -> dict:
    model = ReverbPredictor(ModelConfig(), seed=1)
    adam = Adam(model.store, lr=3e-4)
    batch = model.encode(make_batch(PAPER_NEIGHBOURS))
    rng = np.random.default_rng(1)
    losses = []
    for step in range(ADAM_STEPS + 1):
        loss, _ = _loss_and_grads(model, batch, model.draw_noise(rng))
        losses.append(float(loss.data))
        if step == 0:
            norms = {prefix: np.sqrt(sum(float(np.sum(p.grad * p.grad))
                                         for name, p in model.store.items()
                                         if name.startswith(prefix)))
                     for prefix in PREFIXES}
        adam.step()
    out = {"paper.loss": losses[0], "paper.adam_losses": losses[1:]}
    out.update({f"paper.norm.{prefix}": v for prefix, v in norms.items()})
    return out


def compute() -> dict:
    out = {}
    for kind in ("haar", "dft"):
        out.update(small_case(kind))
    out.update(paper_case())
    return {k: np.atleast_1d(np.asarray(v, dtype=np.float64)) for k, v in out.items()}


def read_golden(path: str = GOLDEN_PATH) -> dict:
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            key, *values = line.split()
            out[key] = np.array([float(v) for v in values])
    return out


def write_golden(values: dict, path: str = GOLDEN_PATH):
    with open(path, "w", encoding="utf-8") as f:
        f.write("# Written by tests/make_golden_numerics.py; see its docstring.\n")
        for key, v in values.items():
            f.write(key + " " + " ".join(f"{x:.17g}" for x in v) + "\n")


if __name__ == "__main__":
    write_golden(compute(), sys.argv[1] if len(sys.argv) > 1 else GOLDEN_PATH)
