"""The three workloads: set-up, timed phase, and the checks on outputs.

Each is a closed loop with one client: this process makes synchronous
calls into reverb's public entry points and times them.  Inputs come
from ``synth_latency_scenes`` seeded by the workload seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import tempfile
import time

import numpy as np

from reverb import (ModelConfig, ReverbPredictor, RunConfig, SynthLatencySpec,
                    linear_fit, make_windows, min_ade_fde, preprocess,
                    run_training, synth_latency_scenes)
from reverb.nn import tensor as T
from reverb.nn.optim import Adam

from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# The criterion-7 model shape, shared by train_small and predict_crowd.
SMALL_MODEL = dict(t_h=8, t_f=12, d=32, k_g=8, n_theta=4, tf_layers=1, tf_heads=4)
# The workload seed makes the corpora; every model starts from the
# criterion-7 training seed, so that quality figures vary with the inputs
# only (an untrained model's error varies far more with its init).
MODEL_SEED = 1
# train_small repeats criterion 7's own training run (its corpus seed 11)
# and scores it on a held-out corpus from the workload seed.  A training
# corpus drawn from the workload seed moves the held-out ratio by about
# 20% from seed to seed (0.41 to 0.62 over seeds 1-10), which would hide
# any quality change a later commit makes.
TRAIN_SMALL_CORPUS_SEED = 11
HELD_OUT_SEED_OFFSET = 100003   # held-out corpus seed = workload seed + this
MIN_ADE_GATE = 0.70             # criterion 7: held-out minADE_8 / linear
PREDICT_ATOL = 1e-9             # metres; alone-vs-chunk and y_lin checks
DIGEST_STEPS = 3                # train_paper losses compared across runs
SETUP_REPEATS = 5


def latency_corpus(n_scenes: int, seed: int, n_agents: int = 2, n_frames: int = 20):
    """Delayed-turn scenes cut into 8 -> 12 windows."""
    spec = SynthLatencySpec(n_scenes=n_scenes, n_agents=n_agents, n_frames=n_frames,
                            t_e=8, deltas=(0, 1, 2, 3), duration=4, sigma=0.05,
                            seed=seed)
    scenes, _ = synth_latency_scenes(spec)
    return [w for scene in scenes for w in make_windows(scene, 8, 12)]


def ade_ratio(values, y_lin, gt) -> float:
    """Mean best-of-K ADE over mean linear-baseline ADE."""
    model = [min_ade_fde(v, g)[0] for v, g in zip(values, gt)]
    base = [min_ade_fde(y[None], g)[0] for y, g in zip(y_lin, gt)]
    return float(np.mean(model) / np.mean(base))


def tail(values):
    """The highest nearest-rank percentile, at most the 90th, that has at
    least ten samples beyond it; returns (value, percentile).  With ten
    samples or fewer, the maximum (percentile 100)."""
    ordered = sorted(values)
    n = len(ordered)
    rank = min(int(np.ceil(0.9 * n)), n - 10) if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n


class Bench:
    """One benchmark run: settings, the tracer, metrics, checks, digest."""

    def __init__(self, seed: int, seconds: float, traced: bool, smoke: bool,
                 import_s: list, out_dir: str):
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.import_s = import_s
        self.out_dir = out_dir
        self.tracer = Tracer(traced)
        self.metrics = {}
        self.details = {}
        self.checks = []
        self.ops = 0
        self._digest = hashlib.sha256()

    def check(self, name: str, ok, detail=None):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def digest(self, *arrays):
        """Fold outputs (arrays of floats, or bytes) into the digest that
        must not depend on tracing."""
        for a in arrays:
            self._digest.update(
                a if isinstance(a, bytes) else np.asarray(a, dtype=np.float64).tobytes())

    def digest_hex(self) -> str:
        return self._digest.hexdigest()

    def setup(self, build):
        """``setup_s`` = the median start-up and import time plus the
        median of several builds."""
        reps = 2 if self.smoke else SETUP_REPEATS
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            state = build()
            times.append(time.perf_counter() - t0)
        self.metrics["setup_s"] = statistics.median(self.import_s) + statistics.median(times)
        self.details["setup_build_s"] = times
        self.details["import_s"] = self.import_s
        return state

    def running(self, start: float, steps: int, min_steps: int) -> bool:
        return steps < min_steps or time.perf_counter() - start < self.seconds

    def peak_rss(self):
        self.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    def timing(self, step_ms, samples: int, phase_s: float):
        """Step percentiles, samples/s and wall time of the timed phase."""
        p90, pct = tail(step_ms)
        self.metrics.update(
            step_ms_p50=statistics.median(step_ms), step_ms_p90=p90,
            samples_per_s=samples / phase_s, run_s=phase_s)
        self.details.update(step_count=len(step_ms), step_ms_p90_percentile=pct,
                            samples_timed=samples, step_ms=step_ms)

    def steady_timing(self, sizes):
        """Timing over the steps of a loop the benchmark drives, without
        the first (warm-up) step; ``sizes`` are the samples per step."""
        if self.tracer.traced:
            return
        steps = self.tracer.steps[1:]
        self.timing([(e - s) * 1e3 for _, _, s, e in steps],
                    sum(sizes[i] for i, _, _, _ in steps),
                    steps[-1][3] - steps[0][2])


# ----------------------------------------------------------------------
# train_paper


def _paper_step(model, adam, batch, rng):
    """One optimizer step, as the loop in ``run_training`` makes it."""
    noise = model.draw_noise(rng)
    model.store.zero_grad()
    loss, pred, _ = model.loss(batch, noise)
    T.backward(loss)
    adam.step()
    return float(loss.data), pred.data


def reference_losses(steps: int, seed: int = MODEL_SEED, windows: int = 60):
    """Losses of the first paper-default steps on a fixed corpus; the
    values stored in reference.json come from this function."""
    model = ReverbPredictor(ModelConfig(), seed=seed)
    adam = Adam(model.store, lr=3e-4)
    batch = model.encode(latency_corpus(windows // 2, seed))
    rng = np.random.default_rng(seed)
    return [_paper_step(model, adam, batch, rng)[0] for _ in range(steps)]


def train_paper(b: Bench):
    windows = 4 if b.smoke else 60

    def build():
        model = ReverbPredictor(ModelConfig(), seed=MODEL_SEED)
        adam = Adam(model.store, lr=3e-4)
        return model, adam, model.encode(latency_corpus(windows // 2, b.seed))

    model, adam, batch = b.setup(build)
    tr = b.tracer
    rng = np.random.default_rng(MODEL_SEED)
    min_steps = 6 if tr.traced else DIGEST_STEPS
    losses, ratio = [], None
    start = time.perf_counter()
    while b.running(start, len(losses), min_steps):
        tr.begin_step("train.step")
        try:
            loss, pred = _paper_step(model, adam, batch, rng)
        finally:
            tr.end_step()
        if not losses:
            ratio = ade_ratio(pred, batch.y_lin, batch.gt)
        losses.append(loss)
    b.ops += len(losses)
    b.peak_rss()
    b.steady_timing([batch.size] * len(losses))
    b.metrics["min_ade_ratio"] = ratio
    b.details["batch"] = batch.size
    b.digest(losses[:DIGEST_STEPS])
    b.check("losses finite", np.isfinite(losses).all(), len(losses))

    with open(REFERENCE_PATH, encoding="utf-8") as f:
        ref = json.load(f)["train_paper"]
    got = reference_losses(len(ref["losses"]), ref["seed"], ref["windows"])
    ok = np.allclose(got, ref["losses"], rtol=ref["rtol"], atol=0.0)
    b.check("first losses match reference", ok, {"got": got, "want": ref["losses"]})


# ----------------------------------------------------------------------
# train_small


def small_config(epochs: int) -> RunConfig:
    cfg = RunConfig()
    cfg.model = ModelConfig(**SMALL_MODEL)
    cfg.epochs, cfg.batch_size, cfg.lr, cfg.seed = epochs, 25, 3e-3, MODEL_SEED
    return cfg


def train_small(b: Bench):
    n_train, n_held, epochs = (20, 5, 3) if b.smoke else (200, 50, 50)
    cfg = small_config(epochs)

    def build():
        train = latency_corpus(n_train, TRAIN_SMALL_CORPUS_SEED)
        held = latency_corpus(n_held, b.seed + HELD_OUT_SEED_OFFSET)
        ReverbPredictor(cfg.model, seed=cfg.seed).encode(train)
        return train, held

    train, held = b.setup(build)
    tr = b.tracer
    tr.install_step_clock("train.step")
    run_dir = tempfile.mkdtemp(prefix="train_small-", dir=b.out_dir)
    try:
        t0 = time.perf_counter()
        with tr.phase():
            out = run_training(cfg, train, run_dir)
        run_s = time.perf_counter() - t0
        with open(out["final_checkpoint"], "rb") as f:
            checkpoint = f.read()
    finally:
        shutil.rmtree(run_dir)
    b.ops += len(tr.steps)
    b.peak_rss()
    if not tr.traced:
        b.timing(tr.durations_ms("plain"), len(train) * epochs, run_s)
    losses = [s.mean_loss for s in out["history"]]
    b.check("losses finite", np.isfinite(losses).all(), len(losses))

    preds = out["model"].predict(held)
    values = np.stack([p.values for p in preds])
    ratio = ade_ratio(values, [p.y_lin for p in preds], [s.gt.values for s in held])
    b.metrics["min_ade_ratio"] = ratio
    b.details.update(train_windows=len(train), held_out_windows=len(held))
    if not b.smoke:
        b.check(f"held-out minADE_8 ratio <= {MIN_ADE_GATE}", ratio <= MIN_ADE_GATE,
                ratio)
    b.digest(losses, checkpoint, values)


# ----------------------------------------------------------------------
# predict_crowd


def predict_crowd(b: Bench):
    n_scenes, chunk = (2, 32) if b.smoke else (64, 256)
    cfg = ModelConfig(**SMALL_MODEL)
    shape = (cfg.k_g, cfg.t_f, cfg.m)

    def build():
        samples = latency_corpus(n_scenes, b.seed, n_agents=8, n_frames=24)
        model = ReverbPredictor(cfg, seed=MODEL_SEED)
        return model, samples, [samples[i:i + chunk] for i in range(0, len(samples), chunk)]

    model, samples, chunks = b.setup(build)
    tr = b.tracer
    first = [None] * len(chunks)
    sizes, well_formed, repeatable = [], True, True
    min_steps = max(len(chunks), 6 if tr.traced else 2)
    start = time.perf_counter()
    while b.running(start, len(sizes), min_steps):
        c = len(sizes) % len(chunks)
        tr.begin_step("model.predict")
        try:
            preds = model.predict(chunks[c])
        finally:
            tr.end_step()
        sizes.append(len(preds))
        well_formed &= len(preds) == len(chunks[c]) and all(
            p.values.shape == shape and np.isfinite(p.values).all() for p in preds)
        values = np.stack([p.values for p in preds])
        if first[c] is None:
            first[c] = (values, np.stack([p.y_lin for p in preds]))
        else:
            repeatable &= np.array_equal(values, first[c][0])
    b.ops += len(sizes)
    b.peak_rss()
    b.steady_timing(sizes)
    b.check("outputs finite with shape (k_g, t_f, m)", well_formed)
    b.check("repeated chunks give identical outputs", repeatable)

    values = np.concatenate([v for v, _ in first])
    y_lin = np.concatenate([y for _, y in first])
    want = [linear_fit(s.ego.values, cfg.t_f).predicted + s.offset
            for s in map(preprocess, samples)]
    err = float(np.max(np.abs(y_lin - np.stack(want))))
    b.check("y_lin equals linear_fit of the preprocessed ego", err <= PREDICT_ATOL, err)
    picks = sorted({0, len(samples) // 2, len(samples) - 1})
    alone = np.stack([model.predict([samples[i]])[0].values for i in picks])
    err = float(np.max(np.abs(alone - values[picks])))
    b.check("alone equals inside a chunk", err <= PREDICT_ATOL, err)
    b.metrics["min_ade_ratio"] = ade_ratio(values, y_lin, [s.gt.values for s in samples])
    b.details.update(windows=len(samples), chunk=chunk, neighbours=len(samples[0].neighbors))
    b.digest(values)


WORKLOADS = {
    "train_paper": train_paper,
    "train_small": train_small,
    "predict_crowd": predict_crowd,
}
