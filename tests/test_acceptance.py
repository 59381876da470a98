"""Top-level acceptance gate, one test per criterion.

Each test prints one summary line with the measured quantities (visible
under ``pytest -s`` and on failure); the pytest verbose line itself is
the pass/fail record.  The scaled experiments (criteria 7-9) pin their
corpus seeds, model seeds, and hyperparameters so reruns are exact.
"""

import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from oracles import matrix_rank, rank_report, reverberation_transform
from reverb import cli, curves, metrics, transforms
from reverb.config import RunConfig
from reverb.data import SynthLatencySpec, make_windows, synth_latency_scenes
from reverb.model import ModelConfig, ReverbKernelPair, ReverbPredictor
from reverb.nn.gradcheck import grad_check
from reverb.train import run_training

KINDS_TIGHT = ("haar", "none")
KINDS_LOOSE = ("dft", "db2")


def _bounded(rng, shape):
    """A random kernel inside the open (-1, 1) bound."""
    return np.tanh(rng.normal(size=shape))


def _low_rank(rng, rows, cols, rank, scale=0.9):
    a = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
    peak = np.abs(a).max()
    return a * (scale / peak) if peak > 0 else a


def _spearman(x, y):
    def ranks(v):
        v = np.asarray(v, dtype=float)
        out = np.empty(v.size)
        out[np.argsort(v, kind="stable")] = np.arange(1.0, v.size + 1)
        for val in np.unique(v):
            tie = v == val
            out[tie] = out[tie].mean()
        return out

    rx, ry = ranks(x), ranks(y)
    sx, sy = rx - rx.mean(), ry - ry.mean()
    denom = np.sqrt((sx * sx).sum() * (sy * sy).sum())
    return float((sx * sy).sum() / denom) if denom else 0.0


def test_criterion_01_transform_round_trip():
    rng = np.random.default_rng(10)
    start = time.time()
    worst = {}
    for kind in KINDS_TIGHT + KINDS_LOOSE:
        errs = []
        for _ in range(1000):
            t = 2 * int(rng.integers(1, 17))
            m = int(rng.integers(1, 4))
            x = rng.normal(scale=5.0, size=(t, m))
            w = transforms.inverse_matrix(kind, t, m)
            back = (transforms.forward_values(x, kind).ravel() @ w).reshape(t, m)
            errs.append(np.abs(back - x).max())
        worst[kind] = max(errs)
    elapsed = time.time() - start
    for kind in KINDS_TIGHT:
        assert worst[kind] <= 1e-9, (kind, worst[kind])
    for kind in KINDS_LOOSE:
        assert worst[kind] <= 1e-6, (kind, worst[kind])
    assert elapsed < 10.0, elapsed
    print(f"\ncriterion 1: PASS round-trip worst "
          + " ".join(f"{k}={worst[k]:.2e}" for k in worst)
          + f" in {elapsed:.1f}s")


def test_criterion_02_transform_linearity():
    rng = np.random.default_rng(20)
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        t = int(rng.integers(2, 11))
        t_f = int(rng.integers(1, 7))
        k_g = int(rng.integers(1, 7))
        d = int(rng.integers(1, 5))
        pair = ReverbKernelPair(r=_bounded(rng, (t, t_f)),
                                g=_bounded(rng, (t, k_g)))
        f1 = rng.normal(size=(t, t, d))
        f2 = rng.normal(size=(t, t, d))
        a, b = rng.normal(size=2)
        combined = reverberation_transform(a * f1 + b * f2, pair)
        split = (a * reverberation_transform(f1, pair)
                 + b * reverberation_transform(f2, pair))
        worst = max(worst, np.abs(combined - split).max())
    elapsed = time.time() - start
    assert worst <= 1e-9, worst
    assert elapsed < 10.0, elapsed
    print(f"\ncriterion 2: PASS linearity worst {worst:.2e} in {elapsed:.1f}s")


def test_criterion_03_rank_bound():
    rng = np.random.default_rng(30)
    checked = 0
    for _ in range(500):
        t = int(rng.integers(3, 9))
        t_f = int(rng.integers(2, 7))
        k_g = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        pair = ReverbKernelPair(
            r=_low_rank(rng, t, t_f, int(rng.integers(1, min(t, t_f) + 1))),
            g=_low_rank(rng, t, k_g, int(rng.integers(1, min(t, k_g) + 1))),
        )
        sim = np.stack(
            [_low_rank(rng, t, t, int(rng.integers(1, t + 1)), scale=3.0)
             for _ in range(d)], axis=2)
        report = rank_report(pair, sim)  # raises NumericError on violation
        out = reverberation_transform(sim, pair)
        for i in range(d):
            bound = min(report.rank_g, report.rank_sim[i], report.rank_r)
            assert matrix_rank(out[:, :, i]) <= bound
            checked += 1
    print(f"\ncriterion 3: PASS rank bound held on {checked} output slices")


def test_criterion_04_end_to_end_gradient():
    config = ModelConfig(t_h=4, t_f=6, d=8, k_g=4, n_theta=4,
                         tf_layers=1, tf_heads=2)
    model = ReverbPredictor(config, seed=3)
    spec = SynthLatencySpec(n_scenes=1, n_agents=3, n_frames=10, t_e=2,
                            deltas=(0, 1), duration=1, sigma=0.05, seed=3)
    scenes, _ = synth_latency_scenes(spec)
    samples = make_windows(scenes[0], config.t_h, config.t_f)
    assert samples and samples[0].neighbors
    batch = model.encode(samples)
    noise = model.draw_noise(np.random.default_rng(3))

    def fn():
        loss, _, _ = model.loss(batch, noise)
        return loss

    start = time.time()
    report = grad_check(fn, model.store, max_per_param=8,
                        rng=np.random.default_rng(3))
    elapsed = time.time() - start
    assert report.passed(1e-3), report.summary()
    assert elapsed < 60.0, elapsed
    print(f"\ncriterion 4: PASS {report.summary()} in {elapsed:.1f}s")


def test_criterion_05_curve_oracle():
    rng = np.random.default_rng(50)

    def brute_normalized(w):
        sq = w * w
        out = np.empty_like(sq)
        for t in range(sq.shape[1]):
            denom = sq[:, t].sum()
            out[:, t] = sq[:, t] / denom if denom > 0 else 1.0 / sq.shape[0]
        return out

    worst = 0.0
    norm_worst = 0.0
    for _ in range(200):
        t_h = int(rng.integers(2, 7))
        t_f = int(rng.integers(2, 7))
        k_g = int(rng.integers(1, 5))
        n_theta = int(rng.integers(1, 4))
        r = _bounded(rng, (t_h, t_f))
        g = _bounded(rng, (t_h, k_g))
        r_soc = _bounded(rng, (n_theta * t_h, t_f))
        g_soc = _bounded(rng, (n_theta * t_h, k_g))
        k = int(rng.integers(1, k_g + 1))
        n = int(rng.integers(1, n_theta + 1))
        block = slice((n - 1) * t_h, n * t_h)

        non, non_deg = curves.branch_curves(r, g, [k])
        soc, soc_deg = curves.branch_curves(r_soc, g_soc, [k], n_theta)
        cases = [
            (non[0, 0], non_deg[0, 0], brute_normalized(r)),
            (non[0, 1], non_deg[0, 1], brute_normalized(r * g[:, [k - 1]])),
            (soc[n - 1, 0], soc_deg[n - 1, 0], brute_normalized(r_soc[block])),
            (soc[n - 1, 1], soc_deg[n - 1, 1],
             brute_normalized((r_soc * g_soc[:, [k - 1]])[block])),
        ]
        for stack, degenerate, want in cases:
            worst = max(worst, np.abs(stack - want).max())
            keys_sum = stack.sum(axis=0)
            if not degenerate.any():
                norm_worst = max(norm_worst, np.abs(keys_sum - 1.0).max())

        # A constant G column must cancel in the normalization exactly.
        g_const = g.copy()
        g_const[:, k - 1] = 1.0
        plain = curves.branch_curves(r)[0][0, 0]
        altered = curves.branch_curves(r, g_const, [k])[0][0, 1]
        assert np.array_equal(plain, altered)

    assert worst <= 1e-12, worst
    assert norm_worst <= 1e-9, norm_worst
    print(f"\ncriterion 5: PASS curve oracle worst {worst:.2e}, "
          f"normalization worst {norm_worst:.2e}, constant-column exact")


def test_criterion_06_metric_oracle():
    rng = np.random.default_rng(60)

    def oracle(pred, gt):
        ades, fdes = [], []
        for row in pred:
            d = [float(np.linalg.norm(row[t] - gt[t])) for t in range(len(gt))]
            ades.append(sum(d) / len(d))
            fdes.append(d[-1])
        mean = sum(ades) / len(ades)
        std = (sum((a - mean) ** 2 for a in ades) / len(ades)) ** 0.5
        fmean = sum(fdes) / len(fdes)
        fstd = (sum((f - fmean) ** 2 for f in fdes) / len(fdes)) ** 0.5
        return min(ades), min(fdes), mean, std, fmean, fstd

    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 9))
        t = int(rng.integers(1, 13))
        m = int(rng.integers(1, 4))
        pred = rng.normal(scale=3.0, size=(k, t, m))
        gt = rng.normal(scale=3.0, size=(t, m))
        o_min_ade, o_min_fde, o_ma, o_sa, o_mf, o_sf = oracle(pred, gt)
        min_ade, min_fde = metrics.min_ade_fde(pred, gt)
        mean_ade, std_ade, mean_fde, std_fde = metrics.stat_ade_fde(pred, gt)
        for got, want in [(min_ade, o_min_ade), (min_fde, o_min_fde),
                          (mean_ade, o_ma), (std_ade, o_sa),
                          (mean_fde, o_mf), (std_fde, o_sf)]:
            worst = max(worst, abs(got - want))
        # Nested prediction sets: more rows can only help the minimum.
        seq = [metrics.min_ade_fde(pred[:i], gt)[0] for i in range(1, k + 1)]
        assert all(b <= a + 1e-15 for a, b in zip(seq, seq[1:]))
    assert worst <= 1e-12, worst
    print(f"\ncriterion 6: PASS metric oracle worst {worst:.2e}, "
          f"minADE non-increasing in K")


def _latency_corpus(n_scenes, seed, sigma, deltas, pulse_scale=0.35):
    spec = SynthLatencySpec(n_scenes=n_scenes, n_agents=2, n_frames=20,
                            t_e=8, deltas=deltas, duration=4,
                            pulse_scale=pulse_scale, sigma=sigma, seed=seed)
    scenes, labels = synth_latency_scenes(spec)
    samples = []
    for scene in scenes:
        samples.extend(make_windows(scene, 8, 12))
    delta_of = {(l["scene_id"], l["agent_id"]): l["delta"] for l in labels}
    return samples, delta_of


def _scaled_config(seed, **model_kw):
    cfg = RunConfig()
    cfg.model = ModelConfig(t_h=8, t_f=12, d=32, k_g=8, n_theta=4,
                            tf_layers=1, tf_heads=4, **model_kw)
    cfg.epochs = 50
    cfg.batch_size = 25
    cfg.lr = 3e-3
    cfg.seed = seed
    return cfg


def _mean_min_ade(model, samples):
    vals = [metrics.min_ade_fde(p.values, s.gt.values)[0]
            for p, s in zip(model.predict(samples), samples)]
    return float(np.mean(vals))


def _overfit_run(job):
    """One training of ``overfit_runs``: (key, held-out minADE_8, seconds)."""
    kernel_r, seed, train_samples, eval_samples, out_dir = job
    t0 = time.time()
    out = run_training(_scaled_config(seed, kernel_r=kernel_r), train_samples, out_dir)
    return (kernel_r, seed), _mean_min_ade(out["model"], eval_samples), time.time() - t0


def _in_workers(fn, jobs):
    """``[fn(job) for job in jobs]`` in two spawned worker processes, each
    with one BLAS thread; every job gives the values it gives alone."""
    with pytest.MonkeyPatch.context() as env:  # the workers read it at start-up
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env.setenv(var, "1")
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            return pool.map(fn, jobs, chunksize=1)


@pytest.fixture(scope="module")
def overfit_runs(tmp_path_factory):
    """Criteria 7 and 9 share these ten trainings (5 seeds x 2 variants).
    They are independent, so they run in two workers."""
    root = tmp_path_factory.mktemp("overfit")
    start = time.time()
    train_samples, _ = _latency_corpus(200, seed=11, sigma=0.05,
                                       deltas=(0, 1, 2, 3))
    eval_samples, _ = _latency_corpus(50, seed=12, sigma=0.05,
                                      deltas=(0, 1, 2, 3))
    jobs = [(kernel_r, seed, train_samples, eval_samples,
             str(root / f"r{int(kernel_r)}-s{seed}"))
            for kernel_r in (True, False) for seed in (1, 2, 3, 4, 5)]
    results = _in_workers(_overfit_run, jobs)
    runs = {key: ade for key, ade, _ in results}
    seconds = {key: elapsed for key, _, elapsed in results}
    baseline = float(np.mean(
        [metrics.min_ade_fde(p.y_lin[None], s.gt.values)[0]
         for p, s in zip(
             ReverbPredictor(_scaled_config(1).model, seed=1).predict(eval_samples),
             eval_samples)]))
    return {"runs": runs, "linear_ade": baseline, "seconds": seconds,
            "total_seconds": time.time() - start}


def test_criterion_07_overfit_beats_linear(overfit_runs):
    model_ade = overfit_runs["runs"][(True, 1)]
    linear_ade = overfit_runs["linear_ade"]
    ratio = model_ade / linear_ade
    elapsed = overfit_runs["seconds"][(True, 1)]
    assert ratio <= 0.70, (model_ade, linear_ade, ratio)
    assert elapsed < 900.0, elapsed
    print(f"\ncriterion 7: PASS minADE_8 {model_ade:.4f} vs linear "
          f"{linear_ade:.4f} (ratio {ratio:.3f} <= 0.70) in {elapsed:.0f}s")


def _latency_run(job):
    """One seed of criterion 8: the mean argmax of the event step's R curve
    for each latency group (delta 1, 2, 3)."""
    seed, samples, delta_of, out_dir = job
    cfg = RunConfig()
    cfg.model = ModelConfig(t_h=8, t_f=12, d=16, k_g=8, n_theta=4,
                            tf_layers=1, tf_heads=4, use_soc=False)
    cfg.epochs = 75
    cfg.batch_size = 25
    cfg.lr = 3e-3
    cfg.seed = seed
    out = run_training(cfg, samples, out_dir)
    key = cfg.model.hist_rows  # 1-based key of the step holding t_e
    groups = {1: [], 2: [], 3: []}
    for pred, s in zip(out["model"].predict(samples), samples):
        curve = curves.branch_curves(pred.kernels_non.r)[0][0, 0, key - 1]
        groups[delta_of[(s.scene_id, s.agent_id)]].append(int(np.argmax(curve)))
    return [float(np.mean(groups[d])) for d in (1, 2, 3)]


def test_criterion_08_latency_recovery(tmp_path_factory):
    """Five independent seeds, run in two workers."""
    root = tmp_path_factory.mktemp("latency")
    samples, delta_of = _latency_corpus(120, seed=21, sigma=0.0,
                                        deltas=(1, 2, 3), pulse_scale=0.8)
    per_seed = _in_workers(_latency_run, [(seed, samples, delta_of, str(root / f"s{seed}"))
                                          for seed in (1, 2, 3, 4, 5)])
    group_means = np.mean(per_seed, axis=0)
    rho = _spearman([1, 2, 3], group_means)
    assert np.all(np.diff(group_means) >= 0), group_means
    assert rho >= 0.6, (group_means, rho)
    print(f"\ncriterion 8: PASS group argmax means "
          f"{np.round(group_means, 3)} monotone, Spearman {rho:.2f} >= 0.6")


def test_criterion_09_kernel_ablation_direction(overfit_runs):
    runs = overfit_runs["runs"]
    wins = sum(runs[(True, seed)] <= runs[(False, seed)]
               for seed in (1, 2, 3, 4, 5))
    detail = {seed: (round(runs[(True, seed)], 4), round(runs[(False, seed)], 4))
              for seed in (1, 2, 3, 4, 5)}
    assert wins >= 4, detail
    print(f"\ncriterion 9: PASS full <= R-disabled in {wins}/5 seeds {detail}")


def test_criterion_10_deterministic_cli_runs(tmp_path, monkeypatch):
    data_dir = tmp_path / "data"
    assert cli.main(["synth", "--out-dir", str(data_dir), "--scenes", "6",
                     "--agents", "2", "--frames", "10", "--event-frame", "3",
                     "--deltas", "0,1", "--duration", "2", "--sigma", "0.02",
                     "--seed", "5"]) == 0
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[model]\nt_h = 4\nt_f = 6\nd = 8\nk_g = 2\nn_theta = 4\n"
        "tf_layers = 1\ntf_heads = 2\nnoise_dim = 2\n"
        "[train]\nepochs = 3\nbatch_size = 8\nseed = 1\n"
        f"[data]\nmanifest = {data_dir / 'manifest.txt'}\n"
    )
    outputs = {}
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli.main(["train", "--config", str(ini), "--quiet",
                         "--out-dir", str(out)]) == 0
        monkeypatch.chdir(out)
        assert cli.main(["eval", "--config", str(ini), "--checkpoint",
                         os.path.join("checkpoints", "final.bin"),
                         "--report", "eval.json"]) == 0
        outputs[tag] = {
            "checkpoint": (out / "checkpoints" / "final.bin").read_bytes(),
            "log": (out / "loss_log.csv").read_bytes(),
            "report": (out / "eval.json").read_bytes(),
        }
    assert outputs["a"]["checkpoint"] == outputs["b"]["checkpoint"]
    assert outputs["a"]["log"] == outputs["b"]["log"]
    assert outputs["a"]["report"] == outputs["b"]["report"]
    report = json.loads(outputs["a"]["report"])
    assert report["metrics"]["minADE"] > 0
    print("\ncriterion 10: PASS byte-identical checkpoints, loss logs, "
          "and evaluation reports across two deterministic runs")
