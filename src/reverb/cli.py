"""Command-line entry point.

Subcommands: train, eval, curves, ablate, synth, gradcheck.  Exit
codes: 0 success, 1 configuration or usage problem, 2 data problem,
3 numeric failure, 4 out of memory or internal error.  Each failure
prints one line to stderr, never a traceback.  Every emitted file
carries the config hash and the seed; files are written to a temp name
and atomically renamed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import metrics
from .config import (
    RunConfig,
    config_hash,
    dump_config,
    load_config,
    model_hash,
    resolve_output_dir,
)
from .curves import export_curves
from .data import (
    SynthLatencySpec,
    inject_manual_neighbor,
    load_scene,
    load_split_manifest,
    make_windows,
    synth_latency_scenes,
    write_scene,
)
from .errors import (
    ConfigError,
    DomainError,
    InsufficientDataError,
    NumericError,
    ParseError,
    SequenceLengthError,
    ShapeError,
    TrainingError,
)
from .model import ModelConfig, ReverbPredictor
from .nn.checkpoint import atomic_write
from .nn.gradcheck import grad_check
from .train import load_model, run_training

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4

ABLATION_VARIANTS = {
    "full": {},
    "no_r": {"kernel_r": False},
    "no_g": {"kernel_g": False},
    "no_rg": {"kernel_r": False, "kernel_g": False},
    "no_non": {"use_non": False},
    "no_soc": {"use_soc": False},
    "no_linear": {"use_linear": False},
    "linear_only": {"use_non": False, "use_soc": False},
}


class _Parser(argparse.ArgumentParser):
    """argparse prints its usage and exits 2; the contract is one line, exit 1."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="reverb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_dir=True):
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                       help="override one config value (repeatable)")
        if out_dir:
            p.add_argument("--out-dir", default=None,
                           help="output directory (overrides config/env)")

    p = sub.add_parser("train", help="fit a model and write checkpoints")
    common(p)
    p.add_argument("--resume", help="continue from a checkpoint")
    p.add_argument("--window-stride", type=int, default=1)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--k", type=int, help="generations to score (default K_g)")
    p.add_argument("--sample", action="store_true",
                   help="sample K generations with replacement instead of "
                        "taking the first K")
    p.add_argument("--split", help="manifest split to score (default eval split)")
    p.add_argument("--window-stride", type=int, default=1)
    p.add_argument("--report", help="JSON report path (default <out>/eval.json)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("curves", help="export latency curves as CSV")
    common(p)
    p.add_argument("--checkpoint", required=True)
    where = p.add_mutually_exclusive_group()
    where.add_argument("--scene", help="score one scene file instead of the manifest")
    where.add_argument("--split", help="manifest split (default eval split)")
    p.add_argument("--agent", help="restrict to one ego agent id")
    p.add_argument("--window-stride", type=int, default=1)
    p.add_argument("--generations", help="comma list of 1-based generation ids "
                                         "for the altered families (default all)")
    p.add_argument("--manual-neighbor", nargs=4, type=float,
                   metavar=("DX", "DY", "VX", "VY"),
                   help="inject a constant-velocity neighbor at the given "
                        "offset and velocity before inference")
    p.add_argument("--csv", help="output path (default <out>/curves.csv)")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("ablate", help="train/eval the toggle grid over seeds")
    common(p)
    p.add_argument("--variants", default=",".join(ABLATION_VARIANTS),
                   help="comma list out of: " + ", ".join(ABLATION_VARIANTS))
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--window-stride", type=int, default=1)
    p.add_argument("--csv", help="output path (default <out>/ablation.csv)")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_ablate)

    # A generator flag that is not given is left out of ``args``, so its
    # SynthLatencySpec default holds; the other flags say default=None.
    p = sub.add_parser("synth", help="generate delayed-turn scenes",
                       argument_default=argparse.SUPPRESS)
    common(p)
    p.add_argument("--scenes", dest="n_scenes", type=int)
    p.add_argument("--agents", dest="n_agents", type=int)
    p.add_argument("--frames", dest="n_frames", type=int)
    p.add_argument("--event-frame", dest="t_e", type=int)
    p.add_argument("--deltas")
    p.add_argument("--duration", type=int)
    p.add_argument("--turn", dest="turn_magnitude", type=float)
    p.add_argument("--pulse-scale", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--test-scenes", type=int, default=None,
                   help="trailing scenes tagged 'test' (default 1 in 5)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gradcheck", help="finite-difference self check")
    common(p, out_dir=False)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--max-per-param", type=int, default=8)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def _int_list(flag: str, text: str) -> list:
    """The integers of a comma-list flag value; empty items are skipped."""
    out = []
    for tok in filter(None, text.split(",")):
        try:
            out.append(int(tok))
        except ValueError:
            raise ConfigError(f"{flag}: {tok!r} is not an integer") from None
    return out


def _samples_from_manifest(cfg: RunConfig, split: str, stride: int = 1):
    if not cfg.manifest:
        raise ConfigError("no data manifest configured ([data] manifest)")
    splits = load_split_manifest(cfg.manifest)
    if split not in splits:
        raise InsufficientDataError(
            f"split {split!r} not in manifest (has: {', '.join(sorted(splits))})"
        )
    samples = []
    for path in splits[split]:
        scene = load_scene(path, dt=cfg.model.dt)
        samples.extend(make_windows(scene, cfg.model.t_h, cfg.model.t_f, stride))
    if not samples:
        raise InsufficientDataError(f"split {split!r} produced no windows")
    return samples


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.set)
    out_dir = resolve_output_dir(cfg, args.out_dir)
    samples = _samples_from_manifest(cfg, cfg.train_split, args.window_stride)
    os.makedirs(out_dir, exist_ok=True)
    atomic_write(os.path.join(out_dir, "config.ini"), dump_config(cfg))
    progress = None if args.quiet else (
        lambda s: print(f"epoch {s.epoch}: loss {s.mean_loss:.6f}")
    )
    summary = run_training(cfg, samples, out_dir, resume=args.resume,
                           progress=progress)
    print(f"final checkpoint: {summary['final_checkpoint']}")
    return EXIT_OK


def _select_rows(values: np.ndarray, k: int, sample: bool, rng) -> np.ndarray:
    k_g = values.shape[0]
    if not sample:
        if k > k_g:
            raise ConfigError(
                f"k={k} exceeds K_g={k_g}; pass --sample to draw with replacement"
            )
        return values[:k]
    return values[rng.integers(0, k_g, size=k)]


def _evaluate(model: ReverbPredictor, samples, k: int, sample: bool, seed: int):
    row_pick = np.random.default_rng([seed, 131])
    per_scene = {}
    mins, stats, base = [], [], []
    preds = (p for chunk in model.predict_chunks(samples) for p in chunk)
    for pred, s in zip(preds, samples):
        rows = _select_rows(pred.values, k, sample, row_pick)
        gt = s.gt.values
        ade, fde = metrics.min_ade_fde(rows, gt)
        stats.append(metrics.stat_ade_fde(rows, gt))
        base.append(metrics.min_ade_fde(pred.y_lin[None], gt))
        mins.append((ade, fde))
        per_scene.setdefault(pred.scene_id, []).append((ade, fde))
    mins, stats, base = np.array(mins), np.array(stats), np.array(base)
    return {
        "n_samples": int(len(samples)),
        "metrics": {
            "minADE": float(mins[:, 0].mean()),
            "minFDE": float(mins[:, 1].mean()),
            "meanADE": float(stats[:, 0].mean()),
            "stdADE": float(stats[:, 1].mean()),
            "meanFDE": float(stats[:, 2].mean()),
            "stdFDE": float(stats[:, 3].mean()),
        },
        "linear_baseline": {
            "ADE": float(base[:, 0].mean()),
            "FDE": float(base[:, 1].mean()),
        },
        "per_scene": {
            sid: {
                "n": len(rows),
                "minADE": float(np.mean([r[0] for r in rows])),
                "minFDE": float(np.mean([r[1] for r in rows])),
            }
            for sid, rows in sorted(per_scene.items())
        },
    }


def cmd_eval(args) -> int:
    cfg = load_config(args.config, args.set)
    out_dir = resolve_output_dir(cfg, args.out_dir)
    model, _, meta = load_model(args.checkpoint, cfg)
    split = args.split or cfg.eval_split
    samples = _samples_from_manifest(cfg, split, args.window_stride)
    k = args.k if args.k is not None else cfg.model.k_g
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    report = {
        "config_hash": config_hash(cfg),
        "model_hash": model_hash(cfg.model),
        "seed": cfg.seed,
        "checkpoint": args.checkpoint,
        "checkpoint_epoch": meta.get("epoch"),
        "split": split,
        "k": k,
        "sampled": bool(args.sample),
    }
    report.update(_evaluate(model, samples, k, args.sample, cfg.seed))
    text = json.dumps(report, indent=2, sort_keys=True)
    os.makedirs(out_dir, exist_ok=True)
    path = args.report or os.path.join(out_dir, "eval.json")
    atomic_write(path, text + "\n")
    print(text)
    return EXIT_OK


def cmd_curves(args) -> int:
    cfg = load_config(args.config, args.set)
    out_dir = resolve_output_dir(cfg, args.out_dir)
    generations = _int_list("--generations", args.generations) if args.generations else None
    model, _, _ = load_model(args.checkpoint, cfg)
    if args.scene:
        scene = load_scene(args.scene, dt=cfg.model.dt)
        samples = make_windows(scene, cfg.model.t_h, cfg.model.t_f,
                               args.window_stride)
    else:
        samples = _samples_from_manifest(cfg, args.split or cfg.eval_split,
                                         args.window_stride)
    if args.agent:
        samples = [s for s in samples if s.agent_id == args.agent]
    if not samples:
        raise InsufficientDataError("scene selection produced no windows")
    if args.manual_neighbor:
        dx, dy, vx, vy = args.manual_neighbor
        samples = [inject_manual_neighbor(s, [dx, dy], [vx, vy]) for s in samples]
    os.makedirs(out_dir, exist_ok=True)
    path = args.csv or os.path.join(out_dir, "curves.csv")
    n = export_curves(path, model, samples, generations,
                      config_hash=config_hash(cfg), seed=cfg.seed)
    print(f"wrote {path} ({n} curves)")
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = load_config(args.config, args.set)
    out_dir = resolve_output_dir(cfg, args.out_dir)
    variants = [v for v in args.variants.split(",") if v]
    if not variants:
        raise ConfigError("need at least one variant")
    unknown = [v for v in variants if v not in ABLATION_VARIANTS]
    if unknown:
        raise ConfigError(f"unknown ablation variants: {', '.join(unknown)}")
    seeds = _int_list("--seeds", args.seeds)
    if not seeds:
        raise ConfigError("need at least one seed")
    if min(seeds) < 0:
        raise ConfigError(f"seed must be >= 0, got {min(seeds)}")
    train_samples = _samples_from_manifest(cfg, cfg.train_split,
                                           args.window_stride)
    eval_samples = _samples_from_manifest(cfg, cfg.eval_split,
                                          args.window_stride)
    rows = []
    for variant in variants:
        per_seed = []
        for seed in seeds:
            run_cfg = dataclasses.replace(
                cfg,
                model=dataclasses.replace(cfg.model, **ABLATION_VARIANTS[variant]),
                seed=seed,
            )
            run_dir = os.path.join(out_dir, "ablate", f"{variant}-s{seed}")
            summary = run_training(run_cfg, train_samples, run_dir)
            report = _evaluate(summary["model"], eval_samples,
                               run_cfg.model.k_g, False, seed)
            m = report["metrics"]
            row = (variant, str(seed), m["minADE"], m["minFDE"],
                   m["meanADE"], m["stdADE"], m["meanFDE"], m["stdFDE"])
            per_seed.append(row)
            rows.append(row)
            if not args.quiet:
                print(f"{variant} seed {seed}: minADE {m['minADE']:.4f} "
                      f"minFDE {m['minFDE']:.4f}")
        means = np.mean([r[2:] for r in per_seed], axis=0)
        rows.append((variant, "mean", *[float(x) for x in means]))
    lines = [f"# config_hash={config_hash(cfg)} seeds={','.join(map(str, seeds))}",
             "variant,seed,minADE,minFDE,meanADE,stdADE,meanFDE,stdFDE"]
    for row in rows:
        lines.append(",".join(list(row[:2]) + [f"{x:.17g}" for x in row[2:]]))
    os.makedirs(out_dir, exist_ok=True)
    path = args.csv or os.path.join(out_dir, "ablation.csv")
    atomic_write(path, "\n".join(lines) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = load_config(args.config, args.set)
    out_dir = resolve_output_dir(cfg, args.out_dir)
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(SynthLatencySpec)
             if hasattr(args, f.name)}
    if "deltas" in given:
        given["deltas"] = tuple(_int_list("--deltas", given["deltas"]))
    spec = SynthLatencySpec(**given)
    scenes, labels = synth_latency_scenes(spec)
    n_test = args.test_scenes
    if n_test is None:
        n_test = max(1, len(scenes) // 5) if len(scenes) > 1 else 0
    if n_test < 0:
        raise ConfigError(f"--test-scenes must be >= 0, got {n_test}")
    if n_test >= len(scenes) and len(scenes) > 1:
        raise ConfigError(
            f"--test-scenes {n_test} leaves no training scenes of {len(scenes)}"
        )
    scene_dir = os.path.join(out_dir, "scenes")
    os.makedirs(scene_dir, exist_ok=True)
    manifest = [f"# seed={spec.seed}"]
    for i, scene in enumerate(scenes):
        rel = os.path.join("scenes", f"{scene.scene_id}.tsv")
        write_scene(os.path.join(out_dir, rel), scene)
        tag = "test" if i >= len(scenes) - n_test else "train"
        manifest.append(f"{tag} {rel}")
    atomic_write(os.path.join(out_dir, "manifest.txt"), "\n".join(manifest) + "\n")
    atomic_write(
        os.path.join(out_dir, "labels.json"),
        json.dumps(
            {"seed": spec.seed, "spec": dataclasses.asdict(spec), "labels": labels},
            indent=2, sort_keys=True,
        ) + "\n",
    )
    print(f"wrote {len(scenes)} scenes to {scene_dir} "
          f"({len(scenes) - n_test} train / {n_test} test)")
    return EXIT_OK


def _gradcheck_config() -> RunConfig:
    cfg = RunConfig()
    cfg.model = ModelConfig(
        t_h=4, t_f=6, d=8, k_g=4, n_theta=4, tf_layers=1, tf_heads=2,
        noise_dim=4,
    )
    cfg.epochs = 1
    return cfg


def cmd_gradcheck(args) -> int:
    if args.max_per_param < 1:
        raise ConfigError(f"--max-per-param must be >= 1, got {args.max_per_param}")
    if not 0 < args.tol < np.inf:
        raise ConfigError(f"--tol must be a positive finite number, got {args.tol}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if args.config or args.set:
        cfg = load_config(args.config, args.set)
    else:
        cfg = _gradcheck_config()
    model = ReverbPredictor(cfg.model, seed=args.seed)
    spec = SynthLatencySpec(
        n_scenes=1, n_agents=2, n_frames=cfg.model.t_h + cfg.model.t_f,
        dt=cfg.model.dt, t_e=2, deltas=(0,), duration=1, sigma=0.05,
        seed=args.seed,
    )
    scenes, _ = synth_latency_scenes(spec)
    samples = make_windows(scenes[0], cfg.model.t_h, cfg.model.t_f)
    batch = model.encode(samples)
    noise = model.draw_noise(np.random.default_rng(args.seed))

    def fn():
        loss, _, _ = model.loss(batch, noise)
        return loss

    report = grad_check(fn, model.store, max_per_param=args.max_per_param,
                        rng=np.random.default_rng(args.seed))
    print(report.summary())
    print(f"config_hash={config_hash(cfg)} seed={args.seed} tol={args.tol}")
    if not report.passed(args.tol):
        raise NumericError(
            f"gradient check failed: {report.max_rel_error:.3e} > {args.tol:g} "
            f"at {report.worst_param}"
        )
    print("gradcheck passed")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a numeric fault exits 3 as a NumericError, not as numpy warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except (NumericError, TrainingError) as e:
        print(f"reverb: numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ParseError, InsufficientDataError, OSError) as e:
        print(f"reverb: data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ShapeError, SequenceLengthError, DomainError) as e:
        print(f"reverb: config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as e:
        print(f"reverb: out of memory: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as e:  # a bug: one line, not a traceback
        print(f"reverb: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
