"""reverb benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload (train_paper, train_small, predict_crowd), checks its
outputs, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it is the full record (environment, details, checks); the same record
and, when traced, the spans go to ``perfbench/out/``.  Exit code 0 when
every check passes, 1 when one fails, 2 on a usage error.  ``--smoke``
runs each workload at its smallest size.  See perfbench/README.md.
"""

import os
import sys
import time

# Pinned before numpy loads: the single-threaded reference path of train.py.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if not os.path.isdir(os.path.join(ROOT, "src", "reverb")):
    sys.exit(f"no reverb sources under {os.path.join(ROOT, 'src')}")
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402

import reverb  # noqa: E402
from workloads import WORKLOADS, Bench  # noqa: E402

IMPORT_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "min_ade_ratio": "1",
}
_SUFFIX_UNITS = [(".self_ms", "ms"), (".peak_alloc_mb", "MB"), (".bytes", "bytes"),
                 ("_gflop", "GFLOP"), ("_frac", "1")]


def layer_unit(name: str) -> str:
    return next((u for s, u in _SUFFIX_UNITS if name.endswith(s)), "count")


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30, check=False)
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha256 over reverb's sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    src = os.path.dirname(reverb.__file__)
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def import_seconds(smoke: bool) -> list:
    """Wall times of fresh interpreters that start, import reverb and exit."""
    times = []
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for _ in range(1 if smoke else IMPORT_REPEATS):
        t0 = time.perf_counter()
        # No timeout: with one, subprocess polls the child in steps of up
        # to 50 ms, which would round the measured time.
        subprocess.run([sys.executable, "-c", "import numpy, reverb"], cwd=ROOT, env=env,
                       check=True)
        times.append(time.perf_counter() - t0)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest size of the workload (for the smoke test)")
    args = parser.parse_args(argv)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    bench = Bench(args.seed, args.seconds, bool(args.trace), args.smoke,
                  import_seconds(args.smoke), out_dir)
    tracer = bench.tracer
    if tracer.traced:
        tracer.install_layers()
    try:
        WORKLOADS[args.workload](bench)
    finally:
        tracer.uninstall()

    if tracer.traced:
        values = tracer.layer_metrics()
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        gap = tracer.unaccounted_ms()
        # 1 us: far above float rounding, far below any lost or doubled span.
        bench.check("span self times add up to step time", gap <= 1e-3, gap)
    else:
        metrics = {k: {"value": bench.metrics[k], "unit": u} for k, u in END_TO_END.items()}
    failed = sum(not c["ok"] for c in bench.checks)
    attempted = bench.ops + len(bench.checks)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": environment(args),
        "details": bench.details,
        "checks": bench.checks,
        "failed_frac": {"value": failed / attempted, "unit": "1"},
        "output_sha256": bench.digest_hex(),
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    if tracer.traced:
        tracer.write_spans(os.path.join(out_dir, stem + ".spans.jsonl"))
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
