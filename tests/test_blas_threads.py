"""Artifact bytes do not depend on the BLAS thread count: ``synth``,
``train``, ``eval`` and ``curves`` at the paper-default width, each run
in a fresh process at 1 and at 2 BLAS threads, write the same bytes."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# The paper-default width, so that OpenBLAS splits the GEMMs across its
# threads; two training scenes of two agents give 16 windows (8 → 12
# frames), two steps of one epoch.  Paths are relative to each run's own
# working directory, so the configs, and every artifact, read the same.
INI = """\
[model]
d = 128
k_g = 20
n_theta = 8
[train]
epochs = 1
batch_size = 8
seed = 1
[data]
manifest = data/manifest.txt
[output]
dir = run
"""

STEPS = [
    ["synth", "--out-dir", "data", "--scenes", "3", "--agents", "2", "--frames", "23",
     "--event-frame", "9", "--seed", "7"],
    ["train", "--config", "run.ini", "--quiet"],
    ["eval", "--config", "run.ini", "--checkpoint", "run/checkpoints/final.bin",
     "--report", "eval.json"],
    ["curves", "--config", "run.ini", "--checkpoint", "run/checkpoints/final.bin",
     "--csv", "curves.csv"],
]

# Runs the steps in-process through ``cli.main``, then prints how many
# threads the process has (0 where the platform cannot tell).
SCRIPT = """
import os, sys
from reverb import cli
for argv in {steps!r}:
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    if code:
        sys.exit(f"{{argv[0]}} exited {{code}}")
tasks = "/proc/self/task"
print(len(os.listdir(tasks)) if os.path.isdir(tasks) else 0)
"""

ARTIFACTS = ["run/checkpoints/final.bin", "run/loss_log.csv", "run/config.ini",
             "eval.json", "curves.csv"]


def run_at(tmp_path, threads):
    """(the process's thread count, artifact name -> bytes) of one run."""
    cwd = tmp_path / f"threads{threads}"
    cwd.mkdir()
    (cwd / "run.ini").write_text(INI)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    done = subprocess.run([sys.executable, "-c", SCRIPT.format(steps=STEPS)], cwd=cwd,
                          env=env, capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    return int(done.stdout.split()[-1]), {name: (cwd / name).read_bytes() for name in ARTIFACTS}


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    tasks_one, one = run_at(tmp_path, 1)
    tasks_two, two = run_at(tmp_path, 2)
    if tasks_one and (os.cpu_count() or 1) > 1:
        assert tasks_two > tasks_one  # the BLAS did start a second thread
    assert [name for name in ARTIFACTS if one[name] != two[name]] == []
