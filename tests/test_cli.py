import csv
import hashlib
import json
import os
import re
import warnings

import numpy as np
import pytest

from reverb import cli
from reverb.config import load_config
from reverb.model import ReverbPredictor
from reverb.nn import checkpoint
from reverb.nn.optim import Adam
from reverb.train import load_model, save_checkpoint


def run(argv):
    """Invoke the entry point the way the console script does."""
    try:
        return cli.main(argv)
    except SystemExit as e:
        return e.code


TINY_INI = """\
[model]
t_h = 4
t_f = 6
d = 8
k_g = 2
n_theta = 4
tf_layers = 1
tf_heads = 2
noise_dim = 2
[train]
epochs = 2
batch_size = 8
checkpoint_every = 1
seed = 1
[data]
manifest = {manifest}
[output]
dir = {out}
"""


@pytest.fixture()
def corpus(tmp_path):
    """A synthetic corpus plus a config file wired to it."""
    data_dir = tmp_path / "data"
    code = run(["synth", "--out-dir", str(data_dir), "--scenes", "4",
                "--agents", "2", "--frames", "10", "--event-frame", "3",
                "--deltas", "0,1", "--duration", "2", "--sigma", "0.02",
                "--seed", "7"])
    assert code == 0
    out_dir = tmp_path / "run"
    ini = tmp_path / "run.ini"
    ini.write_text(TINY_INI.format(manifest=data_dir / "manifest.txt",
                                   out=out_dir))
    return {"ini": str(ini), "out": out_dir, "data": data_dir}


@pytest.fixture()
def trained(corpus):
    assert run(["train", "--config", corpus["ini"], "--quiet"]) == 0
    corpus["ckpt"] = str(corpus["out"] / "checkpoints" / "final.bin")
    return corpus


def test_no_arguments_is_usage_error():
    assert run([]) == 1


def test_unknown_subcommand_is_usage_error():
    assert run(["launch"]) == 1


def test_missing_required_flag_is_usage_error():
    assert run(["eval"]) == 1


def test_unknown_config_key_is_usage_error(corpus):
    assert run(["train", "--config", corpus["ini"],
                "--set", "train.epoch=1"]) == 1


@pytest.mark.parametrize("argv,text", [
    (["--set", "model.tf_heads=0"], "tf_heads >= 1, got 1, 0"),
    (["--set", "model.tf_heads=-2"], "tf_heads >= 1, got 1, -2"),
    (["--set", "model.tf_layers=-1"], "tf_layers >= 1 and tf_heads >= 1, got -1, 2"),
    (["--set", "train.epochs=1", "--resume", "{ckpt}"], "at epoch 2, past train.epochs = 1"),
    (["--set", "train.lr=nan"], "learning rate must be positive and finite, got nan"),
    (["--set", "train.lr=inf"], "learning rate must be positive and finite, got inf"),
    (["--set", "model.dt=nan"], "dt must be positive and finite, got nan"),
    (["--set", "model.dt=inf"], "dt must be positive and finite, got inf"),
])
def test_train_setting_out_of_range_is_one_line_usage_error(trained, capsys, argv, text):
    argv = [a.format(ckpt=trained["ckpt"]) for a in argv]
    capsys.readouterr()
    assert run(["train", "--config", trained["ini"], "--quiet"] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("reverb: config error: ") and text in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_diverging_train_is_one_stderr_line(corpus, capsys):
    # pytest's warnings plugin would hide numpy's RuntimeWarnings; record them
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["train", "--config", corpus["ini"], "--quiet",
                    "--set", "train.lr=1e300"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("reverb: numeric failure: ") and err.count("\n") == 1
    assert [str(w.message) for w in caught] == []


def test_missing_manifest_is_data_error(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[data]\nmanifest = /nonexistent/manifest.txt\n")
    assert run(["train", "--config", str(ini)]) == 2


def test_unconfigured_manifest_is_usage_error():
    assert run(["train"]) == 1


def test_corrupt_scene_is_data_error(tmp_path):
    scene = tmp_path / "bad.tsv"
    scene.write_text("1 a0 0.0 0.0\n2 a0 1.0\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("train bad.tsv\ntest bad.tsv\n")
    ini = tmp_path / "run.ini"
    ini.write_text(f"[data]\nmanifest = {manifest}\n")
    assert run(["train", "--config", str(ini)]) == 2


def test_non_finite_scene_is_data_error(tmp_path, capsys):
    scene = tmp_path / "nan.tsv"
    scene.write_text("1 a0 0.0 0.0\n2 a0 nan 1.0\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("train nan.tsv\ntest nan.tsv\n")
    ini = tmp_path / "run.ini"
    ini.write_text(f"[data]\nmanifest = {manifest}\n")
    assert run(["train", "--config", str(ini)]) == 2
    assert f"{scene}: line 2" in capsys.readouterr().err


def valid_inputs(tmp_path):
    """A config, manifest, scene and checkpoint that train --resume accepts."""
    files = {name: tmp_path / name
             for name in ("run.ini", "manifest.txt", "scene.tsv", "model.bin")}
    files["scene.tsv"].write_text("".join(
        f"{f} a{k} {0.5 * f} {k + 0.1 * f}\n" for f in range(1, 11) for k in range(2)))
    files["manifest.txt"].write_text("train scene.tsv\ntest scene.tsv\n")
    files["run.ini"].write_text(TINY_INI.format(manifest=files["manifest.txt"],
                                                out=tmp_path / "out"))
    cfg = load_config(str(files["run.ini"]))
    model = ReverbPredictor(cfg.model, seed=cfg.seed)
    save_checkpoint(str(files["model.bin"]), model, Adam(model.store, lr=cfg.lr), 1, cfg)
    return files


# case -> (file to edit, regex, replacement, exit code, file the message
# names, text the message holds).  Each regex edits a valid input once.
MALFORMED_INPUTS = {
    "scene_truncated_row": ("scene.tsv", rb"^(\S+ \S+ \S+) \S+", rb"\1", 2,
                            "scene.tsv", "line 1"),
    "scene_non_finite": ("scene.tsv", rb"^(\S+ \S+) \S+", rb"\1 inf", 2,
                         "scene.tsv", "line 1"),
    "scene_non_utf8": ("scene.tsv", rb"\n1 a1 ", b"\n1 a\xff ", 2,
                       "scene.tsv", "line 2"),
    "manifest_bad_line": ("manifest.txt", rb"^train scene.tsv", b"train", 2,
                          "manifest.txt", "line 1"),
    "manifest_missing_scene": ("manifest.txt", rb"^train scene", b"train missing", 2,
                               "missing.tsv", "No such file"),
    "manifest_non_utf8": ("manifest.txt", rb"^", b"# \xe9t\xe9\n", 2,
                          "manifest.txt", "line 1"),
    "config_no_section_header": ("run.ini", rb"^\[model\]\n", b"", 1,
                                 "run.ini", "line 1"),
    "config_duplicate_key": ("run.ini", rb"\nd = 8\n", b"\nd = 8\nd = 16\n", 1,
                             "run.ini", "line 5"),
    "config_bad_value": ("run.ini", rb"\nd = 8", b"\nd = abc", 1,
                         "run.ini", "cannot read 'abc'"),
    "config_non_utf8": ("run.ini", rb"\nd = 8\n", b"\nd = 8\n# \xff\n", 1,
                        "run.ini", "line 5"),
    "checkpoint_bad_magic": ("model.bin", rb"^REVERB-CKPT 1", b"REVERB-CKPT 7", 2,
                             "model.bin", "bad magic"),
    "checkpoint_truncated_manifest": ("model.bin", rb"(?s)\ntensor .*", b"\n", 2,
                                      "model.bin", "truncated manifest"),
    "checkpoint_bad_shape": ("model.bin", rb"(tensor \S+ float64 )[0-9,]+",
                             rb"\g<1>2,x", 2, "model.bin", "shape"),
    "checkpoint_blob_overrun": ("model.bin", rb"(tensor \S+ float64 [0-9,]+ )\d+",
                                rb"\g<1>999999999", 2, "model.bin", "overruns"),
    "checkpoint_shape_overflow": ("model.bin", rb"(tensor \S+ float64 )[0-9,]+",
                                  rb"\g<1>4294967296,4294967296", 2, "model.bin", "overruns"),
    "checkpoint_bad_dtype": ("model.bin", rb"(tensor \S+ )float64", rb"\1float16", 2,
                             "model.bin", "line 7: bad tensor line"),
    "checkpoint_missing_epoch": ("model.bin", rb"meta epoch \d+\n", b"", 2,
                                 "model.bin", "epoch"),
    "checkpoint_missing_adam_t": ("model.bin", rb"meta adam_t \d+\n", b"", 2,
                                  "model.bin", "adam_t"),
    "checkpoint_missing_adam_state": ("model.bin", rb"(tensor adam\.\S+ [^\n]*\n)+", b"",
                                      2, "model.bin", "missing adam.m.enc.alpha.0.w"),
    "checkpoint_bad_adam_shape": ("model.bin", rb"(tensor adam\.m\.\S+ float64 )[0-9,]+",
                                  rb"\g<1>1", 2, "model.bin",
                                  "shape adam.m.enc.alpha.0.b: checkpoint (1,)"),
    "checkpoint_other_model_dim": ("run.ini", rb"\nd = 8\n", b"\nd = 16\n", 1, "model.bin",
                                   "(and 119 more)"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exit_code_and_message(tmp_path, capsys, case):
    target, pattern, repl, code, named, text = MALFORMED_INPUTS[case]
    files = valid_inputs(tmp_path)
    edited, n = re.subn(pattern, repl, files[target].read_bytes(), count=1)
    assert n == 1
    files[target].write_bytes(edited)
    capsys.readouterr()
    assert run(["train", "--config", str(files["run.ini"]),
                "--resume", str(files["model.bin"]), "--quiet"]) == code
    err = capsys.readouterr().err
    assert str(tmp_path / named) in err
    assert text in err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.endswith("\n")


def write_float32_checkpoint(path, arrays, meta):
    """Write a checkpoint in the float32 layout that earlier versions wrote:
    the manifest of the README's file formats, then little-endian float32."""
    lines, blob = ["REVERB-CKPT 1"] + [f"meta {k} {meta[k]}" for k in sorted(meta)], b""
    for name in sorted(arrays):
        a = np.asarray(arrays[name], dtype="<f4")
        lines.append(f"tensor {name} float32 {','.join(map(str, a.shape))} {len(blob)}")
        blob += a.tobytes()
    lines.append(f"blob {len(blob)}")
    path.write_bytes(("\n".join(lines) + "\n").encode("ascii") + blob)


def test_float32_checkpoint_of_earlier_versions_loads_and_resumes(tmp_path):
    files = valid_inputs(tmp_path)
    arrays, meta = checkpoint.load(files["model.bin"])
    write_float32_checkpoint(files["model.bin"], arrays, meta)
    cfg = load_config(str(files["run.ini"]))
    model, _, _ = load_model(str(files["model.bin"]), cfg)
    for name, p in model.store.items():
        assert p.data.dtype == np.float64
        np.testing.assert_array_equal(p.data, arrays[name].astype(np.float32))
    assert run(["train", "--config", str(files["run.ini"]),
                "--resume", str(files["model.bin"]), "--quiet"]) == 0


@pytest.mark.parametrize("argv", [
    ["synth", "--deltas", "0,x"],
    ["ablate", "--seeds", "1,two"],
    ["curves", "--checkpoint", "none.bin", "--generations", "1,2.5"],
])
def test_non_integer_list_flag_is_usage_error(tmp_path, capsys, argv):
    assert run(argv + ["--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"{argv[-2]}: {argv[-1].split(',')[1]!r} is not an integer" in err


@pytest.mark.parametrize("error,line", [
    (MemoryError("cannot allocate 8 GiB"), "reverb: out of memory: cannot allocate 8 GiB"),
    (RuntimeError("tape walk broke"), "reverb: internal error: RuntimeError: tape walk broke"),
])
def test_unmapped_exception_exits_4_with_one_line(tmp_path, capsys, monkeypatch, error, line):
    def failing(args):
        raise error

    monkeypatch.setattr(cli, "cmd_synth", failing)
    assert run(["synth", "--out-dir", str(tmp_path)]) == 4
    assert capsys.readouterr().err == line + "\n"


def test_synth_layout(corpus):
    data = corpus["data"]
    manifest = (data / "manifest.txt").read_text().splitlines()
    assert manifest[0] == "# seed=7"
    tags = [line.split()[0] for line in manifest[1:]]
    assert tags == ["train", "train", "train", "test"]
    labels = json.loads((data / "labels.json").read_text())
    assert labels["seed"] == 7
    assert len(labels["labels"]) == 8
    assert {l["delta"] for l in labels["labels"]} == {0, 1}
    assert len(list((data / "scenes").glob("*.tsv"))) == 4


class TestDefaultSynthPin:
    """``reverb synth`` with no generator flags writes pinned bytes, so the
    generator defaults cannot drift."""

    LABELS_SHA = "f3b47161dd737d67e361e019d5f06b18ee339d6aea882966da4b49b83b7f78a5"
    MANIFEST_SHA = "6575e5ff342bfcc27114acfa93e0c75a545d9ae212308e3f7c1d270d885c67b7"

    def test_labels_and_manifest_bytes(self, tmp_path):
        assert run(["synth", "--out-dir", str(tmp_path)]) == 0
        sha = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert sha("labels.json") == self.LABELS_SHA
        assert sha("manifest.txt") == self.MANIFEST_SHA


def test_synth_rejects_all_test_split(tmp_path):
    assert run(["synth", "--out-dir", str(tmp_path), "--scenes", "2",
                "--test-scenes", "2"]) == 1


@pytest.mark.parametrize("argv,line", [
    (["--scenes", "5", "--test-scenes", "-3"], "--test-scenes must be >= 0, got -3"),
    (["--deltas", ","], "need at least one onset delay, all >= 0"),
    (["--dt", "-1"], "time step dt must be > 0, got -1.0"),
    (["--dt", "nan"], "dt must be finite, got nan"),
    (["--sigma", "nan"], "sigma must be finite, got nan"),
    (["--turn", "nan"], "turn_magnitude must be finite, got nan"),
    (["--pulse-scale=-inf"], "pulse_scale must be finite, got -inf"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
    (["--scenes", "4", "--sigma", "1e308"], "synth-0000 a0: positions overflow to inf/nan"),
    (["--scenes", "4", "--dt", "1e308"], "synth-0000 a0: positions overflow to inf/nan"),
    (["--scenes", "4", "--turn", "1e308"], "synth-0000 a0: positions overflow to inf/nan"),
    (["--scenes", "4", "--pulse-scale", "1e308"], "synth-0000 a2: positions overflow to inf/nan"),
])
def test_synth_rejects_out_of_range_flags(tmp_path, capsys, argv, line):
    assert run(["synth", "--out-dir", str(tmp_path)] + argv) == 1
    assert capsys.readouterr().err == f"reverb: config error: {line}\n"
    assert not (tmp_path / "manifest.txt").exists()


def test_train_artifacts(trained):
    out = trained["out"]
    cfg_text = (out / "config.ini").read_text()
    assert cfg_text.startswith("# config_hash=")
    assert os.path.exists(trained["ckpt"])
    log = (out / "loss_log.csv").read_text().splitlines()
    assert log[0].startswith("# config_hash=")
    assert len(log) == 2 + 2


def test_train_deterministic_repeats_bytes(corpus, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code = run(["train", "--config", corpus["ini"], "--quiet",
                    "--out-dir", str(out)])
        assert code == 0
    read = lambda d: (d / "checkpoints" / "final.bin").read_bytes()
    assert read(a) == read(b)
    assert (a / "loss_log.csv").read_text() == (b / "loss_log.csv").read_text()


def test_eval_report(trained, tmp_path):
    report_path = tmp_path / "eval.json"
    code = run(["eval", "--config", trained["ini"], "--checkpoint",
                trained["ckpt"], "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["k"] == 2
    assert report["split"] == "test"
    assert report["n_samples"] == 2
    assert set(report["metrics"]) == {"minADE", "minFDE", "meanADE",
                                      "stdADE", "meanFDE", "stdFDE"}
    assert report["linear_baseline"]["ADE"] > 0
    assert len(report["config_hash"]) == 12
    assert report["per_scene"]
    for entry in report["per_scene"].values():
        assert entry["n"] >= 1


def test_eval_first_k_protocol(trained, tmp_path):
    path = tmp_path / "eval1.json"
    assert run(["eval", "--config", trained["ini"], "--checkpoint",
                trained["ckpt"], "--k", "1", "--report", str(path)]) == 0
    one = json.loads(path.read_text())
    assert one["k"] == 1 and not one["sampled"]
    # Scoring fewer rows can never improve the minimum.
    full = tmp_path / "eval2.json"
    assert run(["eval", "--config", trained["ini"], "--checkpoint",
                trained["ckpt"], "--report", str(full)]) == 0
    assert one["metrics"]["minADE"] >= json.loads(full.read_text())["metrics"]["minADE"] - 1e-12


def test_eval_oversized_k_needs_sample_flag(trained, tmp_path, capsys):
    # ``--k`` is checked before the checkpoint is read: the second does not exist
    for ckpt in (trained["ckpt"], str(tmp_path / "missing.bin")):
        for k, line in (("5", "k=5 exceeds K_g=2; pass --sample to draw with replacement"),
                        ("0", "k must be >= 1, got 0")):
            capsys.readouterr()
            assert run(["eval", "--config", trained["ini"], "--checkpoint", ckpt,
                        "--k", k, "--report", str(tmp_path / "e.json")]) == 1
            assert capsys.readouterr().err == f"reverb: config error: {line}\n"
    args = ["eval", "--config", trained["ini"], "--checkpoint",
            trained["ckpt"], "--k", "5", "--report", str(tmp_path / "e.json")]
    assert run(args + ["--sample"]) == 0
    report = json.loads((tmp_path / "e.json").read_text())
    assert report["k"] == 5 and report["sampled"]


def test_eval_linear_only_matches_baseline(tmp_path):
    data_dir = tmp_path / "data"
    assert run(["synth", "--out-dir", str(data_dir), "--scenes", "3",
                "--agents", "2", "--frames", "10", "--event-frame", "3",
                "--deltas", "0,1", "--duration", "2", "--sigma", "0.02",
                "--seed", "3"]) == 0
    ini = tmp_path / "run.ini"
    ini.write_text(TINY_INI.format(manifest=data_dir / "manifest.txt",
                                   out=tmp_path / "run"))
    toggles = ["--set", "model.use_non=false", "--set", "model.use_soc=false"]
    assert run(["train", "--config", str(ini), "--quiet"] + toggles) == 0
    report_path = tmp_path / "eval.json"
    assert run(["eval", "--config", str(ini), "--checkpoint",
                str(tmp_path / "run" / "checkpoints" / "final.bin"),
                "--report", str(report_path)] + toggles) == 0
    report = json.loads(report_path.read_text())
    m = report["metrics"]
    base = report["linear_baseline"]
    assert m["minADE"] == pytest.approx(base["ADE"], abs=1e-12)
    assert m["minFDE"] == pytest.approx(base["FDE"], abs=1e-12)
    assert m["stdADE"] == pytest.approx(0.0, abs=1e-12)


def test_eval_checkpoint_config_mismatch_is_usage_error(trained, tmp_path, capsys):
    capsys.readouterr()
    assert run(["eval", "--config", trained["ini"], "--checkpoint",
                trained["ckpt"], "--set", "model.transform=db2",
                "--report", str(tmp_path / "e.json")]) == 1
    err = capsys.readouterr().err
    assert trained["ckpt"] in err and err.count("\n") == 1


def test_eval_report_in_a_missing_directory_names_the_report(trained, capsys):
    capsys.readouterr()
    assert run(["eval", "--config", trained["ini"], "--checkpoint", trained["ckpt"],
                "--report", "/nonexistent/dir/e.json"]) == 2
    assert capsys.readouterr().err == ("reverb: data error: cannot write "
                                       "/nonexistent/dir/e.json: No such file or directory\n")


def test_curves_csv(trained, tmp_path):
    path = tmp_path / "curves.csv"
    assert run(["curves", "--config", trained["ini"], "--checkpoint",
                trained["ckpt"], "--csv", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=") and "seed=1" in lines[0]
    assert lines[1] == "kind,agent,partition,generation,t_p,t,value,degenerate"
    rows = list(csv.DictReader(lines[1:]))
    kinds = {r["kind"] for r in rows}
    assert kinds == {"non", "non_altered", "soc", "soc_altered", "baseline"}
    assert any(r["agent"] == "mean" for r in rows)
    # At each future step the strengths sum to one across the keys.
    per_step = {}
    for r in rows:
        if r["kind"] == "non":
            key = (r["agent"], r["t"])
            per_step.setdefault(key, 0.0)
            per_step[key] += float(r["value"])
    assert per_step
    for total in per_step.values():
        assert total == pytest.approx(1.0, abs=1e-9)


def body_sha(path) -> str:
    """sha256 over every line after the ``#`` header, which names tmp paths."""
    lines = path.read_bytes().split(b"\n", 1)
    assert lines[0].startswith(b"# config_hash=")
    return hashlib.sha256(lines[1]).hexdigest()


class TestReportPins:
    """The bytes ``curves`` and ``eval`` write for the ``trained`` fixture are
    pinned, so a change to how they are computed or written cannot move
    one byte of them."""

    CURVES_SHA = "31f3092cda61d6b16020320f373ecfde045473c63d37064579b07d10c2484ffb"
    LONG_CURVES_SHA = "79d4e873cf41f75079d06691193d7e280943fbec24c9f7f5873f7296af4edcaa"
    EVAL_SHA = "90837fac26ad4729cab0deb898ace7a9c5bda8374da20ab9614a03ce09c67f6d"

    def test_curves_csv_bytes(self, trained, tmp_path):
        path = tmp_path / "curves.csv"
        assert run(["curves", "--config", trained["ini"], "--checkpoint",
                    trained["ckpt"], "--csv", str(path)]) == 0
        assert body_sha(path) == self.CURVES_SHA

    def test_curves_csv_bytes_over_several_chunks(self, trained, tmp_path):
        data = tmp_path / "long"
        assert run(["synth", "--out-dir", str(data), "--scenes", "1",
                    "--agents", "4", "--frames", "80", "--event-frame", "3",
                    "--deltas", "0,1", "--duration", "2", "--sigma", "0.02",
                    "--seed", "11"]) == 0
        scene = next((data / "scenes").glob("*.tsv"))
        path = tmp_path / "curves.csv"
        assert run(["curves", "--config", trained["ini"], "--checkpoint",
                    trained["ckpt"], "--scene", str(scene),
                    "--csv", str(path)]) == 0
        agents = {line.split(",")[1] for line in path.read_text().splitlines()[2:]}
        assert len(agents - {"mean", ""}) > 256
        assert body_sha(path) == self.LONG_CURVES_SHA

    def test_eval_json_bytes(self, trained, tmp_path):
        path = tmp_path / "eval.json"
        assert run(["eval", "--config", trained["ini"], "--checkpoint",
                    trained["ckpt"], "--report", str(path)]) == 0
        report = json.loads(path.read_text())
        del report["checkpoint"], report["config_hash"]
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == self.EVAL_SHA


@pytest.mark.parametrize("k", ["0", "3"])
def test_curves_generation_out_of_range_is_usage_error(trained, tmp_path, capsys, k):
    # checked before the checkpoint is read: the second does not exist
    for ckpt in (trained["ckpt"], str(tmp_path / "missing.bin")):
        capsys.readouterr()
        assert run(["curves", "--config", trained["ini"], "--checkpoint",
                    ckpt, "--generations", k,
                    "--csv", str(tmp_path / "c.csv")]) == 1
        assert f"generation {k} outside 1..2" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()


def test_curves_agent_filter(trained, tmp_path):
    path = tmp_path / "curves.csv"
    assert run(["curves", "--config", trained["ini"], "--checkpoint",
                trained["ckpt"], "--agent", "a0", "--csv", str(path)]) == 0
    rows = list(csv.DictReader(path.read_text().splitlines()[1:]))
    agents = {r["agent"] for r in rows if r["kind"] == "non"}
    assert agents and all("/a0@" in a or a == "mean" for a in agents)


def test_curves_unknown_agent_is_data_error(trained, tmp_path):
    assert run(["curves", "--config", trained["ini"], "--checkpoint",
                trained["ckpt"], "--agent", "nobody",
                "--csv", str(tmp_path / "c.csv")]) == 2


def test_curves_generation_subset(trained, tmp_path):
    path = tmp_path / "curves.csv"
    assert run(["curves", "--config", trained["ini"], "--checkpoint",
                trained["ckpt"], "--generations", "2",
                "--csv", str(path)]) == 0
    rows = list(csv.DictReader(path.read_text().splitlines()[1:]))
    gens = {r["generation"] for r in rows if r["kind"] == "non_altered"}
    assert gens == {"2"}


def test_manual_neighbor_changes_social_curves_only(trained, tmp_path):
    scene = next((trained["data"] / "scenes").glob("*.tsv"))
    base, injected = tmp_path / "base.csv", tmp_path / "inj.csv"
    common = ["curves", "--config", trained["ini"], "--checkpoint",
              trained["ckpt"], "--scene", str(scene), "--agent", "a0"]
    assert run(common + ["--csv", str(base)]) == 0
    assert run(common + ["--manual-neighbor", "1.0", "0.0", "0.0", "0.0",
                         "--csv", str(injected)]) == 0

    def by_kind(path):
        rows = list(csv.DictReader(path.read_text().splitlines()[1:]))
        out = {}
        for r in rows:
            if r["agent"] != "mean" and r["kind"] != "baseline":
                key = (r["kind"], r["partition"], r["generation"],
                       r["t_p"], r["t"])
                out[key] = float(r["value"])
        return out

    a, b = by_kind(base), by_kind(injected)
    assert a.keys() == b.keys()
    non_same = all(a[k] == b[k] for k in a if k[0].startswith("non"))
    soc_diff = any(abs(a[k] - b[k]) > 1e-12 for k in a if k[0].startswith("soc"))
    assert non_same
    assert soc_diff


def test_ablate_csv_schema(corpus, tmp_path):
    path = tmp_path / "ablation.csv"
    code = run(["ablate", "--config", corpus["ini"], "--variants",
                "full,no_r,linear_only", "--seeds", "1,2", "--quiet",
                "--out-dir", str(tmp_path / "ab"), "--csv", str(path)])
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=") and "seeds=1,2" in lines[0]
    rows = list(csv.DictReader(lines[1:]))
    variants = [(r["variant"], r["seed"]) for r in rows]
    assert variants == [
        ("full", "1"), ("full", "2"), ("full", "mean"),
        ("no_r", "1"), ("no_r", "2"), ("no_r", "mean"),
        ("linear_only", "1"), ("linear_only", "2"), ("linear_only", "mean"),
    ]
    for r in rows:
        for col in ("minADE", "minFDE", "meanADE", "stdADE", "meanFDE",
                    "stdFDE"):
            assert np.isfinite(float(r[col]))
    by_key = {(r["variant"], r["seed"]): r for r in rows}
    want = np.mean([float(by_key[("full", "1")]["minADE"]),
                    float(by_key[("full", "2")]["minADE"])])
    assert float(by_key[("full", "mean")]["minADE"]) == pytest.approx(want)
    # The linear baseline has no parameters, so its seeds agree exactly.
    assert (by_key[("linear_only", "1")]["minADE"]
            == by_key[("linear_only", "2")]["minADE"])


def test_ablate_unknown_variant_is_usage_error(corpus, tmp_path):
    assert run(["ablate", "--config", corpus["ini"], "--variants", "bogus",
                "--csv", str(tmp_path / "a.csv")]) == 1


@pytest.mark.parametrize("variants", ["", ","])
def test_ablate_empty_variant_list_is_usage_error(tmp_path, capsys, variants):
    # checked before the split loads: this manifest does not exist
    ini = tmp_path / "run.ini"
    ini.write_text(f"[data]\nmanifest = {tmp_path / 'missing.txt'}\n")
    assert run(["ablate", "--config", str(ini), "--variants", variants,
                "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "reverb: config error: need at least one variant\n"
    assert not (tmp_path / "ablation.csv").exists()


def test_ablate_negative_seed_is_usage_error_before_training(tmp_path, capsys):
    # checked before the split loads: this manifest does not exist
    ini = tmp_path / "run.ini"
    ini.write_text(f"[data]\nmanifest = {tmp_path / 'missing.txt'}\n")
    assert run(["ablate", "--config", str(ini), "--variants", "full", "--seeds", "1,-1",
                "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "reverb: config error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "ablate").exists()


@pytest.mark.parametrize("command", ["train", "eval", "curves", "ablate"])
def test_window_stride_below_one_is_usage_error_before_any_file_is_read(
        tmp_path, capsys, command):
    # neither the manifest nor the checkpoint exists
    ini = tmp_path / "run.ini"
    ini.write_text(f"[data]\nmanifest = {tmp_path / 'missing.txt'}\n")
    ckpt = ["--checkpoint", str(tmp_path / "missing.bin")] if command in ("eval", "curves") else []
    assert run([command, "--config", str(ini), "--window-stride", "0",
                "--out-dir", str(tmp_path / "out")] + ckpt) == 1
    assert capsys.readouterr().err == (
        "reverb: config error: window stride must be >= 1, got 0\n")
    assert not (tmp_path / "out").exists()


def test_gradcheck_passes_at_default_tolerance(capsys):
    assert run(["gradcheck", "--max-per-param", "2"]) == 0
    out = capsys.readouterr().out
    assert "gradcheck passed" in out
    assert "config_hash=" in out


def test_gradcheck_impossible_tolerance_is_numeric_failure():
    assert run(["gradcheck", "--max-per-param", "2", "--tol", "1e-14"]) == 3


@pytest.mark.parametrize("argv,line", [
    (["--max-per-param", "0"], "--max-per-param must be >= 1, got 0"),
    (["--max-per-param", "-1"], "--max-per-param must be >= 1, got -1"),
    (["--tol", "0"], "--tol must be a positive finite number, got 0.0"),
    (["--tol", "-1"], "--tol must be a positive finite number, got -1.0"),
    (["--tol", "nan"], "--tol must be a positive finite number, got nan"),
    (["--tol", "inf"], "--tol must be a positive finite number, got inf"),
    (["--seed", "-1"], "--seed must be >= 0, got -1"),
])
def test_gradcheck_rejects_out_of_range_flags(capsys, argv, line):
    assert run(["gradcheck"] + argv) == 1
    assert capsys.readouterr().err == f"reverb: config error: {line}\n"


@pytest.mark.parametrize("argv,line", [
    (["gradcheck", "--out-dir", "{out}"], "reverb: error: unrecognized arguments: --out-dir {out}"),
    (["curves", "--checkpoint", "none.bin", "--scene", "a.tsv", "--split", "test"],
     "reverb curves: error: argument --split: not allowed with argument --scene"),
])
def test_flag_that_would_be_ignored_is_one_line_usage_error(tmp_path, capsys, argv, line):
    out = str(tmp_path / "out")
    assert run([a.format(out=out) for a in argv]) == 1
    assert capsys.readouterr().err == line.format(out=out) + "\n"


def test_output_dir_env_var(corpus, tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("REVERB_OUTPUT_DIR", str(target))
    ini = tmp_path / "noout.ini"
    text = "\n".join(l for l in open(corpus["ini"]).read().splitlines()
                     if not l.startswith(("[output]", "dir")))
    ini.write_text(text)
    assert run(["train", "--config", str(ini), "--quiet"]) == 0
    assert (target / "checkpoints" / "final.bin").exists()
