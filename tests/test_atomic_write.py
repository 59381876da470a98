"""Every artifact writer goes through one temp-file-and-rename helper."""

import os

import numpy as np
import pytest

from reverb.config import RunConfig
from reverb.curves import write_curves_csv
from reverb.data import Scene, Tracklet, write_scene
from reverb.nn.checkpoint import atomic_write, save
from reverb.train import EpochStats, write_loss_log

WRITERS = {
    "atomic_write": lambda path: atomic_write(path, "new text\n"),
    "checkpoint": lambda path: save(path, {"x": np.ones(2)}, meta={"epoch": 1}),
    "loss_log": lambda path: write_loss_log(path, [EpochStats(1, 0.5)], RunConfig()),
    "curves_csv": lambda path: write_curves_csv(path, [], config_hash="abc", seed=1),
    "scene": lambda path: write_scene(
        path, Scene("s", 0.4, [Tracklet("a", np.array([1.0, 2.0]), np.zeros((2, 2)))])
    ),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writes_replace_the_target(tmp_path, writer):
    path = tmp_path / "artifact"
    path.write_bytes(b"old")
    WRITERS[writer](str(path))
    assert path.read_bytes() != b"old"
    assert os.listdir(tmp_path) == ["artifact"]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_rename_keeps_target_and_leaves_no_temp(tmp_path, monkeypatch, writer):
    path = tmp_path / "artifact"
    old = b"old contents\x00\xff\n"
    path.write_bytes(old)

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        WRITERS[writer](str(path))
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["artifact"]


def test_text_is_written_as_utf8(tmp_path):
    path = tmp_path / "t.txt"
    atomic_write(str(path), "bearing θ\n")
    assert path.read_bytes() == "bearing θ\n".encode("utf-8")
