"""Every artifact writer goes through one temp-file-and-rename helper."""

import os
import stat
import tracemalloc

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
    "curves_csv": lambda path: write_curves_csv(path, [], 5, config_hash="abc", seed=1),
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


def test_os_error_names_the_target_not_the_temporary_file(tmp_path):
    path = tmp_path / "missing" / "artifact"
    with pytest.raises(OSError) as caught:
        atomic_write(str(path), "new\n")
    assert str(caught.value) == f"cannot write {path}: No such file or directory"
    assert ".tmp." not in str(caught.value)
    assert isinstance(caught.value.__cause__, FileNotFoundError)


def test_text_is_written_as_utf8(tmp_path):
    path = tmp_path / "t.txt"
    atomic_write(str(path), "bearing θ\n")
    assert path.read_bytes() == "bearing θ\n".encode("utf-8")


def test_streamed_pieces_are_joined(tmp_path):
    path = tmp_path / "t.txt"
    atomic_write(str(path), (piece for piece in ["a,", b"b\n", "θ\n"]))
    assert path.read_bytes() == "a,b\nθ\n".encode("utf-8")


def test_checkpoint_streams_its_arrays_without_joining_them(tmp_path):
    """Saving 8 MB of arrays allocates less than one of them: the blob is
    written array by array, never as one joined copy."""
    arrays = {"a": np.arange(2.0 ** 19), "b": np.full(2 ** 19, -0.5)}
    path = tmp_path / "c.bin"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        save(str(path), arrays)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < arrays["a"].nbytes
    assert path.read_bytes().endswith(arrays["a"].tobytes() + arrays["b"].tobytes())


def test_failing_stream_keeps_target_and_leaves_no_temp(tmp_path):
    path = tmp_path / "artifact"
    path.write_bytes(b"old")

    def pieces():
        yield "first row\n"
        raise RuntimeError("producer failed")

    with pytest.raises(RuntimeError, match="producer failed"):
        atomic_write(str(path), pieces())
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["artifact"]


def test_directory_is_fsynced_after_the_rename(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
        real_fsync(fd)

    def replace(src, dst):
        events.append("rename")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    atomic_write(str(tmp_path / "artifact"), "new\n")
    assert events == ["fsync file", "rename", "fsync dir"]
