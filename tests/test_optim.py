"""Adam update rule and checkpoint serialization."""

import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from reverb.errors import ParseError, TrainingError
from reverb.nn import tensor as T
from reverb.nn.checkpoint import load, save
from reverb.nn.layers import ParameterStore
from reverb.nn.optim import Adam


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        store = ParameterStore(seed=0)
        p = store.add("p", (3,), "ones")
        opt = Adam(store, lr=0.1)
        p.grad[...] = 0.0
        opt.step()
        assert_allclose(p.data, 1.0, atol=0)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmRSS")
    def test_zero_state_stays_unmapped_until_written(self):
        """``pack``'s gradient vector and Adam's m and v come from
        ``np.zeros``, whose pages are mapped on first write: at the paper
        default (16 MB per vector) ``pack`` adds about one vector to the
        resident size and ``Adam`` almost nothing.  A fresh interpreter,
        so that no freed heap of earlier tests hides the growth."""
        script = (
            "from reverb.model import ModelConfig, ReverbPredictor\n"
            "from reverb.nn.optim import Adam\n"
            "def rss():\n"
            "    for line in open('/proc/self/status'):\n"
            "        if line.startswith('VmRSS'):\n"
            "            return int(line.split()[1]) * 1024\n"
            "store = ReverbPredictor(ModelConfig(), seed=1).store\n"
            "a = rss(); store.pack(); b = rss(); Adam(store); c = rss()\n"
            "print(store.values.nbytes, b - a, c - b)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout
        size, packed, adam = map(int, out.split())
        assert packed < 1.5 * size and adam < 0.5 * size

    def test_missing_gradient_counts_as_zero(self):
        store = ParameterStore(seed=0)
        p = store.add("p", (2,), "ones")
        opt = Adam(store, lr=0.1)
        opt.step()
        assert_allclose(p.data, 1.0, atol=0)

    def test_first_step_hand_value(self):
        # g=1, lr=0.1: bias-corrected update is -0.1 / (1 + 1e-8)
        store = ParameterStore(seed=0)
        p = store.add("p", (1,), "zeros")
        opt = Adam(store, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        p.grad[...] = 1.0
        opt.step()
        assert_allclose(p.data[0], -0.1 / (1.0 + 1e-8), atol=1e-12)
        assert abs(p.data[0] + 0.0999999) < 1e-6

    def test_nan_gradient_names_the_parameter(self):
        store = ParameterStore(seed=0)
        p = store.add("enc.w", (2,), "zeros")
        opt = Adam(store)
        p.grad[...] = [np.nan, 0.0]
        with pytest.raises(TrainingError, match="enc.w"):
            opt.step()

    def test_descends_a_quadratic(self):
        store = ParameterStore(seed=0)
        p = store.add("p", (1,), "ones")
        opt = Adam(store, lr=0.05)
        for _ in range(200):
            store.zero_grad()
            T.backward(T.sum_(p * p))
            opt.step()
        assert abs(p.data[0]) < 0.2


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(90)
        arrays = {
            "b.w": rng.normal(size=(3, 4)),
            "a.bias": rng.normal(size=(4,)),
        }
        path = tmp_path / "model.ckpt"
        save(path, arrays, meta={"epoch": 7, "config_hash": "abc123"})
        loaded, meta = load(path)
        assert meta == {"epoch": "7", "config_hash": "abc123"}
        assert set(loaded) == set(arrays)
        for name in arrays:
            assert loaded[name].shape == arrays[name].shape
            # float64 storage: the same bits come back
            assert_array_equal(loaded[name], arrays[name])

    def test_byte_identical_across_dict_orders(self, tmp_path):
        rng = np.random.default_rng(91)
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(3,))
        p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
        save(p1, {"x": a, "y": b}, meta={"s": 1})
        save(p2, {"y": b, "x": a}, meta={"s": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_temp_files_left(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save(path, {"x": np.zeros(2)}, meta={})
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(ParseError):
            load(path)

    def test_truncated_blob_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save(path, {"x": np.ones(4)}, meta={})
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(ParseError):
            load(path)

    def test_scalars_and_spaces_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save(tmp_path / "s.ckpt", {"x": np.float64(3.0)}, meta={})
        with pytest.raises(ValueError):
            save(tmp_path / "s.ckpt", {"bad name": np.zeros(2)}, meta={})
