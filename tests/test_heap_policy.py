"""The heap policy that ``nn/tensor.py`` sets when it loads: on glibc a
forward's freed temporaries stay mapped, so a repeated ``predict`` does
not fault its pages in again; elsewhere the module leaves malloc alone."""

import ctypes
import platform

import pytest

from reverb.data import SynthLatencySpec, make_windows, synth_latency_scenes
from reverb.model import ModelConfig, ReverbPredictor
from reverb.nn import tensor as T

# Allowed growth of ``ru_minflt`` over one repeated chunk, as the median of
# three repeats: without the policy every repeat takes about 2,500 minor
# faults; with it most take 0, but one of the first repeats can take up
# to about 100 as the heap settles into its layout.
MAX_FAULTS = 64


def _has_glibc_mallopt() -> bool:
    if platform.libc_ver()[0] != "glibc":
        return False
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


@pytest.mark.skipif(not _has_glibc_mallopt(), reason="needs glibc's mallopt")
def test_repeated_predict_chunk_takes_no_page_faults():
    """A ``predict_crowd``-shaped chunk: 256 windows cut from 8-agent
    scenes, at the criterion-7 model shape."""
    import resource

    spec = SynthLatencySpec(n_scenes=8, n_agents=8, n_frames=24, t_e=8,
                            deltas=(0, 1, 2, 3), duration=4, sigma=0.05, seed=1)
    scenes, _ = synth_latency_scenes(spec)
    chunk = [w for scene in scenes for w in make_windows(scene, 8, 12)][:256]
    assert len(chunk) == 256
    model = ReverbPredictor(ModelConfig(t_h=8, t_f=12, d=32, k_g=8, n_theta=4,
                                        tf_layers=1, tf_heads=4), seed=1)
    model.predict(chunk)  # the first call grows the heap
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        model.predict(chunk)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert sorted(faults)[1] <= MAX_FAULTS, faults


class _NoMallopt:
    """A loaded C library that has no ``mallopt``."""


@pytest.mark.parametrize("cdll", [
    pytest.param(lambda name: (_ for _ in ()).throw(OSError("no libc")), id="load-fails"),
    pytest.param(lambda name: _NoMallopt(), id="no-mallopt"),
])
def test_policy_is_a_no_op_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert T._keep_freed_heap() is None
