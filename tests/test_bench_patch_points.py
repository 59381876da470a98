"""The names the benchmark's tracer (``perfbench/spans.py``) patches.

The tracer wraps reverb's tensor ops, layer entry points and the
transformers of a built model by name, so a rename or removal in
``src/`` would break only a traced benchmark run.  These tests load
``spans.py`` as it is, without writing bytecode next to it, and check
that every name it patches still resolves the way the tracer reads it.
"""

import importlib.util
import pathlib
import sys

import pytest

import reverb.nn.checkpoint
import reverb.nn.tensor
from reverb.model import ReverbPredictor
from reverb.nn.transformer import EncoderDecoder
from test_model import toy_config

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_traced_tensor_op_is_a_module_function(spans):
    ops = vars(reverb.nn.tensor)
    assert [op for op in spans.TENSOR_OPS if not callable(ops.get(op))] == []


def test_every_layer_span_resolves_on_its_owner(spans):
    fixed = [(ReverbPredictor, "__init__"), (EncoderDecoder, "__call__"),
             (reverb.nn.checkpoint, "save")]
    points = [(owner, attr) for owner, attr, _ in spans.LAYER_SPANS] + fixed
    assert [(o, a) for o, a in points if not callable(vars(o).get(a))] == []


def test_a_built_model_names_its_transformers():
    model = ReverbPredictor(toy_config(), seed=1)
    for name in ("non", "soc"):
        tf = getattr(model, f"tf_{name}")
        assert isinstance(tf, EncoderDecoder) and tf is model.branches[name].tf
