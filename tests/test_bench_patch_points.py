"""The names the benchmark (``perfbench/``) patches and imports.

The tracer (``spans.py``) wraps reverb's tensor ops, layer entry points
and the transformers of a built model by name, and the workloads
(``workloads.py``) import reverb's public names, so a rename or removal
in ``src/`` would break only a benchmark run.  These tests load
``spans.py`` as it is, without writing bytecode next to it, and check
that every name it patches still resolves the way the tracer reads it.
They read ``workloads.py`` as a syntax tree, without running it, and
check that every name it imports from reverb resolves, as does every
name that ``reverb`` and ``reverb.nn`` export.
"""

import ast
import importlib.util
import pathlib
import sys

import pytest

import reverb
import reverb.nn
import reverb.nn.checkpoint
import reverb.nn.tensor
from reverb.model import ReverbPredictor
from reverb.nn.transformer import EncoderDecoder
from test_model import toy_config

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
WORKLOADS = SPANS.with_name("workloads.py")


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


def _resolves(module: str, name: str) -> bool:
    """Whether ``from module import name`` finds an attribute or a submodule."""
    found = importlib.import_module(module)
    return hasattr(found, name) or importlib.util.find_spec(f"{module}.{name}") is not None


def test_every_name_the_workloads_import_from_reverb_resolves():
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    names = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 0
             and node.module.split(".")[0] == "reverb"
             for alias in node.names]
    assert len(names) >= 10
    assert [(m, n) for m, n in names if not _resolves(m, n)] == []


@pytest.mark.parametrize("package", [reverb, reverb.nn], ids=["reverb", "reverb.nn"])
def test_every_exported_name_resolves(package):
    assert [n for n in package.__all__ if not hasattr(package, n)] == []
