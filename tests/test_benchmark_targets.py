"""The benchmark tracer wraps package functions by name; every name must still resolve.

``benchmarks/tracer.py`` is only read here, never imported or run, so a
refactor that moves or drops a traced function fails in this suite
instead of in the benchmark's traced run.
"""

import ast
import importlib
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _targets() -> tuple:
    tree = ast.parse(_TRACER.read_text(encoding="utf-8"))
    (value,) = (
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    return ast.literal_eval(value)


@pytest.mark.parametrize("module, attr", _targets())
def test_tracer_target_resolves(module, attr):
    obj = importlib.import_module(f"lietriple.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
