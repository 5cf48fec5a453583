"""The benchmark reaches the package by name; every such name must still resolve.

``benchmarks/tracer.py`` wraps package functions by name, the
benchmark's scripts import names from ``lietriple``, and they read a few
attributes off package objects (``ATTRIBUTES``).  The scripts are only
read here, with ``ast`` or as text, never imported or run, so a refactor
that moves or drops a name the benchmark needs fails in this suite
instead of in the benchmark's run.
"""

import ast
import importlib
from pathlib import Path

import pytest

_BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
_TRACER = _BENCHMARKS / "tracer.py"


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


def _imports() -> list[tuple[str, str, str]]:
    """(script, module, name) for each name a benchmark script imports from lietriple, at any depth, once; name is "" for ``import module``."""
    found = []
    for path in sorted(_BENCHMARKS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lietriple":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, "") for alias in node.names if alias.name.split(".")[0] == "lietriple"]
    return sorted(set(found))


def test_benchmark_scripts_import_from_lietriple():
    assert {"resolve", "six_maps_from_flat", "build_from_blocks", "verify_thm31_conditions"} <= {name for *_, name in _imports()}


@pytest.mark.parametrize("script, module, name", _imports())
def test_benchmark_import_resolves(script, module, name):
    obj = importlib.import_module(module)
    assert not name or hasattr(obj, name)


# (module, Class.attribute, the text a benchmark script reads it by) for what the scripts read off package objects
ATTRIBUTES = (
    ("algebra", "LinearOperator.from_flat", "LinearOperator.from_flat("),  # check.py: the solve-dense output check
    ("algebra", "LinearOperator.flatten", ".flatten()"),  # child.py: the six-map request's output
    ("algebra", "StructureConstants.table", ".algebra.table"),  # check.py: the output checks' tables
)


@pytest.mark.parametrize("module, attr, read", ATTRIBUTES)
def test_benchmark_attribute_resolves_and_is_still_read(module, attr, read):
    cls, name = attr.split(".")
    assert hasattr(getattr(importlib.import_module(f"lietriple.{module}"), cls), name)
    texts = [path.read_text(encoding="utf-8") for path in sorted(_BENCHMARKS.glob("*.py"))]
    assert any(read in text for text in texts), f"no benchmark script reads {read}"
