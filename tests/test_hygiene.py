"""No dead code in the package: every import is used, every private helper is referenced.

Reads ``src/lietriple/*.py`` with ``ast``.  ``__init__.py`` only re-exports
and ``from __future__`` imports switch on features, so both are exempt
from the import check.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lietriple"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _used_names(tree: ast.AST) -> Counter:
    """Each name a tree loads or reads as an attribute, and each identifier string (string annotations)."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used[node.value] += 1
    return used


def _imported(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


@pytest.mark.parametrize("name", [n for n in MODULES if n != "__init__.py"])
def test_every_import_is_used(name):
    tree = MODULES[name]
    used = _used_names(tree)
    assert [n for n in _imported(tree) if not used[n]] == []


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_private_helper_is_referenced():
    # a reference is any use beyond the definition itself, in any module of the package
    used = sum((_used_names(tree) for tree in MODULES.values()), Counter())
    imported = Counter(n for tree in MODULES.values() for n in _imported(tree))
    dead = [
        f"{module}:{n}"
        for module, tree in MODULES.items()
        for n in _private_definitions(tree)
        if used[n] + imported[n] == 0
    ]
    assert dead == []
