"""No dead code in the package: imports are used, private helpers referenced, public names called.

Reads ``src/lietriple/*.py`` with ``ast``.  ``__init__.py`` only re-exports
and ``from __future__`` imports switch on features, so both are exempt
from the import check.  A public name that nothing in the package calls
is exported from ``__init__.py`` or listed in ``KEPT`` with its reason.
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


# public names that nothing in src/ calls and __init__.py does not export, each with why it stays
KEPT = {
    "algebra.StructureConstants.table": "benchmarks/check.py and benchmarks/workloads.py read it, until ROADMAP item 1 or 8",
    "catalog.rationals": "Q as an algebra, a corner of the triangular algebras of demos 02 and 05",
    "catalog.dual_numbers": "Q[x]/(x^2), the corner of demo 05's triangular algebra with improper centralizers",
    "catalog.scalar_bimodule": "Q as a (Q, Q)-bimodule, the M of demo 02's triangular algebra",
    "catalog.direct_sum": "the direct sum of two algebras, the catalog's decomposable algebra",
    "catalog.random_gma": "the random GMAs of the property tests and of ROADMAP item 4's census",
    "linalg.Subspace.full": "the whole ambient space, the top of the subspace lattice beside Subspace.zero",
    "linalg.Subspace.contains": "inclusion, the order of the subspace lattice",
    "linalg.Subspace.sum": "the lattice sum beside intersect; demos/01_exact_subspaces.py uses it",
    "derivations.GLTDDecomposition.verified": "the decomposition's verdict: every check of its transcript held",
    "properness.PropernessCertificate.verified": "the certificate's verdict: every check of its transcript held",
}


def _public_definitions() -> dict[str, str]:
    """{"module.name" or "module.Class.method": name} for every public def and class, and every public method."""
    found = {}
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[f"{module[:-3]}.{node.name}"] = node.name
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        found[f"{module[:-3]}.{node.name}.{sub.name}"] = sub.name
    return found


def _uncalled() -> list[str]:
    """Public definitions that src/ neither names nor exports: a method counts as called only as an attribute."""
    names, attrs = Counter(), Counter()
    for module, tree in MODULES.items():
        if module != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    names[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    attrs[node.attr] += 1
    exported = set(_imported(MODULES["__init__.py"]))
    uncalled = []
    for qualname, name in _public_definitions().items():
        method = qualname.count(".") == 2
        called = attrs[name] if method else (names[name] + attrs[name] or name in exported)
        if not called:
            uncalled.append(qualname)
    return uncalled


def test_every_public_name_has_a_caller():
    # every uncalled name has its reason in KEPT, and an entry whose name gained a caller, or went, leaves KEPT
    assert sorted(_uncalled()) == sorted(KEPT)
