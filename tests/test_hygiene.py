"""No dead code in the package: imports are used, private helpers referenced, public names called.

The package also imports nothing outside the standard library.

Reads ``src/lietriple/*.py`` with ``ast``.  ``__init__.py`` only re-exports
and ``from __future__`` imports switch on features, so both are exempt
from the import check.  A public name that nothing in the package calls
is exported from ``__init__.py`` or listed in ``KEPT`` with its reason.
"""

import ast
import sys
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


def _absolute_imports(tree: ast.AST) -> list[str]:
    """The top-level package of each absolute import anywhere in a tree; a relative import names none."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_the_package_imports_only_the_standard_library():
    # pyproject.toml declares dependencies = []: a third-party import would break an install from the wheel
    outside = [
        f"{module}:{name}"
        for module, tree in MODULES.items()
        for name in _absolute_imports(tree)
        if name not in sys.stdlib_module_names
    ]
    assert outside == []


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
    "algebra.LinearOperator.from_flat": "benchmarks/check.py builds the solve-dense output check's random member with it",
    "algebra.LinearOperator.flatten": "benchmarks/child.py writes the six-map request's operator with it",
    "algebra.LinearOperator.identity": "the identity map, the unit of the operator ring; demos/05 uses it",
    "catalog.rationals": "Q as an algebra, a corner of the triangular algebras of demos 02 and 05",
    "catalog.dual_numbers": "Q[x]/(x^2), the corner of demo 05's triangular algebra with improper centralizers",
    "catalog.scalar_bimodule": "Q as a (Q, Q)-bimodule, the M of demo 02's triangular algebra",
    "catalog.direct_sum": "the direct sum of two algebras, the catalog's decomposable algebra",
    "catalog.random_gma": "the random GMAs of the property tests and of ROADMAP item 4's census",
    "linalg.Subspace.full": "the whole ambient space, the top of the subspace lattice beside Subspace.zero",
    "derivations.GLTDDecomposition.verified": "the decomposition's verdict: every check of its transcript held",
    "properness.PropernessCertificate.verified": "the certificate's verdict: every check of its transcript held",
}


def _public_definitions(modules: dict) -> dict[str, str]:
    """{"module.name" or "module.Class.method": name} for every public def and class, and every public method."""
    found = {}
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[f"{module[:-3]}.{node.name}"] = node.name
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        found[f"{module[:-3]}.{node.name}.{sub.name}"] = sub.name
    return found


class _Receivers:
    """The class of the receiver x of a read x.name, where the package's source says it.

    A receiver resolves to "module.Class" when it is a class of the
    package, ``self`` or ``cls`` in that class's body, a call of the class
    or of a function annotated to return it, or a parameter or local
    whose every binding says so (an annotation ``X | None`` reads as X).
    It resolves to "" when that names a type from outside the package
    (``args: argparse.Namespace``), and to None when the source does not
    say, as for a name a loop binds.
    """

    def __init__(self, modules: dict):
        self.classes, self.returns = {}, {}
        for module, tree in modules.items():
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    self.classes[node.name] = f"{module[:-3]}.{node.name}"
                elif isinstance(node, ast.FunctionDef):
                    self.returns[node.name] = node.returns

    def annotated(self, ann) -> str | None:
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            sides = [s for s in (ann.left, ann.right) if not (isinstance(s, ast.Constant) and s.value is None)]
            return self.annotated(sides[0]) if len(sides) == 1 else None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            return self.annotated(ast.parse(ann.value, mode="eval").body)
        if isinstance(ann, ast.Name):
            return self.classes.get(ann.id, "")
        return "" if isinstance(ann, ast.Attribute) else None

    def of(self, expr, scope: dict) -> str | None:
        if isinstance(expr, ast.Name):
            return self.classes.get(expr.id) or scope.get(expr.id)
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            name = expr.func.id
            return self.classes.get(name) or (self.annotated(self.returns[name]) if name in self.returns else None)
        return None

    def scope(self, fn, owner: str | None, outer: dict) -> dict:
        """The enclosing scope updated with what fn (a def or a lambda) binds: its parameters and its locals."""
        bound: dict[str, set] = {}
        args = fn.args
        for a in args.posonlyargs + args.args + args.kwonlyargs:
            if a.arg in ("self", "cls") and owner:
                bound[a.arg] = {owner}
            else:
                bound[a.arg] = {None if a.annotation is None else self.annotated(a.annotation)}
        for a in (args.vararg, args.kwarg):
            if a:
                bound[a.arg] = {None}  # a tuple or dict of what the annotation names
        params = {name: cls for name, (cls,) in bound.items()}
        plain = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                plain.add(node.targets[0])
                bound.setdefault(node.targets[0].id, set()).add(self.of(node.value, {**outer, **params}))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                plain.add(node.target)
                bound.setdefault(node.target.id, set()).add(self.annotated(node.annotation))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node not in plain:
                bound.setdefault(node.id, set()).add(None)
        return {**outer, **{name: found.pop() if len(found) == 1 else None for name, found in bound.items()}}


def _attribute_reads(modules: dict) -> Counter:
    """{(name, the receiver's class by ``_Receivers.of``): count} over the attribute reads of src/ but ``__init__.py``."""
    receivers, reads = _Receivers(modules), Counter()

    def visit(node, owner, scope):
        if isinstance(node, ast.ClassDef):
            owner = receivers.classes.get(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            scope = receivers.scope(node, owner, scope)
        elif isinstance(node, ast.Attribute):
            reads[node.attr, receivers.of(node.value, scope)] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, owner, scope)

    for module, tree in modules.items():
        if module != "__init__.py":
            visit(tree, None, {})
    return reads


_SCOPES = (ast.FunctionDef, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _bound(scope) -> set[str]:
    """The names a def, lambda or comprehension binds: its parameters, targets and nested defs.

    Names its nested scopes bind count too.  That can only hide a use, so
    a wrong verdict fails the caller test instead of passing dead code.
    """
    bound = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node is not scope:
            bound.add(node.name)
    return bound


def _origins(modules: dict) -> dict[str, dict[str, str]]:
    """{module: {name it sees: "module.name" where that name is defined}}, following imports within the package.

    A module is seen under its own name as ``"<module>."`` (``from . import x``).
    """
    defined = {
        module[:-3]: {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        for module, tree in modules.items()
    }
    imports = {}
    for module, tree in modules.items():
        found = imports[module[:-3]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    seen = f"{node.module}.{alias.name}" if node.module else f"{alias.name}."
                    found[alias.asname or alias.name] = seen

    def origin(qualname: str) -> str:
        module, _, name = qualname.partition(".")
        if name in defined.get(module, ()) or name not in imports.get(module, {}):
            return qualname
        return origin(imports[module][name])

    return {
        module: {**{name: f"{module}.{name}" for name in names}, **{n: origin(q) for n, q in imports[module].items()}}
        for module, names in defined.items()
    }


def _module_level_reads(modules: dict) -> Counter:
    """{"module.name": count} over src/ but ``__init__.py``, for the module-level definitions.

    A use is a load of the name where the module that defines or imports
    it sees it, unless a local binding hides it there, or an attribute
    read on the module that defines it.
    """
    reads = Counter()

    def visit(node, sees, hidden):
        if isinstance(node, _SCOPES):
            hidden = hidden | _bound(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in hidden:
            reads[sees.get(node.id)] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id not in hidden:
            module = sees.get(node.value.id, "")
            if module.endswith("."):
                reads[module + node.attr] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, sees, hidden)

    origins = _origins(modules)
    for module, tree in modules.items():
        if module != "__init__.py":
            visit(tree, origins[module[:-3]], frozenset())
    return reads


def _uncalled(modules: dict = MODULES) -> list[str]:
    """Public definitions that src/ neither names nor exports.

    A module-level definition counts as called by ``_module_level_reads``.
    A method counts as called only through an attribute read.  A read
    whose receiver resolves to a class defining the method counts for
    that class alone, one that resolves outside the package for none, and
    any other for every class defining the name: ``Subspace.zero(n)``
    calls ``Subspace.zero`` and not ``Bimodule.zero``.
    """
    public, reads = _public_definitions(modules), Counter()
    definers: dict[str, set] = {}
    for qualname, name in public.items():
        if qualname.count(".") == 2:
            definers.setdefault(name, set()).add(qualname.rpartition(".")[0])
    for (name, owner), count in _attribute_reads(modules).items():
        if owner != "":
            reads[name, owner if owner in definers.get(name, ()) else None] += count
    exported = set(_origins(modules)["__init__"].values())
    module_level = _module_level_reads(modules)
    uncalled = []
    for qualname, name in public.items():
        if qualname.count(".") == 2:
            called = reads[name, qualname.rpartition(".")[0]] + reads[name, None]
        else:
            called = module_level[qualname] or qualname in exported
        if not called:
            uncalled.append(qualname)
    return uncalled


def test_every_public_name_has_a_caller():
    # every uncalled name has its reason in KEPT, and an entry whose name gained a caller, or went, leaves KEPT
    assert sorted(_uncalled()) == sorted(KEPT)


def test_a_local_named_like_a_function_does_not_call_it():
    # rationals and shadowed are named only by locals of run, which hide them;
    # imported is called by its imported name and by_module through its module
    a = "def rationals(): pass\ndef shadowed(): pass\ndef imported(): pass\ndef by_module(): pass\n"
    b = """
from . import a
from .a import imported, shadowed

def run(shadowed):
    rationals = [shadowed for shadowed in ()]
    return rationals, imported(), a.by_module()
"""
    modules = {name: ast.parse(text) for name, text in {"__init__.py": "", "a.py": a, "b.py": b}.items()}
    assert _uncalled(modules) == ["a.rationals", "a.shadowed", "b.run"]
