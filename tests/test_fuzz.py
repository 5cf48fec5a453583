"""Random documents behind every file a CLI subcommand reads.

Each example writes one file, either a valid document with one to three
random edits or raw text, bytes or deep nesting, and hands it to
``cli.main`` as the document behind an ``m2(...)`` or ``tri(...)`` spec,
an operator, ``--xi`` or ``--candidates-m0``.  No exception may escape,
the exit code is 0, 1 or 2, and exit 2 leaves stdout empty and writes
one ``invalid input:`` line.  ``verify-paper`` reads no file, so it has
no document to fuzz.

The valid documents are of dim 1 or 2, and an edit adds at most a few
entries, so no example builds more than a small algebra: a huge or
negative dim can only name a shape the document's own lists must then
hold.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from lietriple.algebra import LinearOperator
from lietriple.catalog import dual_numbers, rationals, resolve, scalar_bimodule
from lietriple.centralizers import IdentityKind
from lietriple.cli import main
from oracles import algebra_doc, bimodule_doc, left_mult, operator_doc, right_mult, write_doc

_ALG = "upper_triangular(2)"

# near-rationals, "p/0" and zero denominators among them
_RATIONALISH = st.from_regex(r"[+-]?[0-9p]{1,2}(/[0-9]{1,2})?", fullmatch=True)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.sampled_from([-1, 2**63, 10**30, -(10**30)]),
    st.floats(),
    st.sampled_from(["1/2", "1.5", "1e3", "", " 1"]),
    _RATIONALISH,
    st.text(max_size=3),
)
_KEYS = st.sampled_from(["dim", "table", "labels", "left", "right", "matrix", "algebra_hash"]) | st.text(max_size=2)
_JSON = st.recursive(
    _LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3), max_leaves=10
)


def _paths(node, path=()):
    """The path of node and of every value inside it, as tuples of list indices and object keys."""
    yield path
    items = enumerate(node) if isinstance(node, list) else node.items() if isinstance(node, dict) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _edited(draw, doc):
    """doc with the value at one random path replaced, deleted, repeated (a ragged list) or nested one level deeper."""
    path = draw(st.sampled_from(list(_paths(doc))))
    action = draw(st.sampled_from(["replace", "delete", "repeat", "nest"]))
    if not path:
        return draw(_JSON) if action == "replace" else [doc] if action == "nest" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if action == "replace":
        # a string (a rational or a label) mostly turns into a near-rational
        old = parent[key]
        leaf = _RATIONALISH | _LEAVES if isinstance(old, str) else _LEAVES
        parent[key] = draw(_JSON if isinstance(old, (list, dict)) else leaf)
    elif action == "nest":
        parent[key] = [parent[key]]
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    return doc


@st.composite
def _contents(draw, base):
    """The bytes of a file: base with random edits, or raw text, bytes or nesting."""
    kind = draw(st.sampled_from(["edited"] * 4 + ["text", "bytes", "nested"]))
    if kind == "text":
        return draw(st.text(max_size=12)).encode("utf-8", "surrogatepass")
    if kind == "bytes":
        return draw(st.binary(max_size=12))
    if kind == "nested":
        depth = draw(st.sampled_from([3, 500, 100_000]))
        return ("[" * depth + "1" + "]" * depth).encode()
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        doc = _edited(draw, doc)
    return json.dumps(doc).encode()


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """Paths of the valid documents, and the base document of each fuzzed file."""
    root = tmp_path_factory.mktemp("fuzz")
    alg = resolve(_ALG).algebra
    e = alg.basis_element(0).coords
    ad = LinearOperator(alg, left_mult(alg, e)) - LinearOperator(alg, right_mult(alg, e))
    docs = {
        "Q": algebra_doc(rationals()),
        "dual": algebra_doc(dual_numbers()),
        "M": bimodule_doc(scalar_bimodule()),
        "lam": operator_doc(ad + LinearOperator.identity(alg)),
        "xi": operator_doc(ad),
        "m0": [["1"]],
    }
    paths = {name: str(root / f"{name}.json") for name in docs}
    for name, doc in docs.items():
        write_doc(paths[name], doc)
    return root, paths, docs


def _scenarios(p, fuzz):
    """(base document, argv choices) for each file a command reads, with fuzz in that file's place."""
    kinds = [k.value for k in IdentityKind]
    algebra_commands = lambda spec: [("solve", spec, "--identity", k) for k in kinds] + [("hypotheses", spec)]
    tri = {
        part: f"tri({fuzz if part == 'A' else p['Q']},{fuzz if part == 'M' else p['M']},{fuzz if part == 'B' else p['Q']})"
        for part in "AMB"
    }
    return [
        ("Q", algebra_commands(f"m2({fuzz})")),
        ("dual", algebra_commands(f"m2({fuzz})")),
        ("Q", algebra_commands(tri["A"])),
        ("M", algebra_commands(tri["M"])),
        ("Q", algebra_commands(tri["B"])),
        ("lam", [("proper", _ALG, fuzz), ("decompose", _ALG, fuzz), ("decompose", _ALG, fuzz, "--xi", p["xi"])]),
        ("xi", [("decompose", _ALG, p["lam"], "--xi", fuzz)]),
        ("m0", [("hypotheses", _ALG, "--candidates-m0", fuzz)]),
    ]


@settings(max_examples=250)
@given(data=st.data())
def test_a_random_document_exits_0_1_or_2_without_a_traceback(documents, data):
    root, paths, docs = documents
    fuzz = root / "fuzz.json"
    base, commands = data.draw(st.sampled_from(_scenarios(paths, str(fuzz))))
    argv = data.draw(st.sampled_from(commands)) + ("--format", data.draw(st.sampled_from(["text", "json"])))
    fuzz.write_bytes(data.draw(_contents(docs[base])))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("invalid input:") and err.getvalue().count("\n") == 1
