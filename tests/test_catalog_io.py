import hashlib
import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lietriple.algebra import StructureConstants, center, find_unit
from lietriple.cli import main
from lietriple.catalog import (
    direct_sum,
    dual_numbers,
    example_1_2,
    full_matrix,
    full_matrix_gma,
    random_gma,
    rationals,
    resolve,
    standard_gmas,
    strict_upper_3x3,
    triangular_context,
    upper_triangular,
    upper_triangular_gma,
)
from lietriple.errors import HashMismatch
from lietriple.gma import Bimodule, assemble, check_annihilating_conditions, context_of, m2_of, peirce_from_idempotent
from lietriple.io import brief, dump_json, operator_from_doc, parse_rat, sc_from_doc, vector_doc
from lietriple.linalg import _ZERO, tensor_entries
from oracles import (
    RATIONAL_BASIS,
    algebra_doc,
    bimodule_doc,
    context_grids,
    dense_content_hash,
    grid_algebra,
    matrix,
    operator_doc,
    operator_of,
    rebased,
    write_doc,
)

F = Fraction


class TestCatalogEntries:
    def test_upper_triangular_sizes(self):
        assert upper_triangular(1).dim == 1
        assert upper_triangular(2).dim == 3
        assert upper_triangular(3).dim == 6
        assert find_unit(upper_triangular(2)) is not None

    def test_full_matrix_three(self):
        m3 = full_matrix(3)
        assert m3.dim == 9
        z = center(m3)
        assert z.dim == 1
        assert z.contains_vector(find_unit(m3).coords)

    def test_example_entry(self):
        ex = example_1_2()
        assert ex.gma.algebra.dim == 12
        assert find_unit(ex.gma.algebra) is None
        assert center(ex.gma.algebra).dim == 4

    def test_example_phi_is_the_swap_of_the_diagonal_corners(self):
        # written from indices: e_j -> e_(j+9) and e_(j+9) -> e_j for j < 3, every other basis vector -> 0
        ex = example_1_2()
        n = ex.gma.algebra.dim
        swap = {**{j: j + 9 for j in range(3)}, **{j + 9: j for j in range(3)}}
        assert ex.phi.coords == tuple(int(swap.get(j) == r) for j in range(n) for r in range(n))

    def test_standard_gmas_pass_their_suites(self):
        for name, u in standard_gmas().items():
            assert find_unit(u.algebra) is not None, name
            assert check_annihilating_conditions(u).holds, name

    def test_resolve_named_forms(self):
        e = resolve("upper_triangular(2)")
        assert e.algebra.dim == 3 and e.gma is not None
        e = resolve("full_matrix(3)")
        assert e.algebra.dim == 9
        e = resolve("example_1_2")
        assert "phi" in e.extras
        e = resolve("full_matrix(1)")
        assert e.gma is None and e.algebra.dim == 1

    def test_resolve_rejects_junk(self):
        with pytest.raises(ValueError):
            resolve("quaternions(2)")

    def test_resolve_document_forms(self, tmp_path):
        q = rationals()
        apath = tmp_path / "a.json"
        mpath = tmp_path / "m.json"
        bpath = tmp_path / "b.json"
        write_doc(apath, algebra_doc(q))
        write_doc(bpath, algebra_doc(q))
        from lietriple.catalog import scalar_bimodule

        write_doc(mpath, bimodule_doc(scalar_bimodule()))
        e = resolve(f"tri({apath},{mpath},{bpath})")
        assert e.algebra.table == upper_triangular(2).table
        e = resolve(f"m2({apath})")
        assert e.algebra.table == full_matrix(2).table

    def test_random_gma_deterministic(self):
        a = random_gma(random.Random(42)).algebra
        b = random_gma(random.Random(42)).algebra
        assert a.table == b.table


# sha256 over (content hash, block dims, labels) of random_gma(Random(s),
# require_n) for s < 60 and require_n in (None, True, False), recorded when
# the draws were still assembled from a Morita context of eight tensors.
_PINNED_RANDOM_DRAWS = "5f8f4e92bade97657b2451f9fa0af810d58a27b37c7fad68ee6059d462eeb8ea"


@pytest.fixture(scope="module")
def pinned_draws() -> list:
    """(s, require_n, random_gma(Random(s), require_n)) for the pinned draws."""
    return [(s, r, random_gma(random.Random(s), require_n=r)) for s in range(60) for r in (None, True, False)]


def test_random_gma_draws_are_pinned_and_unital(pinned_draws):
    digest = hashlib.sha256()
    for s, require_n, u in pinned_draws:
        assert find_unit(u.algebra) is not None
        digest.update(f"{s}|{require_n}|{u.algebra.content_hash}|{u.dims}|{u.algebra.labels}\n".encode())
    assert digest.hexdigest() == _PINNED_RANDOM_DRAWS


def test_every_pinned_draw_hashes_as_its_dense_payload(pinned_draws):
    for _, _, u in pinned_draws:
        assert u.algebra.content_hash == dense_content_hash(u.algebra.table, u.algebra.labels)


# Content hash (table, labels and basis order) and block dims of each
# catalog split, recorded before the split was rewritten on sparse data.
_PINNED_SPLITS = {
    "upper_triangular(2)": ("c88016fe8a11124ae4e704633c63412bc699a48bb00dcdec82cb4f2c1efb4048", (1, 1, 0, 1)),
    "upper_triangular(3)": ("567d7e4024430e6ca4beebcfa8367849e72df7f4d9d6cce447798827bb5efbbd", (1, 2, 0, 3)),
    "upper_triangular(4)": ("af4066f53e691361ec68eec29f98faad37cd2c4a433caefc291fc99109e6a2a8", (1, 3, 0, 6)),
    "upper_triangular(5)": ("7c563987a25902c0332e41d96b11f1daf6820aee790568ec4a8638810f3c0ea1", (1, 4, 0, 10)),
    "full_matrix(2)": ("83eab789116ebf3ba83bf1f187f5e79761385a9bd49e150b6799a0de6713d76e", (1, 1, 1, 1)),
    "full_matrix(3)": ("49265c5afc2519318a5c9940a4ea739dc5dd655cbb0182154281dc4764040c03", (1, 2, 2, 4)),
    "full_matrix(4)": ("937fe48168d3f54299d1aeea0932832234213e90b864c581c0d7a4d67589fdbb", (1, 3, 3, 9)),
    "full_matrix(5)": ("82cb172b8ef1d5c62f6481d27bd4d79d38d3b2af1e10886719648f5ff4b39fd6", (1, 4, 4, 16)),
}


@pytest.mark.parametrize("spec", sorted(_PINNED_SPLITS))
def test_catalog_split_is_pinned(spec):
    entry = resolve(spec)
    assert (entry.algebra.content_hash, entry.gma.dims) == _PINNED_SPLITS[spec]


def _table_hashes() -> dict[str, str]:
    """The content hash of every table the package writes: named algebras, direct sums, block assemblies, matrix splits."""
    algebras = {"rationals": rationals(), "dual_numbers": dual_numbers(), "strict_upper_3x3": strict_upper_3x3()}
    algebras.update({f"full_matrix({n})": full_matrix(n) for n in range(1, 6)})
    algebras.update({f"upper_triangular({n})": upper_triangular(n) for n in range(1, 7)})
    algebras["direct_sum(full_matrix(2), rationals())"] = direct_sum(full_matrix(2), rationals())
    algebras["direct_sum(upper_triangular(2), dual_numbers())"] = direct_sum(upper_triangular(2), dual_numbers())
    algebras["direct_sum(strict_upper_3x3(), upper_triangular(3))"] = direct_sum(strict_upper_3x3(), upper_triangular(3))
    algebras["m2_of(strict_upper_3x3())"] = m2_of(strict_upper_3x3()).algebra
    t4 = upper_triangular_gma(4, 2).context
    algebras["triangular_context(T4 corners)"] = assemble(triangular_context(t4.A, t4.M, t4.B)).algebra
    hashes = {name: alg.content_hash for name, alg in algebras.items()}
    for n in range(2, 6):
        for split in range(1, n):
            hashes[f"full_matrix_gma({n}, {split})"] = full_matrix_gma(n, split).content_hash
            hashes[f"upper_triangular_gma({n}, {split})"] = upper_triangular_gma(n, split).content_hash
    return hashes


# sha256 over the sorted JSON of ``_table_hashes()`` (39 content hashes),
# recorded while each of these tables was still a hand-filled dense zero table.
_PINNED_TABLES = "4a62fd8cbbde08563945bbb6f49f2576f4b9bdd3170dabf52c684be839cc168f"


def test_every_written_table_is_pinned():
    hashes = _table_hashes()
    assert len(hashes) == 39
    assert hashlib.sha256(json.dumps(hashes, sort_keys=True).encode()).hexdigest() == _PINNED_TABLES


def _peirce(alg, units):
    """The Peirce split of alg along the sum of the named basis vectors."""
    return peirce_from_idempotent(alg, alg.element([int(label in units) for label in alg.labels])).gma.algebra


# every builder that writes a table, each once
_BUILT = {
    **{f"full_matrix({n})": (lambda n=n: full_matrix(n)) for n in range(1, 6)},
    **{f"upper_triangular({n})": (lambda n=n: upper_triangular(n)) for n in range(1, 6)},
    "rationals": rationals,
    "dual_numbers": dual_numbers,
    "strict_upper_3x3": strict_upper_3x3,
    "direct_sum(M2, Q)": lambda: direct_sum(full_matrix(2), rationals()),
    "direct_sum(T2, dual)": lambda: direct_sum(upper_triangular(2), dual_numbers()),
    "example_1_2": lambda: example_1_2().gma.algebra,
    "m2_of(T2)": lambda: m2_of(upper_triangular(2)).algebra,
    "m2_of(rebased M2)": lambda: m2_of(rebased(full_matrix(2), RATIONAL_BASIS)).algebra,
    "assemble(T4 corners)": lambda: assemble(triangular_context(*(lambda c: (c.A, c.M, c.B))(upper_triangular_gma(4, 2).context))).algebra,
    "full_matrix_gma(4, 2)": lambda: full_matrix_gma(4, 2).algebra,
    "peirce(M3, e11)": lambda: _peirce(full_matrix(3), {"e11"}),
    "peirce(T3, e11 + e22)": lambda: _peirce(upper_triangular(3), {"e11", "e22"}),
    "peirce(M2, e11 + e12)": lambda: _peirce(full_matrix(2), {"e11", "e12"}),
}


@pytest.mark.parametrize("name", sorted(_BUILT))
def test_a_built_table_hashes_as_its_dense_payload(name):
    alg = _BUILT[name]()
    assert alg.content_hash == dense_content_hash(alg.table, alg.labels)


@given(
    st.sampled_from(sorted(_BUILT)),
    st.fractions(max_denominator=12).filter(bool),
    st.data(),
)
def test_a_scaled_table_with_explicit_zeros_hashes_as_its_dense_payload(name, scale, data):
    # c -> s c keeps a table associative; the zeros handed over explicitly
    # must write as "0" like every entry left out, and any label as json writes it
    base = _BUILT[name]()
    n = base.dim
    table = [[[x * scale for x in row] for row in plane] for plane in base.table]
    cells = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    zeros = data.draw(st.lists(st.sampled_from(cells), max_size=8))
    nonzeros = {cell: 0 for cell in zeros}
    nonzeros.update({(i, j, k): x for i, j, k in cells if (x := table[i][j][k])})
    labels = data.draw(st.none() | st.lists(st.text(max_size=3), min_size=n, max_size=n))
    alg = StructureConstants(n, nonzeros, labels)
    assert alg.content_hash == dense_content_hash(table, alg.labels)
    assert alg.labels == (tuple(f"e{i}" for i in range(n)) if labels is None else tuple(labels))


def _refused_unbuilt(build, dim: int) -> None:
    """build() raises the cap's ValueError, its traced peak under a quarter of any dense dim^3 grid.

    A grid of dim^3 entries holds at least one 8-byte pointer an entry.
    """
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="too large to build$"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * dim**3


def _tri_documents(tmp_path, m_dim: int) -> str:
    """The spec tri(Q, M, Q) for a zero bimodule document M of the given dim."""
    q = {"table": [[["1"]]]}
    m = {"dim": m_dim, "left": [[["0"] * m_dim] * m_dim], "right": [[["0"] * m_dim]] * m_dim}
    paths = []
    for name, doc in (("A", q), ("M", m), ("B", q)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return f"tri({','.join(paths)})"


# 162^3 > 2**22: each path to a table past dim 161 is refused before any
# structure of that size is made; M2(M9) has dim 4 * 81 = 324
@pytest.mark.parametrize("route", ["catalog", "direct_sum", "assemble", "m2_of", "document"])
def test_each_path_refuses_an_oversized_table_before_allocating_it(cold_cache, tmp_path, route):
    # the corners and the documents are made before the measurement
    m9, tri = full_matrix(9), _tri_documents(tmp_path, 160)
    builds = {
        "catalog": (lambda: resolve("full_matrix(13)"), 169),
        "direct_sum": (lambda: direct_sum(m9, m9), 162),
        "assemble": (lambda: assemble(triangular_context(m9, Bimodule.zero(81, 81), m9)), 162),
        "m2_of": (lambda: m2_of(m9), 324),
        "document": (lambda: resolve(tri), 162),
    }
    _refused_unbuilt(*builds[route])


def _no_table(cells):
    raise AssertionError(f"the {len(cells)} cells of a table were listed")


@pytest.mark.parametrize("spec", ["upper_triangular(0)", "full_matrix(0)"])
def test_a_matrix_size_below_one_exits_2(capsys, spec):
    assert main(["solve", spec, "--identity", "ltc"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "invalid input: n must be at least 1\n")


@pytest.mark.parametrize("split", [0, 3])
def test_a_split_outside_the_matrix_is_refused(split):
    with pytest.raises(ValueError, match="^split must lie strictly inside the matrix$"):
        full_matrix_gma(3, split=split)


@pytest.mark.parametrize(
    "build, n",
    [(full_matrix, 13), (upper_triangular, 18), (full_matrix_gma, 13), (upper_triangular_gma, 18)],
    ids=["full", "upper", "full-gma", "upper-gma"],
)
def test_an_oversized_matrix_size_is_refused_before_a_cell_is_listed(cold_cache, monkeypatch, build, n):
    import lietriple.catalog

    monkeypatch.setattr(lietriple.catalog, "_matrix_units", _no_table)
    with pytest.raises(ValueError, match=f"^matrix size {n} is too large to build$"):
        build(n)


@pytest.mark.parametrize(
    "build, n, dim",
    [(full_matrix, 12, 144), (upper_triangular, 17, 153), (full_matrix_gma, 12, 144), (upper_triangular_gma, 17, 153)],
    ids=["full", "upper", "full-gma", "upper-gma"],
)
def test_the_largest_matrix_sizes_reach_their_table(cold_cache, monkeypatch, build, n, dim):
    # dim^3 <= 2**22 < (dim + 1)^3 holds for dim 161; these are the largest sizes within it
    import lietriple.catalog

    monkeypatch.setattr(lietriple.catalog, "_matrix_units", _no_table)
    with pytest.raises(AssertionError, match=f"^the {dim} cells of a table were listed$"):
        build(n)


def test_ten_row_split_is_along_e11():
    # two-digit indices make labels like e110 = e_{1,10}; the split must not read them as diagonal
    u = upper_triangular_gma(10)
    assert u.dims == (1, 9, 0, 45)
    assert [u.algebra.labels[i] for i in u.ranges["A"]] == ["e11"]
    assert [u.algebra.labels[i] for i in u.ranges["M"]] == [f"e1{j}" for j in range(2, 11)]


def test_catalog_split_runs_once_per_algebra(cold_cache, monkeypatch):
    import lietriple.catalog

    calls = []
    build = lietriple.catalog._matrix_units

    def counting(cells):
        calls.append(len(cells))
        return build(cells)

    monkeypatch.setattr(lietriple.catalog, "_matrix_units", counting)
    first, second = resolve("full_matrix(3)"), resolve("full_matrix(3)")
    assert full_matrix_gma(3) is first.gma
    assert calls == [9]
    assert first.gma is second.gma and first.algebra is second.algebra


@pytest.mark.parametrize(
    "raw, direct", [(full_matrix, full_matrix_gma), (upper_triangular, upper_triangular_gma)], ids=["full", "upper"]
)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_catalog_gma_is_the_peirce_split_along_the_leading_units(raw, direct, n):
    # the GMA built from matrix units in block order is the Peirce split
    # of the row-major algebra along e = e_11 + ... + e_kk, for every k
    alg = raw(n)
    tensors = context_grids
    for split in range(1, n):
        e = alg.element([int(label in {f"e{i}{i}" for i in range(1, split + 1)}) for label in alg.labels])
        peirce, built = peirce_from_idempotent(alg, e).gma, direct(n, split)
        assert built.algebra.content_hash == peirce.algebra.content_hash
        assert built.algebra.labels == peirce.algebra.labels
        assert built.dims == peirce.dims
        assert tensors(context_of(built.algebra, built.dims)) == tensors(context_of(peirce.algebra, peirce.dims))


def test_equal_m2_documents_share_one_assembly(cold_cache, monkeypatch, tmp_path):
    import lietriple.gma

    calls = []
    exact = lietriple.gma.assemble

    def counting(ctx):
        calls.append(ctx.A.dim)
        return exact(ctx)

    monkeypatch.setattr(lietriple.gma, "assemble", counting)
    paths = [tmp_path / "a.json", tmp_path / "copy" / "a.json"]
    paths[1].parent.mkdir()
    for path in paths:
        write_doc(path, algebra_doc(upper_triangular(2)))
    first, second = (resolve(f"m2({path})") for path in paths)
    assert calls == [3]
    assert first.gma is second.gma


def test_a_deterministic_spec_is_built_once(cold_cache, monkeypatch):
    import lietriple.catalog

    calls = []
    units = lietriple.catalog._matrix_units

    def counting(cells):
        calls.append(len(cells))
        return units(cells)

    monkeypatch.setattr(lietriple.catalog, "_matrix_units", counting)
    for spec, dim in (("full_matrix(3)", 9), ("upper_triangular(2)", 3), ("full_matrix(1)", 1), ("example_1_2", 12)):
        calls.clear()
        first, second = resolve(spec), resolve(f" {spec}\n")
        assert first is second and first.algebra.dim == dim
        assert len(calls) == (spec != "example_1_2")
    # the entry's name echoes the spec, so a spelling of its own is an entry of its own
    padded = resolve("upper_triangular(02)")
    assert padded.name == "upper_triangular(02)" and resolve("upper_triangular(2)").name == "upper_triangular(2)"
    assert padded.algebra == resolve("upper_triangular(2)").algebra
    # the algebra constructors still build afresh
    assert full_matrix(3) is not full_matrix(3)


def test_a_document_spec_reads_its_file_again(tmp_path):
    path = tmp_path / "a.json"
    write_doc(path, algebra_doc(upper_triangular(2)))
    assert resolve(f"m2({path})").algebra.dim == 12
    write_doc(path, algebra_doc(rationals()))
    assert resolve(f"m2({path})").algebra.dim == 4


def test_shared_entries_are_read_only():
    entry = resolve("example_1_2")
    with pytest.raises(TypeError):
        entry.extras["phi"] = None
    with pytest.raises(AttributeError, match="cannot assign to field 'gma'"):
        entry.gma = None
    assert resolve("example_1_2").extras["phi"] is entry.extras["phi"]


_STRINGS = st.text(st.sampled_from('a"\\/\x00\x1f\x7f\n\té€\u2028\ud800\U0001f600') | st.characters(), max_size=6)
_LEAVES = st.none() | st.booleans() | st.integers() | st.integers(-(2**80), 2**80) | _STRINGS
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.lists(_STRINGS, max_size=4)
        | st.dictionaries(_STRINGS, inner, max_size=4)
    ),
    max_leaves=24,
)


@given(_DOCUMENTS)
def test_dump_json_writes_the_bytes_of_json_dumps(doc):
    assert dump_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@given(_DOCUMENTS, st.sampled_from([1.5, float("nan"), F(1, 2), b"x", {"a"}, {1: "a"}, {None: 1}, {(1,): 2}]))
def test_dump_json_refuses_what_it_does_not_render(doc, bad):
    with pytest.raises(TypeError):
        dump_json({"doc": doc, "bad": ["x", bad]})


# negatives, p/q, numerators and denominators beyond 2^64, the shared zero
# and a zero built apart from it
_RATIONALS = (
    st.fractions()
    | st.builds(F, st.integers(-(2**80), 2**80), st.integers(1, 2**70))
    | st.just(_ZERO)
    | st.builds(F, st.just(0))
)
_VECTORS = st.lists(_RATIONALS, max_size=5) | st.lists(_RATIONALS, max_size=5).map(tuple)
_RATIONAL_DOCUMENTS = st.recursive(
    _LEAVES | _VECTORS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_STRINGS, inner, max_size=4)
    ),
    max_leaves=16,
)


def _as_strings(doc):
    """doc with each rational vector (a nonempty list or tuple of Fractions) mapped by ``vector_doc``."""
    if isinstance(doc, dict):
        return {key: _as_strings(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        if doc and all(isinstance(x, F) for x in doc):
            return vector_doc(doc)
        return [_as_strings(x) for x in doc]
    return doc


@given(_RATIONAL_DOCUMENTS)
def test_dump_json_writes_a_rational_vector_as_its_strings(doc):
    assert dump_json(doc) == json.dumps(_as_strings(doc), sort_keys=True, indent=2) + "\n"


def test_a_rational_vector_writes_each_zero_as_0():
    assert F(0) is not _ZERO
    assert dump_json((_ZERO, F(0), F(-3, 4), F(2**70, 3))) == f'[\n  "0",\n  "0",\n  "-3/4",\n  "{2**70}/3"\n]\n'


@given(
    st.lists(_RATIONALS, min_size=1, max_size=4),
    st.sampled_from(["x", "0", "1/2", 0, 1, -(2**70), True, None]),
    st.data(),
)
def test_a_vector_mixing_a_fraction_with_another_type_is_refused(vector, other, data):
    vector.insert(data.draw(st.integers(0, len(vector)), label="position"), other)
    for doc in (vector, tuple(vector), {"v": tuple(vector)}):
        with pytest.raises(TypeError):
            dump_json(doc)


class TestDocuments:
    def test_structure_constants_round_trip(self):
        t2 = upper_triangular(2)
        doc = algebra_doc(t2)
        again = sc_from_doc(doc)
        assert again == t2 and again.labels == t2.labels

    def test_rationals_serialize_as_fraction_strings(self):
        alg = StructureConstants(1, {(0, 0, 0): F(1, 2)})
        assert sc_from_doc({"table": [[["1/2"]]]}) == alg

    def test_operator_round_trip_and_hash_guard(self):
        t2 = upper_triangular(2)
        op = operator_of(t2, matrix([[1, 2, 0], [0, 1, 0], [F(1, 3), 0, 1]]))
        doc = operator_doc(op)
        assert operator_from_doc(doc, t2) == op
        with pytest.raises(HashMismatch):
            operator_from_doc(doc, full_matrix(2))

    def test_dump_json_is_canonical(self):
        d1 = dump_json({"b": 1, "a": [2, 3]})
        d2 = dump_json({"a": [2, 3], "b": 1})
        assert d1 == d2

    def test_gma_basis_orderings_match_documented_layout(self):
        # Blocks are laid out [A, M, N, B]; for the matrix catalog the A
        # corner is the leading diagonal cell.
        u = full_matrix_gma(2)
        assert u.dims == (1, 1, 1, 1)
        assert list(u.block_range("A")) == [0]
        assert list(u.block_range("B")) == [3]
        ut = upper_triangular_gma(3)
        assert ut.dims == (1, 2, 0, 3)


@given(st.one_of(st.from_regex(r"[+-]?[0-9]{1,40}(/0*[1-9][0-9]{0,40})?", fullmatch=True), st.integers()))
def test_parse_rat_reads_a_rational_as_fraction_does(s):
    got = parse_rat(s)
    assert type(got) is Fraction and got == Fraction(s)


@pytest.mark.parametrize(
    "s", ["1/0", "1/00", " 1", "1 ", "\uff11", "1_0", "+-1", "1/-2", "1.5", "1e3", "", "/2", True, 1.0, None]
)
def test_parse_rat_rejects_what_is_not_a_json_rational(s):
    # Fraction reads " 1", the fullwidth one, "1_0", "1.5" and 1.0; "1/0" would divide by zero
    with pytest.raises(ValueError) as exc:
        parse_rat(s)
    assert str(exc.value) == f"not a rational: {brief(s)}"


def _spellings(x: Fraction) -> list:
    """Ways a document may write the rational x: canonical, unreduced, signed, zero-padded, and a JSON int."""
    p, q = x.numerator, x.denominator
    out = [str(x), f"{2 * p}/{2 * q}", f"{p}/0{q}"]
    if p >= 0:
        out += [f"+{p}/{q}", f"0{p}/{q}"]
    if q == 1:
        out.append(p)
    return out


# tables whose documents repeat strings: M_2 in a rational basis (denominators 2, 3, 6 and 9), T_2 scaled
# by -3/4 (still associative: (x o y) o z = x o (y o z) = 9/16 xyz), and the zero-heavy strict upper 3 x 3
_REPEATING_TABLES = {
    "M2q": lambda: rebased(full_matrix(2), RATIONAL_BASIS),
    "T2 * -3/4": lambda: StructureConstants(
        3, {key: F(-3, 4) * x for key, x in tensor_entries(upper_triangular(2)._sparse).items()}
    ),
    "strict_upper_3x3": strict_upper_3x3,
}


def _cells(alg: StructureConstants) -> list:
    """The table's cells in row-major order, as Fractions."""
    return [x for plane in alg.table for row in plane for x in row]


def _document(alg: StructureConstants, cells: list) -> dict:
    n = alg.dim
    rows = [cells[r * n : (r + 1) * n] for r in range(n * n)]
    return {"labels": list(alg.labels), "table": [rows[i * n : (i + 1) * n] for i in range(n)]}


@given(st.sampled_from(list(_REPEATING_TABLES)), st.data())
def test_a_document_spelling_its_rationals_several_ways_hashes_as_read_cell_by_cell(name, data):
    # the reader parses each distinct string once and hands every repeat the
    # same value; reading every cell afresh must give the same algebra
    alg = _REPEATING_TABLES[name]()
    cells = [data.draw(st.sampled_from(_spellings(x))) for x in _cells(alg)]
    doc = _document(alg, cells)
    assert len(set(map(repr, cells))) < len(cells)
    afresh = grid_algebra([[list(map(parse_rat, row)) for row in plane] for plane in doc["table"]], doc["labels"])
    assert sc_from_doc(doc).content_hash == afresh.content_hash == alg.content_hash


_MALFORMED = ["1/0", "1.5", " 1", "x", "1/-2", "", "1/2 ", True, False, None, 1.0, [1], {"1": 2}]


@given(
    st.sampled_from(list(_REPEATING_TABLES)),
    st.sampled_from([x for x in _MALFORMED if isinstance(x, str)]),
    st.lists(st.sampled_from(_MALFORMED), max_size=2),
    st.data(),
)
def test_a_malformed_string_in_two_cells_is_reported_at_the_first_malformed_cell(name, bad, others, data):
    # the malformed string sits in two cells, and other malformed values
    # elsewhere: unhashable ones, and True and False among JSON ints 1 and 0.
    # The message names the first in row-major order.
    alg = _REPEATING_TABLES[name]()
    cells = [data.draw(st.sampled_from(_spellings(x))) for x in _cells(alg)]
    count = 2 + len(others)
    spots = data.draw(st.lists(st.integers(0, len(cells) - 1), min_size=count, max_size=count, unique=True))
    for spot, value in zip(spots, [bad, bad, *others]):
        cells[spot] = value
    with pytest.raises(ValueError) as exc:
        sc_from_doc(_document(alg, cells))
    assert str(exc.value) == f"not a rational: {brief(cells[min(spots)])}"


@pytest.mark.parametrize("bad", [True, False])
def test_a_bool_after_the_json_int_it_equals_is_refused(bad):
    # True == 1 and False == 0 as dict keys: a bool must not find the value of an earlier JSON int
    alg = strict_upper_3x3()
    cells = [int(x) for x in _cells(alg)]
    cells[-1] = bad
    with pytest.raises(ValueError) as exc:
        sc_from_doc(_document(alg, cells))
    assert str(exc.value) == f"not a rational: {bad}"


@pytest.mark.parametrize("bad", [[1], {"1": 2}], ids=["list", "object"])
def test_an_unhashable_cell_before_a_malformed_string_is_the_one_reported(bad):
    alg = strict_upper_3x3()
    cells = [str(x) for x in _cells(alg)]
    cells[1], cells[2], cells[-1] = bad, "1/0", "1/0"
    with pytest.raises(ValueError) as exc:
        sc_from_doc(_document(alg, cells))
    assert str(exc.value) == f"not a rational: {brief(bad)}"


@pytest.mark.parametrize("bad", ["1/0", "2/4/8", "one"])
def test_solve_on_a_document_with_a_repeated_malformed_string_exits_2_with_one_line(capsys, tmp_path, bad):
    alg = rebased(full_matrix(2), RATIONAL_BASIS)
    cells = [str(x) for x in _cells(alg)]
    first = cells.index("0")
    cells[first] = cells[cells.index("0", first + 1)] = bad
    path = tmp_path / "a.json"
    path.write_text(json.dumps(_document(alg, cells)))
    code = main(["solve", f"m2({path})", "--identity", "lc"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == f"invalid input: not a rational: {brief(bad)}\n"
