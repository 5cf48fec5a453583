import random
from fractions import Fraction

import pytest

from lietriple.algebra import StructureConstants, center, find_unit
from lietriple.catalog import (
    example_1_2,
    full_matrix,
    full_matrix_gma,
    random_gma,
    rationals,
    resolve,
    standard_gmas,
    upper_triangular,
    upper_triangular_gma,
)
from lietriple.errors import HashMismatch
from lietriple.gma import check_annihilating_conditions
from lietriple.io import (
    bimodule_to_doc,
    context_from_doc,
    context_to_doc,
    dump_json,
    operator_from_doc,
    operator_to_doc,
    save_json,
    sc_from_doc,
    sc_to_doc,
)
from lietriple.algebra import LinearOperator
from lietriple.linalg import Matrix

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
        save_json(str(apath), sc_to_doc(q))
        save_json(str(bpath), sc_to_doc(q))
        from lietriple.catalog import scalar_bimodule

        save_json(str(mpath), bimodule_to_doc(scalar_bimodule()))
        e = resolve(f"tri({apath},{mpath},{bpath})")
        assert e.algebra.table == upper_triangular(2).table
        e = resolve(f"m2({apath})")
        assert e.algebra.table == full_matrix(2).table

    def test_random_gma_deterministic(self):
        a = random_gma(random.Random(42)).algebra
        b = random_gma(random.Random(42)).algebra
        assert a.table == b.table


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


def test_ten_row_split_is_along_e11():
    # two-digit indices make labels like e110 = e_{1,10}; the split must not read them as diagonal
    u = upper_triangular_gma(10)
    assert u.dims == (1, 9, 0, 45)
    assert [u.algebra.labels[i] for i in u.ranges["A"]] == ["e11"]
    assert [u.algebra.labels[i] for i in u.ranges["M"]] == [f"e1{j}" for j in range(2, 11)]


class TestDocuments:
    def test_structure_constants_round_trip(self):
        t2 = upper_triangular(2)
        doc = sc_to_doc(t2)
        again = sc_from_doc(doc)
        assert again == t2 and again.labels == t2.labels

    def test_rationals_serialize_as_fraction_strings(self):
        alg = StructureConstants([[[F(1, 2)]]])
        doc = sc_to_doc(alg)
        assert doc["table"][0][0][0] == "1/2"
        assert sc_from_doc(doc).table[0][0][0] == F(1, 2)

    def test_context_round_trip(self):
        u = full_matrix_gma(3)
        doc = context_to_doc(u.context)
        ctx = context_from_doc(doc)
        from lietriple.gma import assemble

        assert assemble(ctx).algebra.table == u.algebra.table

    def test_operator_round_trip_and_hash_guard(self):
        t2 = upper_triangular(2)
        op = LinearOperator(t2, Matrix([[1, 2, 0], [0, 1, 0], [F(1, 3), 0, 1]]))
        doc = operator_to_doc(op)
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
