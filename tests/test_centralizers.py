import functools
import hashlib
import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import lietriple.algebra
import lietriple.centralizers
from lietriple.algebra import LinearOperator, basis_tensor
from lietriple.catalog import (
    direct_sum,
    example_1_2,
    full_matrix,
    full_matrix_gma,
    random_gma,
    rationals,
    standard_gmas,
    upper_triangular,
    upper_triangular_gma,
)
from lietriple.centralizers import (
    CORNERS,
    BlockDecomposition,
    IdentityKind,
    _FORMS,
    _condition_rows,
    _constraint_tuples,
    _packed_kernel,
    _six_map_layout,
    _sparsity_rows,
    _tags,
    _tuple_sides,
    block_decompose,
    build_from_blocks,
    corollary32_strengthen,
    is_identity_member,
    six_map_solution_space,
    six_maps_from_flat,
    solve_identity_space,
    verify_thm31_conditions,
)
from lietriple.cli import main, reproduction_checks
from lietriple.errors import AlgebraMismatch, DimensionMismatch, NotGMA
from lietriple.gma import GMA
from lietriple.linalg import Matrix, Subspace, int_flats, kernel_of_rows

from oracles import (
    RATIONAL_BASIS,
    dense_identity_space,
    dimension_law,
    identity_matrix,
    identity_sides,
    inverse,
    matrix,
    matrix_of,
    operator_doc,
    operator_of,
    rebased,
    residual_is_zero,
    rows_of,
    unit_diagonal_basis,
    write_doc,
    zero_operator,
)

F = Fraction
K = IdentityKind


@pytest.fixture(scope="module")
def gmas():
    return {
        "T2": upper_triangular_gma(2),
        "T3": upper_triangular_gma(3),
        "M2": full_matrix_gma(2),
        "M3": full_matrix_gma(3),
    }


@pytest.fixture(scope="module")
def ex12():
    return example_1_2()


def rand_combination(space, rng):
    flat = (F(0),) * space.ambient
    for bv in space.basis:
        c = F(rng.randint(-3, 3), rng.choice((1, 2)))
        flat = tuple(a + c * b for a, b in zip(flat, bv))
    return flat


class TestSolutionDimensions:
    def test_t2_ltc_matches_dense_oracle(self):
        t2 = upper_triangular(2)
        got = solve_identity_space(t2, K.LIE_TRIPLE_CENTRALIZER)
        oracle = dense_identity_space(t2, "ltc")
        assert got.dim == 3
        assert got.basis == oracle

    def test_m2_ltc_matches_dense_oracle(self):
        m2 = full_matrix(2)
        got = solve_identity_space(m2, K.LIE_TRIPLE_CENTRALIZER)
        oracle = dense_identity_space(m2, "ltc")
        assert got.dim == 2
        assert got.basis == oracle

    def test_example_ltc_is_everything(self, ex12):
        space = solve_identity_space(ex12.gma.algebra, K.LIE_TRIPLE_CENTRALIZER)
        assert space.dim == 144
        assert space.is_full()

    def test_example_lie_centralizer_strictly_smaller(self, ex12):
        space = solve_identity_space(ex12.gma.algebra, K.LIE_CENTRALIZER)
        assert space.dim == 33  # exact-kernel value, frozen as a regression
        # soundness: each basis solution satisfies the identity element-wise
        alg = ex12.gma.algebra
        for v in space.basis[:5]:
            assert residual_is_zero(alg, matrix_of(LinearOperator.from_flat(alg, v)), "lc")

    def test_identity_operator_in_all_centralizer_kinds(self, gmas):
        for u in gmas.values():
            for kind in (K.LIE_CENTRALIZER, K.LIE_TRIPLE_CENTRALIZER, K.JORDAN_CENTRALIZER):
                space = solve_identity_space(u.algebra, kind)
                assert space.contains_vector(LinearOperator.identity(u.algebra).flatten())

    def test_derivation_oracle_agreement_on_t2(self):
        t2 = upper_triangular(2)
        for kind, name in ((K.DERIVATION, "der"), (K.LIE_DERIVATION, "lieder"),
                           (K.JORDAN_DERIVATION, "jder"), (K.LIE_TRIPLE_DERIVATION, "ltd")):
            assert solve_identity_space(t2, kind).basis == dense_identity_space(t2, name)


class TestInclusionLattice:
    def test_centralizer_inclusions(self, gmas, ex12):
        algebras = [u.algebra for u in gmas.values()] + [ex12.gma.algebra]
        for alg in algebras:
            ltc = solve_identity_space(alg, K.LIE_TRIPLE_CENTRALIZER)
            assert ltc.contains(solve_identity_space(alg, K.LIE_CENTRALIZER))
            assert ltc.contains(solve_identity_space(alg, K.JORDAN_CENTRALIZER))

    def test_strictness_on_example(self, ex12):
        alg = ex12.gma.algebra
        ltc = solve_identity_space(alg, K.LIE_TRIPLE_CENTRALIZER)
        lc = solve_identity_space(alg, K.LIE_CENTRALIZER)
        assert lc.dim < ltc.dim
        assert not lc.contains(ltc)


class TestMembership:
    def test_example_phi_is_triple_but_not_lie(self, ex12):
        alg = ex12.gma.algebra
        assert is_identity_member(alg, K.LIE_TRIPLE_CENTRALIZER, ex12.phi)
        chk = is_identity_member(alg, K.LIE_CENTRALIZER, ex12.phi)
        assert not chk
        assert chk.witness is not None and chk.lhs != chk.rhs

    def test_catalog_witness_pair(self, ex12):
        phi, a0, b0 = ex12.phi, ex12.a0, ex12.b0
        assert phi(a0 * b0 - b0 * a0) != phi(a0) * b0 - b0 * phi(a0)

    def test_zero_operator_member_everywhere(self, gmas):
        for u in gmas.values():
            for kind in K:
                target = u if kind is K.SINGULAR_JORDAN_DERIVATION else u.algebra
                assert is_identity_member(target, kind, zero_operator(u.algebra))

    def test_membership_agrees_with_subspace(self, gmas):
        rng = random.Random(9)
        for u in gmas.values():
            alg = u.algebra
            space = solve_identity_space(alg, K.LIE_TRIPLE_CENTRALIZER)
            for _ in range(5):
                member = LinearOperator.from_flat(alg, rand_combination(space, rng))
                assert is_identity_member(alg, K.LIE_TRIPLE_CENTRALIZER, member)
                assert space.contains_vector(member.flatten())
            # perturb: add a non-member direction when one exists
            full = Subspace.full(space.ambient)
            if space != full:
                outside = next(
                    v for v in full.basis if not space.contains_vector(v)
                )
                bad = LinearOperator.from_flat(
                    alg, tuple(a + b for a, b in zip(member.flatten(), outside))
                )
                assert not is_identity_member(alg, K.LIE_TRIPLE_CENTRALIZER, bad)
                assert not space.contains_vector(bad.flatten())

    def test_middle_slot_variant_same_space(self):
        for alg in (upper_triangular(2), upper_triangular(3), full_matrix(2)):
            ltc = solve_identity_space(alg, K.LIE_TRIPLE_CENTRALIZER)
            assert dense_identity_space(alg, "ltc_middle") == ltc.basis

    def test_middle_slot_variant_on_example(self, ex12):
        # Triple products vanish identically, so the middle-slot identity
        # holds for arbitrary operators, matching the full solved space.
        alg = ex12.gma.algebra
        rng = random.Random(4)
        op = LinearOperator.from_flat(
            alg, tuple(F(rng.randint(-2, 2)) for _ in range(144))
        )
        assert residual_is_zero(alg, matrix_of(op), "ltc_middle")

    def test_operator_of_another_algebra_is_rejected(self):
        # The 4x4 identity of M2 must not be read as an operator on the dim-3 T2.
        with pytest.raises(AlgebraMismatch):
            is_identity_member(upper_triangular(2), K.LIE_TRIPLE_CENTRALIZER, LinearOperator.identity(full_matrix(2)))

    def test_sjd_requires_block_structure(self):
        with pytest.raises(NotGMA):
            solve_identity_space(upper_triangular(2), K.SINGULAR_JORDAN_DERIVATION)

    def test_sjd_vanishes_on_faithful_catalog(self, gmas):
        # Faithful pairings force both off-diagonal swap maps to zero.
        for u in gmas.values():
            assert solve_identity_space(u, K.SINGULAR_JORDAN_DERIVATION).is_zero()

    def test_sjd_nonzero_on_zero_pairing_context(self):
        from lietriple.catalog import rationals
        from lietriple.gma import Bimodule, MoritaContext, assemble

        q = rationals()
        reg = Bimodule.regular(q)
        u = assemble(MoritaContext(q, q, reg, reg, {}, {}))
        space = solve_identity_space(u, K.SINGULAR_JORDAN_DERIVATION)
        assert space.dim == 2  # the two off-diagonal swaps survive
        jder = solve_identity_space(u.algebra, K.JORDAN_DERIVATION)
        assert jder.contains(space)
        for v in space.basis:
            op = LinearOperator.from_flat(u.algebra, v)
            assert is_identity_member(u, K.SINGULAR_JORDAN_DERIVATION, op)


class TestBlockDecompose:
    def test_identity_on_t2(self, gmas):
        u = gmas["T2"]
        d = block_decompose(u, LinearOperator.identity(u.algebra))
        assert d.alpha1 == identity_matrix(1)
        assert d.tau2 == identity_matrix(1)
        assert d.beta4 == identity_matrix(1)
        for name in ("alpha2", "alpha3", "alpha4", "beta1", "beta2", "beta3",
                      "tau1", "tau3", "tau4"):
            assert getattr(d, name).is_zero()

    def test_central_scaling_on_m2(self, gmas):
        u = gmas["M2"]
        op = 3 * LinearOperator.identity(u.algebra)
        d = block_decompose(u, op)
        for name in ("alpha1", "beta4", "tau2", "gamma3"):
            mat = getattr(d, name)
            assert rows_of(mat)[0][0] == 3

    def test_example_phi_corners(self, ex12):
        d = block_decompose(ex12.gma, ex12.phi)
        assert d.alpha4 == identity_matrix(3)  # A-corner lands in B
        assert d.beta1 == identity_matrix(3)  # B-corner lands in A
        for name in ("alpha1", "alpha2", "alpha3", "beta2", "beta3", "beta4",
                      "tau1", "tau2", "tau3", "tau4",
                      "gamma1", "gamma2", "gamma3", "gamma4"):
            assert getattr(d, name).is_zero()

    def test_operator_of_another_algebra_is_rejected(self):
        with pytest.raises(AlgebraMismatch):
            block_decompose(upper_triangular_gma(3), LinearOperator.identity(full_matrix_gma(3).algebra))

    def test_corner_of_wrong_shape_is_rejected_on_construction(self, gmas):
        u = gmas["T3"]
        d = block_decompose(u, LinearOperator.identity(u.algebra))
        corners = {name: getattr(d, name) for name in CORNERS}
        with pytest.raises(DimensionMismatch, match="tau2"):
            BlockDecomposition(gma=u, **{**corners, "tau2": identity_matrix(1)})

    def test_exact_reassembly(self, gmas):
        rng = random.Random(17)
        for u in gmas.values():
            n = u.algebra.dim
            op = LinearOperator.from_flat(
                u.algebra, tuple(F(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(n * n))
            )
            assert block_decompose(u, op).reassemble() == op


class TestThm31Conditions:
    def test_ltc_basis_passes(self, gmas):
        for u in gmas.values():
            space = solve_identity_space(u.algebra, K.LIE_TRIPLE_CENTRALIZER)
            for v in space.basis:
                op = LinearOperator.from_flat(u.algebra, v)
                rep = verify_thm31_conditions(u, block_decompose(u, op))
                assert rep.passed, rep.failures

    def test_identity_passes_on_m2(self, gmas):
        u = gmas["M2"]
        rep = verify_thm31_conditions(u, block_decompose(u, LinearOperator.identity(u.algebra)))
        assert rep.passed

    def test_swap_map_fails(self, gmas):
        u = gmas["M2"]
        swap = operator_of(
            u.algebra,
            matrix([(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)]),
        )
        assert not is_identity_member(u.algebra, K.LIE_TRIPLE_CENTRALIZER, swap)
        rep = verify_thm31_conditions(u, block_decompose(u, swap))
        assert not rep.passed

    def test_six_map_space_dimension_equals_solution_space(self, gmas):
        # The block form is a bijection: same dimension on both sides.
        for u in gmas.values():
            ltc = solve_identity_space(u.algebra, K.LIE_TRIPLE_CENTRALIZER)
            assert six_map_solution_space(u).dim == ltc.dim


@pytest.mark.parametrize("check", [verify_thm31_conditions, corollary32_strengthen])
class TestDecompositionOfAnotherGMA:
    @pytest.mark.parametrize("names", [("T3", "M3"), ("M3", "T3")], ids=["T3-given-M3", "M3-given-T3"])
    def test_another_algebra_is_rejected(self, gmas, check, names):
        u, other = (gmas[name] for name in names)
        with pytest.raises(AlgebraMismatch):
            check(u, block_decompose(other, LinearOperator.identity(other.algebra)))

    def test_other_block_dims_are_rejected(self, check):
        # one algebra, M2(Q) + Q, split as (1, 1, 1, 2) and as (4, 0, 0, 1)
        alg = direct_sum(full_matrix(2), rationals())
        splits = [GMA(alg, (1, 1, 1, 2)), GMA(alg, (4, 0, 0, 1))]
        for u, other in (splits, splits[::-1]):
            with pytest.raises(DimensionMismatch, match="blocks"):
                check(u, block_decompose(other, LinearOperator.identity(alg)))


def _random_matrix(rng, rows, cols):
    # mostly zeros, so some conditions hold and the failure list is selective
    return matrix(
        [[F(rng.choice((0, 0, 0, 1, -1, 2)), rng.choice((1, 2))) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def _six_map_shapes(u):
    return {name: (m.rows, m.cols) for name, m in six_maps_from_flat(u, [F(0)] * _six_map_layout(u)[0]).items()}


def _thm31_digest(u, rng):
    """sha256 over Thm 3.1 failures on seeded operators and the six-map basis."""
    h = hashlib.sha256()
    n = u.algebra.dim
    ops = [
        build_from_blocks(u, **{name: _random_matrix(rng, r, c) for name, (r, c) in _six_map_shapes(u).items()})
        for _ in range(3)
    ]
    ops.append(operator_of(u.algebra, _random_matrix(rng, n, n)))
    for op in ops:
        h.update(repr(verify_thm31_conditions(u, block_decompose(u, op)).failures).encode())
    h.update(repr(six_map_solution_space(u).basis).encode())
    return h.hexdigest()


# Recorded before the Thm 3.1 conditions were restated as constraint rows.
_PINNED_THM31 = {
    "T3": "9a730c85e326a1f0a1d9e3bdf76ad3161160673239745ecda8a82d6e91ee05cd",
    "M3": "34d7927b1e3a0a1c119928b98a409eaff0c8e538bc9706ddfaabf5ae068fbdd8",
    "T4/2": "aa9aa719a82f7199a89337251be94d0a2fc1f2d976794be463914f07c118f39c",
    "R0": "f60046e269c4ef06e90419512733b12df1d3e5a00cbd2e66c5c927695745ba90",
    "R1": "0de24ba629665cf664a7d30f5621eb5e2b37be26c26a7018c28e09f294ccd948",
    "R2": "50cbe68bf8b8fa5c1aea5b5c1d4000fb5db99844c24cb5ddb692de16a5768d2e",
}
_THM31_GMAS = {
    "T3": lambda: upper_triangular_gma(3),
    "M3": lambda: full_matrix_gma(3),
    "T4/2": lambda: upper_triangular_gma(4, 2),
    **{f"R{s}": (lambda s=s: random_gma(random.Random(s), require_n=True)) for s in range(3)},
}


@pytest.mark.parametrize("name", sorted(_THM31_GMAS))
def test_thm31_reports_and_six_map_basis_are_pinned(name):
    assert _thm31_digest(_THM31_GMAS[name](), random.Random(name)) == _PINNED_THM31[name]


@pytest.fixture
def condition_builds(cold_cache, monkeypatch):
    """The GMAs whose Thm 3.1 condition rows are built, on a cleared cache; rows already held add none."""
    calls = []
    body = lietriple.centralizers._condition_rows.__wrapped__

    @functools.wraps(body)
    def counting(u):
        calls.append(u)
        return body(u)

    # the same qualified name, so the counting version fills the real one's cache entries
    monkeypatch.setattr(lietriple.centralizers, "_condition_rows", lietriple.algebra.memoized(counting))
    return calls


def test_the_checks_on_one_gma_build_its_condition_rows_once(condition_builds, tmp_path, capsys):
    # verify-paper checks every solved LTC basis element of each standard GMA against Thm 3.1
    assert all(check["passed"] for check in reproduction_checks())
    gmas = standard_gmas()
    assert sorted(u.content_hash for u in condition_builds) == sorted(u.content_hash for u in gmas.values())
    # decompose and the six-map solve read the rows verify-paper left held
    u = gmas["upper_triangular(3)"]
    ltc = solve_identity_space(u.algebra, K.LIE_TRIPLE_CENTRALIZER)
    write_doc(tmp_path / "op.json", operator_doc(LinearOperator.from_flat(u.algebra, ltc.basis[-1])))
    assert main(["decompose", "upper_triangular(3)", str(tmp_path / "op.json")]) == 0
    assert "block form conditions: pass" in capsys.readouterr().out
    assert six_map_solution_space(u).dim == ltc.dim
    assert [v.content_hash for v in condition_builds].count(u.content_hash) == 1


def test_a_second_split_of_one_algebra_builds_its_own_rows(condition_builds):
    # M2(Q) + Q, split as (1, 1, 1, 2) and as (4, 0, 0, 1)
    alg = direct_sum(full_matrix(2), rationals())
    first, second = GMA(alg, (1, 1, 1, 2)), GMA(alg, (4, 0, 0, 1))
    for u in (first, second, first, second):
        assert verify_thm31_conditions(u, block_decompose(u, LinearOperator.identity(u.algebra))).passed
    assert condition_builds == [first, second]
    assert _condition_rows(first) != _condition_rows(second)


def test_the_six_map_solve_leaves_the_held_rows_unchanged(cold_cache):
    u = full_matrix_gma(3)
    rows = _condition_rows(u)
    fresh = lietriple.centralizers._condition_rows.__wrapped__(u)
    assert rows == fresh and rows is not fresh
    six_map_solution_space(u)
    assert _condition_rows(u) is rows and rows == fresh
    assert all(type(row) is tuple and all(x for _, x in row) for _label, _tag, held in rows for row in held)


@pytest.mark.parametrize("name", ["T3", "M3", "T4/2"])
def test_a_perturbed_six_map_operator_fails_alike_warm_and_cold(cold_cache, name):
    def failures():
        u = _THM31_GMAS[name]()
        space = six_map_solution_space(u)
        maps = six_maps_from_flat(u, rand_combination(space, random.Random(name)))
        maps["tau2"] = matrix([[x + (i == j == 0) for j, x in enumerate(row)] for i, row in enumerate(rows_of(maps["tau2"]))])
        return verify_thm31_conditions(u, block_decompose(u, build_from_blocks(u, **maps))).failures

    cold = failures()
    assert cold and failures() == cold  # warm: the rows are held
    cold_cache()
    assert failures() == cold


class TestBuildFromBlocks:
    def test_identity_components(self, gmas):
        u = gmas["T2"]
        ident = identity_matrix(1)
        zero = Matrix.zeros(1, 1)
        op = build_from_blocks(u, ident, zero, ident, Matrix.zeros(0, 0), zero, ident)
        assert op == LinearOperator.identity(u.algebra)

    def test_t2_scalar_family(self, gmas):
        # Components (p, q, t, r, s) with t = p - r = s - q satisfy the
        # conditions; anything else fails with a witness.
        u = gmas["T2"]
        space = solve_identity_space(u.algebra, K.LIE_TRIPLE_CENTRALIZER)

        def op_of(p, q, t, r, s):
            m = lambda x: matrix([[F(x)]])
            return build_from_blocks(u, m(p), m(q), m(t), Matrix.zeros(0, 0), m(r), m(s))

        good = op_of(5, 2, 3, 2, 5)  # t = 5-2 = 3 = 5-2
        assert space.contains_vector(good.flatten())
        assert is_identity_member(u.algebra, K.LIE_TRIPLE_CENTRALIZER, good)
        bad = op_of(5, 2, 4, 2, 5)  # t != p - r
        chk = is_identity_member(u.algebra, K.LIE_TRIPLE_CENTRALIZER, bad)
        assert not chk and chk.witness is not None
        assert not space.contains_vector(bad.flatten())

    def test_random_valid_tuples_assemble_into_space(self, gmas):
        rng = random.Random(23)
        for u in gmas.values():
            tuples = six_map_solution_space(u)
            ltc = solve_identity_space(u.algebra, K.LIE_TRIPLE_CENTRALIZER)
            for _ in range(5):
                maps = six_maps_from_flat(u, rand_combination(tuples, rng))
                op = build_from_blocks(
                    u, maps["alpha1"], maps["beta1"], maps["tau2"],
                    maps["gamma3"], maps["alpha4"], maps["beta4"],
                )
                assert ltc.contains_vector(op.flatten())

    @pytest.mark.parametrize("name", ["T3", "M3", "R0", "R1", "R2"])
    def test_six_map_basis_maps_onto_ltc_space(self, name):
        # The block form is a bijection: the images of the six-map basis
        # are independent and span exactly the Lie triple centralizers.
        u = _THM31_GMAS[name]()
        tuples = six_map_solution_space(u)
        images = Subspace(
            u.algebra.dim ** 2,
            [build_from_blocks(u, **six_maps_from_flat(u, v)).flatten() for v in tuples.basis],
        )
        ltc = solve_identity_space(u.algebra, K.LIE_TRIPLE_CENTRALIZER)
        assert images.dim == tuples.dim == ltc.dim
        assert images == ltc

    def test_corner_of_wrong_shape_is_rejected(self, gmas):
        u = gmas["T3"]
        assert u.dims == (1, 2, 0, 3)
        maps = six_maps_from_flat(u, [F(1)] * _six_map_layout(u)[0])
        maps["alpha1"] = identity_matrix(2)  # alpha1 maps A (dim 1) to A
        with pytest.raises(DimensionMismatch, match="alpha1"):
            build_from_blocks(u, **maps)

    def test_six_map_layout_is_field_order_then_column_major(self, gmas):
        u = gmas["T3"]
        total, layout = _six_map_layout(u)
        flat = [F(k) for k in range(total)]
        maps = six_maps_from_flat(u, flat)
        assert list(maps) == list(layout) == ["alpha1", "beta1", "tau2", "gamma3", "alpha4", "beta4"]
        assert [x for m in maps.values() for col in range(m.cols) for x in m.col(col)] == flat
        for name, (start, rows) in layout.items():
            grid = rows_of(maps[name])
            assert rows == len(grid)
            assert all(x == start + k * rows + r for r, row in enumerate(grid) for k, x in enumerate(row))
        d = block_decompose(u, build_from_blocks(u, **maps))
        assert all(getattr(d, name) == m for name, m in maps.items())

    @pytest.mark.parametrize("name", sorted(_THM31_GMAS))
    def test_the_six_maps_coords_in_field_order_are_the_flat(self, name):
        u = _THM31_GMAS[name]()
        flat = rand_combination(six_map_solution_space(u), random.Random(name))
        maps = six_maps_from_flat(u, flat)
        assert tuple(x for m in maps.values() for x in m.coords) == tuple(flat)

    @pytest.mark.parametrize("extra", [1, -1], ids=["one-too-many", "one-too-few"])
    def test_flat_vector_of_wrong_length_is_rejected(self, gmas, extra):
        u = gmas["T3"]
        total = _six_map_layout(u)[0]
        with pytest.raises(DimensionMismatch, match=f"expected {total}"):
            six_maps_from_flat(u, [F(1)] * (total + extra))


class TestCorollary32:
    def test_m2_ranges_trivially_central(self, gmas):
        u = gmas["M2"]
        space = solve_identity_space(u.algebra, K.LIE_TRIPLE_CENTRALIZER)
        for v in space.basis:
            rep = corollary32_strengthen(u, block_decompose(u, LinearOperator.from_flat(u.algebra, v)))
            assert rep.passed

    def test_m3_with_matrix_corner(self):
        # Split M3 after two rows: A = M2(Q), so range(beta1) must land in
        # the scalars of that corner.
        u = full_matrix_gma(3, split=2)
        assert u.dims == (4, 2, 2, 1)
        space = solve_identity_space(u.algebra, K.LIE_TRIPLE_CENTRALIZER)
        for v in space.basis:
            d = block_decompose(u, LinearOperator.from_flat(u.algebra, v))
            rep = corollary32_strengthen(u, d)
            assert rep.passed

    def test_zero_operator_passes(self, gmas):
        u = gmas["T2"]
        rep = corollary32_strengthen(u, block_decompose(u, zero_operator(u.algebra)))
        assert rep.passed


_NET_ALGEBRAS = {
    "T3": lambda: upper_triangular(3),
    "M2": lambda: full_matrix(2),
    # dims (1,1,1,2), a structure constant 2 and nonzero pairings
    "R1": lambda: random_gma(random.Random(1), require_n=True).algebra,
    # M_2 in a rational basis: denominators 2, 3, 6 and 9
    "M2q": lambda: rebased(full_matrix(2), RATIONAL_BASIS),
}
_NET_KINDS = ("lc", "ltc", "jc", "der", "lieder", "jder", "ltd")


@pytest.mark.parametrize("kind", _NET_KINDS)
@pytest.mark.parametrize("name", sorted(_NET_ALGEBRAS))
class TestOracleNet:
    """Solver and membership against the brute-force oracle, every non-block kind."""

    def test_solved_space_equals_dense_oracle(self, name, kind):
        alg = _NET_ALGEBRAS[name]()
        assert solve_identity_space(alg, K(kind)).basis == dense_identity_space(alg, kind)

    def test_membership_agrees_with_oracle(self, name, kind):
        alg = _NET_ALGEBRAS[name]()
        space = solve_identity_space(alg, K(kind))
        assert not space.is_full()
        rng = random.Random(f"{name}-{kind}")
        for _ in range(3):
            member = rand_combination(space, rng)
            while True:
                off = tuple(F(rng.randint(-2, 2)) for _ in range(space.ambient))
                if not space.contains_vector(off):
                    break
            outside = tuple(a + b for a, b in zip(member, off))
            for flat, expected in ((member, True), (outside, False)):
                op = LinearOperator.from_flat(alg, flat)
                chk = is_identity_member(alg, K(kind), op)
                assert bool(chk) is expected
                assert residual_is_zero(alg, matrix_of(op), kind) is expected
            lhs, rhs = identity_sides(alg, kind, chk.witness, matrix_of(op))
            assert lhs != rhs and (lhs, rhs) == (chk.lhs, chk.rhs)


@pytest.mark.parametrize("kind", _NET_KINDS)
@pytest.mark.parametrize("name", sorted(_NET_ALGEBRAS))
def test_membership_with_rational_perturbations(name, kind):
    """Perturbations with denominators 2, 3, 5 and 7 reach the evaluator's denominator clearing."""
    alg = _NET_ALGEBRAS[name]()
    space = solve_identity_space(alg, K(kind))
    rng = random.Random(f"{name}-{kind}-rational")
    for _ in range(3):
        member = rand_combination(space, rng)
        off = tuple(F(rng.randint(-2, 2), rng.choice((2, 3, 5, 7))) for _ in range(space.ambient))
        op = LinearOperator.from_flat(alg, tuple(a + b for a, b in zip(member, off)))
        chk = is_identity_member(alg, K(kind), op)
        expected = space.contains_vector(op.flatten())
        assert bool(chk) is expected and residual_is_zero(alg, matrix_of(op), kind) is expected
        if not chk:
            assert identity_sides(alg, kind, chk.witness, matrix_of(op)) == (chk.lhs, chk.rhs)


# T3 in seeded integer bases with two entries off the diagonal per row:
# dense rows with growing coefficients, most of them dependent.
_DENSE_T3_SEEDS = (0, 1)
# sha256 over the solved bases, recorded before the integer echelon was
# kept reduced on insert.
_PINNED_DENSE_T3 = "fe5edfabbdd2e08606cb25bf60f50fc0e55bda1c951f9c7eee8058687302a9ec"


def test_rebased_t3_solves_equal_conjugated_catalog_spaces():
    """Each solved space in the new basis is the catalog space conjugated by the basis change."""
    t3 = upper_triangular(3)
    n = t3.dim
    h = hashlib.sha256()
    for seed in _DENSE_T3_SEEDS:
        p = unit_diagonal_basis(random.Random(seed), n)
        alg = rebased(t3, p)
        pm, pinv = matrix(p), matrix(inverse(p))
        for kind in _NET_KINDS:
            space = solve_identity_space(alg, K(kind))
            old = solve_identity_space(t3, K(kind))
            conjugated = [
                operator_of(alg, pinv @ matrix_of(LinearOperator.from_flat(t3, v)) @ pm).flatten() for v in old.basis
            ]
            assert space == Subspace(n * n, conjugated)
            h.update(repr(space.basis).encode())
    assert h.hexdigest() == _PINNED_DENSE_T3


def test_a_stale_pack_is_freed_before_the_next_is_built(monkeypatch):
    """When ``_solved_space`` repacks, its previous pack is no longer bound: two packs are never held at once."""
    real = lietriple.centralizers._packed_kernel
    seen = []

    def packed_kernel(*args):
        seen.append(sys._getframe(1).f_locals["packed"])
        return real(*args)

    monkeypatch.setattr(lietriple.centralizers, "_packed_kernel", packed_kernel)
    t6 = upper_triangular(6)
    space = lietriple.centralizers._solved_space.__wrapped__(t6, K.LIE_TRIPLE_CENTRALIZER, None)
    assert len(seen) >= 3  # the first pack and at least two repacks
    assert seen == [None] * len(seen)
    monkeypatch.undo()
    assert space == solve_identity_space(t6, K.LIE_TRIPLE_CENTRALIZER)


def test_member_checks_build_no_fraction(monkeypatch):
    """A passing check stays in ints: centralizers makes Fractions only for a witness."""
    import lietriple.centralizers
    from lietriple.derivations import check_gltd_correspondence

    alg = full_matrix(3)
    ltc = solve_identity_space(alg, K.LIE_TRIPLE_CENTRALIZER)
    ltd = solve_identity_space(alg, K.LIE_TRIPLE_DERIVATION)
    phi = LinearOperator.from_flat(alg, [F(1, 3) * a + F(2, 3) * b for a, b in zip(*ltc.basis)])
    xi = LinearOperator.from_flat(alg, [F(2, 3) * a - b for a, b in zip(*ltd.basis[:2])])

    def no_fraction(*args):
        raise AssertionError("Fraction built in centralizers")

    monkeypatch.setattr(lietriple.centralizers, "Fraction", no_fraction)
    assert is_identity_member(alg, K.LIE_TRIPLE_CENTRALIZER, phi)
    assert check_gltd_correspondence(alg, phi + xi, xi)


def test_equal_algebras_built_apart_share_one_solve(cold_cache, monkeypatch):
    import lietriple.centralizers

    # a solve builds one echelon and feeds it the constraint rows
    solves = []
    echelon = lietriple.centralizers._IntEchelon

    def counting():
        solves.append(echelon())
        return solves[-1]

    monkeypatch.setattr(lietriple.centralizers, "_IntEchelon", counting)
    first, second = upper_triangular(3), upper_triangular(3)
    assert first is not second
    space = solve_identity_space(first, K.LIE_TRIPLE_CENTRALIZER)
    assert space == solve_identity_space(second, K.LIE_TRIPLE_CENTRALIZER)
    assert len(solves) == 1 and solves[0].rank == 36 - space.dim


# ---------------------------------------------------------------------------
#  Tuples evaluated on a packed kernel before their rows are built
# ---------------------------------------------------------------------------

_ALL_KINDS = _NET_KINDS + ("sjder",)
_CLOSE_ALGEBRAS = {
    "T2": lambda: upper_triangular_gma(2),
    "T3": lambda: upper_triangular_gma(3),
    "T4": lambda: upper_triangular_gma(4),
    "M2": lambda: full_matrix_gma(2),
    "M3": lambda: full_matrix_gma(3),
    "example_1_2": lambda: example_1_2().gma,
    "R1": lambda: random_gma(random.Random(1), require_n=True),
    "M2q": _NET_ALGEBRAS["M2q"],
    # T3 in a seeded integer basis, as the solve-dense benchmark draws it: dense
    # rows with growing coefficients, where most tuples are decided on a pack
    "T3r": lambda: rebased(upper_triangular(3), unit_diagonal_basis(random.Random(0), 6)),
}
_BLOCKLESS = ("M2q", "T3r")


def _full_row_kernel(alg_or_gma, kind):
    """kernel_of_rows over every row of every constraint tuple, mirrored ones too, with no tuple decided on a pack."""
    u = alg_or_gma if isinstance(alg_or_gma, GMA) else None
    alg = u.algebra if u else alg_or_gma
    n = alg.dim
    rows = []
    for _tag, w, terms in _constraint_tuples(alg, kind, _tags(alg.dim, *_FORMS[kind], True)):
        # row l: phi(w) - sum of the terms, read at l; zero entries may stay
        tuple_rows = [{c * n + l: x for c, x in w} for l in range(n)]
        for _p, i, group in terms:
            for lp, v in group:
                for l, c in v:
                    tuple_rows[l][i * n + lp] = tuple_rows[l].get(i * n + lp, 0) - c
        rows += tuple_rows
    if kind is K.SINGULAR_JORDAN_DERIVATION:
        rows += _sparsity_rows(n, u.dims)
    return kernel_of_rows(n * n, rows)


# M2q and T3r carry no block structure, so they have no singular kind
@pytest.mark.parametrize(
    "name, kind",
    [(a, k) for a in sorted(_CLOSE_ALGEBRAS) for k in _ALL_KINDS if not (a in _BLOCKLESS and k == "sjder")],
)
def test_solve_equals_the_full_row_kernel(name, kind):
    target = _CLOSE_ALGEBRAS[name]()
    if kind != "sjder" and isinstance(target, GMA):
        target = target.algebra
    assert solve_identity_space(target, K(kind)) == _full_row_kernel(target, K(kind))


_MIRRORED_KINDS = ("ltd", "lieder", "jder", "sjder")


def _first_failing_tuple(alg, kind, matrix, slot_matrix=None):
    """(tag, lhs, rhs) by the oracle at the first of every basis tuple, in lexicographic order, whose sides differ."""
    oracle_kind = "jder" if kind == "sjder" else kind  # the sparsity pattern is checked apart
    for tag in itertools.product(range(alg.dim), repeat=3 if kind == "ltd" else 2):
        lhs, rhs = identity_sides(alg, oracle_kind, tag, matrix, slot_matrix)
        if lhs != rhs:
            return tag, lhs, rhs
    return None


# T3 has N = 0, so its only operator with the singular sparsity pattern is 0
@pytest.mark.parametrize(
    "name, kind", [(a, k) for a in ("M2", "R1", "T3") for k in _MIRRORED_KINDS if (a, k) != ("T3", "sjder")]
)
def test_the_witness_under_the_skip_is_the_first_failing_tuple(name, kind):
    """Skipping mirrored tuples keeps the witness: the first failure over every tuple, with tag[0] <= tag[1]."""
    u = _CLOSE_ALGEBRAS[name]()
    alg = u.algebra
    target = u if kind == "sjder" else alg
    space = solve_identity_space(target, K(kind))
    n = alg.dim
    blocked = {k for row in _sparsity_rows(n, u.dims) for k in row} if kind == "sjder" else set()
    rng = random.Random(f"mirror-{name}-{kind}")
    for _ in range(3):
        while True:
            flat = [F(0) if k in blocked else F(rng.randint(-2, 2), rng.choice((1, 3))) for k in range(n * n)]
            if not space.contains_vector(flat):
                break
        op = LinearOperator.from_flat(alg, flat)
        chk = is_identity_member(target, K(kind), op)
        assert not chk
        assert chk.witness[0] <= chk.witness[1]
        assert (chk.witness, chk.lhs, chk.rhs) == _first_failing_tuple(alg, kind, matrix_of(op))


def test_the_gltd_direct_route_reads_the_mirrored_tuples():
    """With Lambda in the first slot and xi in the others, (j, i, k) is no copy of (i, j, k): every tuple is read."""
    from lietriple.centralizers import _identity_residuals
    from lietriple.derivations import check_gltd_correspondence

    alg = full_matrix(2)
    ltd = solve_identity_space(alg, K.LIE_TRIPLE_DERIVATION)
    xi = LinearOperator.from_flat(alg, [2 * a - b for a, b in zip(*ltd.basis[:2])])
    rng = random.Random("gltd-mirror")
    lam = xi + LinearOperator.from_flat(alg, [F(rng.randint(-2, 2)) for _ in range(alg.dim**2)])
    slots = (lam.flatten(), xi.flatten(), xi.flatten())
    failing = [tag for tag, _lhs, _rhs in _identity_residuals(alg, K.LIE_TRIPLE_DERIVATION, lam.flatten(), slots)]
    expected = [
        tag for tag in itertools.product(range(alg.dim), repeat=3)
        if len(set(identity_sides(alg, "ltd", tag, matrix_of(lam), matrix_of(xi)))) == 2
    ]
    assert failing == expected
    assert any(tag[0] > tag[1] for tag in failing) and any(tag[0] == tag[1] for tag in failing)
    chk = check_gltd_correspondence(alg, lam, xi)
    assert (chk.witness, chk.lhs, chk.rhs) == _first_failing_tuple(alg, "ltd", matrix_of(lam), matrix_of(xi))


def test_matrix_algebra_solves_close_by_evaluation(cold_cache, monkeypatch):
    """On M3 and M4 these kinds stop building rows and evaluate the tuples left, on the plain walk."""
    import lietriple.centralizers

    # ltc and ltd on M_m would take the symmetric path, which walks no tuple
    monkeypatch.setattr(lietriple.centralizers, "symmetric_space", lambda alg, slots: None)
    evaluated = []
    sides = lietriple.centralizers._tuple_sides

    def counting(*args):
        evaluated.append(None)
        return sides(*args)

    monkeypatch.setattr(lietriple.centralizers, "_tuple_sides", counting)
    m3, m4 = full_matrix(3), full_matrix(4)
    for alg, kind in ((m3, "ltc"), (m3, "ltd"), (m4, "lc"), (m4, "ltc"), (m4, "jc"), (m4, "ltd")):
        evaluated.clear()
        solve_identity_space(alg, K(kind))
        assert evaluated, (alg.dim, kind)


@pytest.mark.parametrize("kind, dim", [("ltc", 5), ("ltd", 13)])
def test_a_stale_pack_filters_to_the_catalog_space(cold_cache, monkeypatch, kind, dim):
    """T4 packs kernels larger than the solution space, and some tuple fails on a pack made before the last rank increase.

    Such a tuple is eliminated like any other, so the stale pack is only a
    filter: the solve still ends on the kernel of every row.
    """
    import lietriple.centralizers

    alg = upper_triangular(4)
    expected = _full_row_kernel(alg, K(kind))
    echelons, packs, stale_failures = [], {}, []
    echelon, packed_kernel, sides = (
        lietriple.centralizers._IntEchelon, lietriple.centralizers._packed_kernel, lietriple.centralizers._tuple_sides,
    )

    def recording_echelon():
        echelons.append(echelon())
        return echelons[-1]

    def recording_pack(alg, kind, vectors):
        packed = packed_kernel(alg, kind, vectors)
        packs[id(packed)] = (len(vectors), echelons[-1].rank)
        return packed

    def recording_sides(n, w, terms, phi, mats):
        lhs, rhs = sides(n, w, terms, phi, mats)
        dim_packed, rank_packed = packs[id(phi)]
        if lhs != rhs and echelons[-1].rank > rank_packed:
            stale_failures.append(dim_packed)
        return lhs, rhs

    monkeypatch.setattr(lietriple.centralizers, "_IntEchelon", recording_echelon)
    monkeypatch.setattr(lietriple.centralizers, "_packed_kernel", recording_pack)
    monkeypatch.setattr(lietriple.centralizers, "_tuple_sides", recording_sides)
    space = solve_identity_space(alg, K(kind))
    assert space == expected and space.dim == dim
    assert len(echelons) == 1 and max(d for d, _ in packs.values()) > dim
    assert stale_failures and max(stale_failures) > dim


def _columns(n, vector):
    """A sparse int vector over column-major operator coordinates as n int columns {row: int}."""
    cols = [{} for _ in range(n)]
    for k, x in vector.items():
        if x:
            cols[k // n][k % n] = x
    return cols


def _per_vector_residuals(alg, kind, w, terms, vectors):
    """lhs - rhs of one tuple on each vector by itself, as int lists."""
    n, slots = alg.dim, len(_FORMS[kind][1])
    out = []
    for v in vectors:
        cols = _columns(n, v)
        lhs, rhs = _tuple_sides(n, w, terms, cols, (cols,) * slots)
        out.append([a - b for a, b in zip(lhs, rhs)])
    return out


_rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=12)


@st.composite
def packing_cases(draw):
    """(alg, kind, int vectors): 1-4 vectors, each a rational combination of the
    solution space's basis, some moved off it at a few coordinates, scaled to
    ints together.  A vector holding the largest |entry| may come back
    negated, so entries at both +m and -m occur, and one vector may be split
    into a multiple and a negative copy, so limbs of both signs meet."""
    name = draw(st.sampled_from(sorted(_NET_ALGEBRAS)))
    kind = K(draw(st.sampled_from(_NET_KINDS)))
    alg = _NET_ALGEBRAS[name]()
    basis = solve_identity_space(alg, kind).basis
    ambient = alg.dim**2
    vectors = []
    for _ in range(draw(st.integers(1, 4))):
        v = [F(0)] * ambient
        for bv in basis:
            c = draw(_rationals)
            v = [a + c * b for a, b in zip(v, bv)]
        for _ in range(draw(st.integers(0, 2))):
            v[draw(st.integers(0, ambient - 1))] += draw(_rationals)
        vectors.append(v)
    ints = int_flats(*vectors)
    if draw(st.booleans()):
        top = max(ints, key=lambda v: max(map(abs, v.values())))
        ints.append({k: -x for k, x in top.items()})
    if draw(st.booleans()):
        # u * 2^j next to -u: their residuals cancel in the packing iff the limbs are j bits apart
        i, j = draw(st.integers(0, len(ints) - 1)), draw(st.integers(1, 40))
        ints[i : i + 1] = [{k: x << j for k, x in ints[i].items()}, {k: -x for k, x in ints[i].items()}]
    return alg, kind, ints


@given(packing_cases())
def test_the_packed_verdict_equals_the_per_vector_verdict(case):
    """A tuple vanishes on the packed kernel iff it vanishes on every vector packed into it."""
    alg, kind, vectors = case
    packed = _packed_kernel(alg, kind, vectors)
    slots = len(_FORMS[kind][1])
    for _tag, w, terms in _constraint_tuples(alg, kind):
        lhs, rhs = _tuple_sides(alg.dim, w, terms, packed, (packed,) * slots)
        per_vector = _per_vector_residuals(alg, kind, w, terms, vectors)
        assert (lhs == rhs) == (not any(map(any, per_vector)))


def test_no_two_limbs_cancel_in_the_packing():
    """u * 2^j packed before -u vanishes on the packed operator iff the limbs are j bits apart; no j up to 64 does."""
    alg, kind = upper_triangular(3), K.LIE_TRIPLE_CENTRALIZER
    u = {1: 1, 7: -2}  # phi(e_0) = e_1, phi(e_1) = -2 e_1: no Lie triple centralizer of T3
    tuples = list(_constraint_tuples(alg, kind))
    assert any(any(r) for _, w, terms in tuples for r in _per_vector_residuals(alg, kind, w, terms, [u]))
    for j in range(65):
        packed = _packed_kernel(alg, kind, [{k: x << j for k, x in u.items()}, {k: -x for k, x in u.items()}])
        sides = (_tuple_sides(alg.dim, w, terms, packed, (packed,)) for _, w, terms in tuples)
        assert any(lhs != rhs for lhs, rhs in sides), j


def test_m4_ltd_residuals_stay_below_the_packing_bound(cold_cache, monkeypatch):
    """At the first close of the M4 LTD solve, every tuple's residual on each packed vector is below 2^(B-1)."""
    import lietriple.centralizers

    # the plain walk: the symmetric path of M_m packs no kernel
    monkeypatch.setattr(lietriple.centralizers, "symmetric_space", lambda alg, slots: None)
    closes = []

    def recording(alg, kind, vectors):
        closes.append((vectors, _packed_kernel(alg, kind, vectors)))
        return closes[-1][1]

    monkeypatch.setattr(lietriple.centralizers, "_packed_kernel", recording)
    alg, kind = full_matrix(4), K.LIE_TRIPLE_DERIVATION
    space = solve_identity_space(alg, kind)
    # the first close is on a kernel larger than the solution space, so some tuples fail on it
    (vectors, packed), *_ = closes
    assert len(vectors) > space.dim
    total = sum(abs(x) for w in basis_tensor(alg, "triple")[1].values() for _, x in w)
    shift = (max(abs(x) for v in vectors for x in v.values()) * (1 + 3) * total).bit_length() + 1
    # the packed operator is sum_b k_b * 2^(shift*b): this shift is the one the solve used
    expected = [{} for _ in range(alg.dim)]
    for b, v in enumerate(vectors):
        for k, x in v.items():
            c, r = divmod(k, alg.dim)
            expected[c][r] = expected[c].get(r, 0) + x * 2 ** (shift * b)
    assert packed == expected
    failing = 0
    for _tag, w, terms in _constraint_tuples(alg, kind):
        residuals = _per_vector_residuals(alg, kind, w, terms, vectors)
        assert all(abs(x) < 2 ** (shift - 1) for r in residuals for x in r)
        failing += any(map(any, residuals))
    assert failing


# sha256 over the solved basis of full_matrix(5), recorded with every
# constraint row built: these solves decide most tuples on a packed kernel.
_PINNED_M5 = {
    "lc": "fd6292d8036a85dfd3106cdf05b758edaf66af81b01ca9bb8bfe91a9af30317b",
    "ltc": "fd6292d8036a85dfd3106cdf05b758edaf66af81b01ca9bb8bfe91a9af30317b",
    "jc": "512e1dbdafd89adafd961651185cf600bd625da845b5aa4f391dc6ef38e5c326",
    "ltd": "ba19f9d5a0b0d8b015b05756ecf7c1f344d40bc9b8ad353709acf10ea7f324a5",
    "der": "b6958499baedbbf42d8705f11802e2a3e92a710911cc8f397c3e1d3234c003ae",
    "lieder": "ba19f9d5a0b0d8b015b05756ecf7c1f344d40bc9b8ad353709acf10ea7f324a5",
    "jder": "b6958499baedbbf42d8705f11802e2a3e92a710911cc8f397c3e1d3234c003ae",
}


@pytest.mark.parametrize("kind", sorted(_PINNED_M5))
def test_m5_solves_are_pinned(kind):
    space = solve_identity_space(full_matrix(5), K(kind))
    assert hashlib.sha256(repr(space.basis).encode()).hexdigest() == _PINNED_M5[kind]


# T_2..T_6 and M_2..M_5, each kind checked against a law in n alone
_LAW_CASES = [(family, n) for family, sizes in (("T", range(2, 7)), ("M", range(2, 6))) for n in sizes]


@pytest.mark.parametrize("kind", [k.value for k in IdentityKind])
@pytest.mark.parametrize("family, n", _LAW_CASES, ids=[f"{f}{n}" for f, n in _LAW_CASES])
def test_solution_dimensions_follow_the_laws_in_n(family, n, kind):
    u = (upper_triangular_gma if family == "T" else full_matrix_gma)(n)
    kind = IdentityKind(kind)
    target = u if kind is K.SINGULAR_JORDAN_DERIVATION else u.algebra
    assert solve_identity_space(target, kind).dim == dimension_law(family, n, kind.value)
