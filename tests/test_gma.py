import functools
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from lietriple.algebra import AlgebraElement, LinearOperator, center, find_unit
from lietriple.catalog import (
    direct_sum,
    dual_numbers,
    example_1_2,
    full_matrix,
    full_matrix_gma,
    random_gma,
    rationals,
    scalar_bimodule,
    standard_gmas,
    strict_upper_3x3,
    triangular_context,
    upper_triangular,
    upper_triangular_gma,
)
from lietriple.centralizers import block_decompose
from lietriple.errors import (
    AnnihilatorConditionsFail,
    DimensionMismatch,
    InvalidBlockStructure,
    LieTripleError,
    NonUniqueEta,
    NotAssociative,
    NotIdempotent,
    NotUnital,
    TrivialIdempotent,
)
from lietriple.gma import (
    GMA,
    Bimodule,
    EtaMap,
    MoritaContext,
    _partners,
    assemble,
    block_center,
    block_hypotheses_hold,
    center_block_description,
    check_annihilating_conditions,
    context_of,
    eta_map,
    m2_of,
    peirce_from_idempotent,
    require_block_hypotheses,
)
from lietriple.linalg import Subspace, unit_vec
from oracles import BLOCK_RULES, block_split_outcome, context_grids, dense_contract, left_mult, right_mult, rows_of

F = Fraction


def standard_four():
    return {
        "T2": upper_triangular_gma(2),
        "T3": upper_triangular_gma(3),
        "M2": full_matrix_gma(2),
        "M3": full_matrix_gma(3),
    }


class TestAssemble:
    def test_triangular_context_is_t2(self):
        q = rationals()
        u = assemble(triangular_context(q, scalar_bimodule(), q))
        assert u.dims == (1, 1, 0, 1)
        assert u.algebra.table == upper_triangular(2).table

    def test_unit_pairings_give_m2(self):
        q = rationals()
        reg = Bimodule.regular(q)
        unit = {(0, 0, 0): 1}
        u = assemble(MoritaContext(q, q, reg, reg, unit, unit))
        assert u.algebra.table == full_matrix(2).table

    def test_sign_perturbed_pairing_fails(self):
        q = rationals()
        reg = Bimodule.regular(q)
        with pytest.raises(NotAssociative) as exc:
            assemble(MoritaContext(q, q, reg, reg, {(0, 0, 0): -1}, {(0, 0, 0): 1}))
        i, j, k = exc.value.triple
        assert 0 <= i and 0 <= j and 0 <= k  # concrete failing triple reported

    def test_round_trip_on_catalog(self):
        for u in standard_four().values():
            assert assemble(context_of(u.algebra, u.dims)).algebra.table == u.algebra.table

    def test_block_rule_violation_detected(self):
        # Pretending M2's off-diagonal units are both in the M corner breaks
        # the rule M.M = 0, since e12 e21 = e11.
        with pytest.raises(InvalidBlockStructure):
            GMA(full_matrix(2), (1, 2, 0, 1))


# A negative corner, five corners, a float and a bool, on M2(Q) + Q; the
# bool would build the GMA (1, 1, 1, 2) under a second content hash.
MALFORMED_DIMS = [(1, -1, 1, 4), (1, 1, 1, 2, 0), (1.0, 1, 1, 2), (True, 1, 1, 2)]


@pytest.mark.parametrize("build", [GMA, context_of])
@pytest.mark.parametrize("dims", MALFORMED_DIMS, ids=["negative", "five", "float", "bool"])
def test_malformed_dims_are_rejected_before_slicing(build, dims):
    alg = direct_sum(full_matrix(2), rationals())
    with pytest.raises(DimensionMismatch, match="^block dims must be four integers >= 0$"):
        build(alg, dims)
    assert GMA(alg, [1, 1, 1, 2]).content_hash == f"{alg.content_hash}/1,1,1,2"


def _split_outcome(alg, dims):
    try:
        GMA(alg, dims)
    except LieTripleError as exc:
        return type(exc)
    return None


def test_block_check_on_nonzeros_matches_the_dense_table_oracle():
    # every split of T3, M3 and two random draws into four corner sizes:
    # the check on nonzeros and the dense table comparison agree
    algebras = [upper_triangular_gma(3).algebra, full_matrix_gma(3).algebra]
    algebras += [random_gma(random.Random(seed)).algebra for seed in (3, 8)]
    seen = set()
    for alg in algebras:
        n = alg.dim
        for a, m, nn in itertools.product(range(n + 1), repeat=3):
            if a + m + nn <= n:
                dims = (a, m, nn, n - a - m - nn)
                expected = block_split_outcome(alg, dims)
                assert _split_outcome(alg, dims) is expected, dims
                seen.add(expected)
    assert {None, InvalidBlockStructure, NotAssociative} <= seen


class TestM2Of:
    def test_m2_of_rationals(self):
        assert m2_of(rationals()).algebra.table == full_matrix(2).table

    def test_m2_of_example_base_is_12_dim_and_non_unital(self):
        u = m2_of(strict_upper_3x3())
        assert u.algebra.dim == 12
        assert find_unit(u.algebra) is None


class TestPeirce:
    def test_m2_split(self):
        m2 = full_matrix(2)
        pd = peirce_from_idempotent(m2, m2.basis_element(0))
        assert pd.gma.dims == (1, 1, 1, 1)

    def test_t2_split_has_zero_n(self):
        t2 = upper_triangular(2)
        pd = peirce_from_idempotent(t2, t2.basis_element(0))
        assert pd.gma.dims == (1, 1, 0, 1)

    def test_direct_sum_split(self):
        ds = direct_sum(full_matrix(2), rationals())
        pd = peirce_from_idempotent(ds, AlgebraElement(ds, (1, 0, 0, 0, 0)))
        assert pd.gma.dims == (1, 1, 1, 2)

    def test_transport_is_an_isomorphism(self):
        ds = direct_sum(full_matrix(2), rationals())
        pd = peirce_from_idempotent(ds, AlgebraElement(ds, (1, 0, 0, 0, 0)))
        rng = random.Random(3)
        for _ in range(10):
            x = [rng.randint(-3, 3) for _ in range(5)]
            y = [rng.randint(-3, 3) for _ in range(5)]
            prod_old = ds.mul_coords(x, y)
            prod_new = pd.gma.algebra.mul_coords(
                pd.old_to_new.matvec(x), pd.old_to_new.matvec(y)
            )
            assert pd.new_to_old.matvec(prod_new) == tuple(prod_old)

    def test_standard_idempotent_reproduces_corner_dims(self):
        for u in standard_four().values():
            e = u.element_from_corners(a=find_unit(u.context.A).coords)
            pd = peirce_from_idempotent(u.algebra, e)
            assert pd.gma.dims == u.dims

    def test_error_paths(self):
        m2 = full_matrix(2)
        with pytest.raises(NotIdempotent):
            peirce_from_idempotent(m2, m2.basis_element(1))
        with pytest.raises(TrivialIdempotent):
            peirce_from_idempotent(m2, find_unit(m2))
        with pytest.raises(TrivialIdempotent):
            peirce_from_idempotent(m2, m2.zero())
        a = strict_upper_3x3()
        with pytest.raises(NotUnital):
            peirce_from_idempotent(a, a.zero())


class TestAnnihilatingConditions:
    def test_full_and_triangular_hold(self):
        for u in standard_four().values():
            assert check_annihilating_conditions(u).holds

    def test_zero_modules_fail_with_unit_witness(self):
        q = rationals()
        ctx = MoritaContext(
            q, q, Bimodule.zero(1, 1), Bimodule.zero(1, 1), {}, {}
        )
        rep = check_annihilating_conditions(assemble(ctx))
        assert not rep.holds_a and not rep.holds_b
        assert rep.a_annihilator.basis == ((F(1),),)

    def test_dual_numbers_acting_as_zero_fail(self):
        dn = dual_numbers()
        # 1 acts as identity on M = Q, x acts as zero.
        mod = Bimodule(1, 2, 1, {(0, 0, 0): 1, (1, 0, 0): 0}, {(0, 0, 0): 1})
        u = assemble(triangular_context(dn, mod, rationals()))
        rep = check_annihilating_conditions(u)
        assert not rep.holds_a
        assert rep.a_annihilator.basis == ((F(0), F(1)),)  # witness a = x
        with pytest.raises(AnnihilatorConditionsFail):
            center_block_description(u)


class TestBlockHypotheses:
    def test_truth_table(self):
        assert all(block_hypotheses_hold(u) for u in standard_gmas().values())
        assert not block_hypotheses_hold(m2_of(strict_upper_3x3()))  # not unital
        # the dual numbers acting on M = Q through 1 alone: x annihilates M
        mod = Bimodule(1, 2, 1, {(0, 0, 0): 1, (1, 0, 0): 0}, {(0, 0, 0): 1})
        assert not block_hypotheses_hold(assemble(triangular_context(dual_numbers(), mod, rationals())))

    @pytest.mark.parametrize("require_n", [True, None])
    def test_agrees_with_the_raising_guard_on_random_contexts(self, require_n):
        verdicts = set()
        for seed in range(40):
            u = random_gma(random.Random(seed), require_n=require_n)
            try:
                require_block_hypotheses(u, "the test")
                raised = False
            except (NotUnital, AnnihilatorConditionsFail):
                raised = True
            assert block_hypotheses_hold(u) is not raised
            verdicts.add(raised)
        assert verdicts == {True, False}


class TestCenterDescription:
    def test_m2(self):
        u = full_matrix_gma(2)
        blocks = center_block_description(u)
        assert blocks.z.dim == 1
        assert blocks.pi_a == Subspace.full(1)
        assert blocks.pi_b == Subspace.full(1)

    def test_t2_center_forces_equal_diagonal(self):
        # Independent block-constraint route: a*m = m*b over m in Q means
        # a = b, so the center is the diagonal line.
        u = upper_triangular_gma(2)
        assert block_center(u) == center(u.algebra)
        assert center(u.algebra).dim == 1

    def test_raw_center_equals_block_center_everywhere(self):
        for u in standard_four().values():
            assert block_center(u) == center(u.algebra)

    def test_requires_unit(self):
        u = m2_of(strict_upper_3x3())
        with pytest.raises(NotUnital):
            center_block_description(u)


class TestEta:
    def test_identity_on_m2(self):
        eta = eta_map(full_matrix_gma(2))
        assert eta.images == ((F(1),),)
        assert eta.apply((F(5),)) == (F(5),)

    def test_t2_eta_is_identity(self):
        eta = eta_map(upper_triangular_gma(2))
        assert eta.apply((F(1),)) == (F(1),)
        assert eta.apply_inverse((F(1),)) == (F(1),)

    def test_unit_maps_to_unit(self):
        for u in standard_four().values():
            eta = eta_map(u)
            one_a = find_unit(u.context.A).coords
            one_b = find_unit(u.context.B).coords
            assert eta.apply(one_a) == tuple(one_b)

    def test_intertwining_on_random_contexts(self):
        rng = random.Random(11)
        for k in range(6):
            u = random_gma(rng, require_n=(k % 2 == 0))
            if not check_annihilating_conditions(u).holds:
                continue
            eta = eta_map(u)  # constructor re-verifies everything
            assert len(eta.images) == eta.domain.dim

    def test_empty_map_is_vacuously_fine(self):
        eta = EtaMap(Subspace.zero(2), Subspace.zero(3), (), ())
        assert eta.images == ()
        assert eta.apply((0, 0)) == (0, 0, 0)
        assert eta.apply_inverse((0, 0, 0)) == (0, 0)

    def test_partners_are_read_off_the_pair_echelon(self):
        # pairs (a, b) spanning {(x, y, 2x)}: the canonical basis (1, 0), (0, 1) of Q^2 gets partners 2 and 0
        assert _partners(3, 2, [(1, 0, 2), (1, 1, 2)]) == [(2,), (0,)]
        # a pair (0, y) in the span is a pivot past the first corner
        with pytest.raises(NonUniqueEta):
            _partners(2, 1, [(1, 0), (1, 1)])


class TestExampleTwelve:
    def test_center_dim_four(self):
        ex = example_1_2()
        assert center(ex.gma.algebra) == ex.expected_center

    def test_central_multiplication_vanishes(self):
        # gamma * X = 0 for every central gamma: the reason the residual
        # argument pins chi = phi on the witness element.
        ex = example_1_2()
        alg = ex.gma.algebra
        for zvec in center(alg).basis:
            assert left_mult(alg, zvec).is_zero()
            assert right_mult(alg, zvec).is_zero()


_LAYOUT_NAMES = ("T3", "M3", "example_1_2", "random0", "random1", "random2")


class TestElementFromCorners:
    @pytest.mark.parametrize(
        "parts",
        [{"a": [1, 2, 3]}, {"m": [5]}, {"n": [1]}, {"b": [1, 2]}],
        ids=["long-a", "short-m", "n-of-empty-corner", "short-b"],
    )
    def test_part_of_wrong_length_is_rejected(self, parts):
        u = upper_triangular_gma(3)  # dims (1, 2, 0, 3)
        with pytest.raises(DimensionMismatch):
            u.element_from_corners(**parts)

    def test_parts_fill_their_corners(self):
        u = upper_triangular_gma(3)
        x = u.element_from_corners(a=[1], m=[2, 3], n=[], b=[4, 5, 6])
        assert x.coords == tuple(F(v) for v in (1, 2, 3, 4, 5, 6))


def _table_mul(alg, x, y):
    """x y from the raw structure constants, by the defining triple sum."""
    n, t = alg.dim, alg.table
    return tuple(
        sum((x[i] * y[j] * t[i][j][k] for i in range(n) for j in range(n)), F(0))
        for k in range(n)
    )


def _apply(matrix, v):
    return tuple(sum((a * b for a, b in zip(row, v)), F(0)) for row in rows_of(matrix))


def _conjugate_idempotent_m3():
    """P diag(1, 1, 0) P^-1 in M3 for a seeded P with Fraction entries."""
    rng = random.Random(7)
    while True:
        p = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)] for _ in range(3)]
        det = (
            p[0][0] * (p[1][1] * p[2][2] - p[1][2] * p[2][1])
            - p[0][1] * (p[1][0] * p[2][2] - p[1][2] * p[2][0])
            + p[0][2] * (p[1][0] * p[2][1] - p[1][1] * p[2][0])
        )
        if det != 0:
            break
    # inverse by the adjugate; entries of e are sum_k p[i][k] d_k inv[k][j]
    cof = lambda r, c: (
        p[(r + 1) % 3][(c + 1) % 3] * p[(r + 2) % 3][(c + 2) % 3]
        - p[(r + 1) % 3][(c + 2) % 3] * p[(r + 2) % 3][(c + 1) % 3]
    )
    inv = [[cof(c, r) / det for c in range(3)] for r in range(3)]
    e = [sum((p[i][k] * inv[k][j] for k in (0, 1)), F(0)) for i in range(3) for j in range(3)]
    assert e != [F(int(i == j and i < 2)) for i in range(3) for j in range(3)]
    return full_matrix(3), e


def _peirce_case(name):
    if name == "M2 e11+e12":
        return full_matrix(2), (1, 1, 0, 0), (1, 1, 1, 1)
    if name == "M2+Q (e11+e21)+1":
        return direct_sum(full_matrix(2), rationals()), (1, 0, 1, 0, 1), (2, 1, 1, 1)
    if name == "M2+Q e11":
        return direct_sum(full_matrix(2), rationals()), (1, 0, 0, 0, 0), (1, 1, 1, 2)
    alg, e = _conjugate_idempotent_m3()
    return alg, e, (4, 2, 2, 1)


class TestPeirceOffMatrixUnits:
    """Splits along idempotents that are not sums of basis vectors, checked by raw arithmetic."""

    NAMES = ["M2 e11+e12", "M2+Q (e11+e21)+1", "M2+Q e11", "M3 P diag(1,1,0) P^-1"]

    @pytest.mark.parametrize("name", NAMES)
    def test_split_is_an_isomorphism_onto_its_corners(self, name):
        alg, e, dims = _peirce_case(name)
        e = tuple(F(x) for x in e)
        assert _table_mul(alg, e, e) == e
        pd = peirce_from_idempotent(alg, AlgebraElement(alg, e))
        assert pd.gma.dims == dims
        n = alg.dim
        to_old, to_new = rows_of(pd.new_to_old), rows_of(pd.old_to_new)
        for i in range(n):
            for j in range(n):
                entry = sum((to_old[i][k] * to_new[k][j] for k in range(n)), F(0))
                assert entry == (1 if i == j else 0), (i, j)

        one = find_unit(alg).coords
        f = tuple(a - b for a, b in zip(one, e))
        sides = {"A": (e, e), "M": (e, f), "N": (f, e), "B": (f, f)}
        new_basis = [pd.new_to_old.col(t) for t in range(n)]
        for corner, positions in pd.gma.ranges.items():
            left, right = sides[corner]
            for t in positions:
                x = new_basis[t]
                assert _table_mul(alg, left, _table_mul(alg, x, right)) == x, (corner, t)

        new = pd.gma.algebra
        for x in new_basis:
            for y in new_basis:
                product = _table_mul(new, _apply(pd.old_to_new, x), _apply(pd.old_to_new, y))
                assert _apply(pd.new_to_old, product) == _table_mul(alg, x, y)


def _pinned_idempotents():
    """(algebra, idempotent coords) over M_n and T_n, n = 2..4: every diagonal split, then e11 + e1n and e11 - 3/2 e12."""
    for family in (full_matrix, upper_triangular):
        for n in (2, 3, 4):
            alg = family(n)
            pos = {label: t for t, label in enumerate(alg.labels)}

            def element(**terms):
                out = [F(0)] * alg.dim
                for label, x in terms.items():
                    out[pos[label]] += x
                return tuple(out)

            for k in range(1, n):
                for subset in itertools.combinations(range(1, n + 1), k):
                    yield alg, element(**{f"e{i}{i}": 1 for i in subset})
            yield alg, element(e11=1, **{f"e1{n}": 1})
            yield alg, element(e11=1, e12=F(-3, 2))


# sha256 over peirce_from_idempotent on _pinned_idempotents(): the rows of
# new_to_old and old_to_new, the block dims and the split algebra's content hash.
# Recorded while old_to_new was found by inverting new_to_old.
_PINNED_PEIRCE = "4de395f1ecc690ef35a4655b2da6e3447f85a5daf4d5ba455dc6c3ebc5e69c6b"


def test_peirce_splits_are_pinned():
    h = hashlib.sha256()
    count = 0
    for alg, e in _pinned_idempotents():
        pd = peirce_from_idempotent(alg, AlgebraElement(alg, e))
        h.update(repr((rows_of(pd.new_to_old), rows_of(pd.old_to_new), pd.gma.dims, pd.gma.algebra.content_hash)).encode())
        count += 1
    assert count == 56
    assert h.hexdigest() == _PINNED_PEIRCE


@functools.lru_cache(maxsize=None)
def _layout_gma(name):
    if name.startswith("random"):
        return random_gma(random.Random(int(name[len("random"):])), require_n=True)
    return {
        "T3": lambda: upper_triangular_gma(3),
        "M3": lambda: full_matrix_gma(3),
        "example_1_2": lambda: example_1_2().gma,
    }[name]()


def _corner_basis(u, corner):
    """(index, corner coordinates, element) for each basis vector of a corner."""
    d = u.dims["AMNB".index(corner)]
    for i in range(d):
        e = unit_vec(d, i)
        yield i, e, u.element_from_corners(**{corner.lower(): e})


class TestBlockLayout:
    """The block layout read from the tensors the context holds, by dense loops, not from the assembly tables."""

    @pytest.mark.parametrize("name", _LAYOUT_NAMES)
    def test_corner_products_follow_the_block_rules(self, name):
        u = _layout_gma(name)
        grids = context_grids(u.context)
        # (left corner, right corner) -> (product corner, the context tensor that multiplies them)
        rules = {(left, right): (corner, path) for path, (left, right, corner) in BLOCK_RULES.items()}
        for left in "AMNB":
            for right in "AMNB":
                rule = rules.get((left, right))
                for _, x, ex in _corner_basis(u, left):
                    for _, y, ey in _corner_basis(u, right):
                        product = ex * ey
                        if rule is None:  # e.g. M.M, A.N and M.A
                            assert product.is_zero(), (left, right, x, y)
                        else:
                            corner, path = rule
                            value = dense_contract(grids[path], x, y, u.dims["AMNB".index(corner)])
                            expected = u.element_from_corners(**{corner.lower(): value})
                            assert product == expected, (left, right, x, y)

    @pytest.mark.parametrize("name", _LAYOUT_NAMES)
    def test_block_decompose_corners_are_projections(self, name):
        u = _layout_gma(name)
        n = u.algebra.dim
        rng = random.Random(name)
        op = LinearOperator.from_flat(
            u.algebra, tuple(F(rng.randint(-3, 3)) for _ in range(n * n))
        )
        d = block_decompose(u, op)
        pairs = {
            "alpha1": ("A", "A"), "alpha2": ("M", "A"), "alpha3": ("N", "A"), "alpha4": ("B", "A"),
            "beta1": ("A", "B"), "beta2": ("M", "B"), "beta3": ("N", "B"), "beta4": ("B", "B"),
            "tau1": ("A", "M"), "tau2": ("M", "M"), "tau3": ("N", "M"), "tau4": ("B", "M"),
            "gamma1": ("A", "N"), "gamma2": ("M", "N"), "gamma3": ("N", "N"), "gamma4": ("B", "N"),
        }
        for corner, (target, source) in pairs.items():
            mat = getattr(d, corner)
            assert (mat.rows, mat.cols) == (
                u.dims["AMNB".index(target)],
                u.dims["AMNB".index(source)],
            ), corner
            for j, _, e in _corner_basis(u, source):
                assert mat.col(j) == u.project(target, op(e).coords), (corner, j)
