import functools
import hashlib
import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from lietriple.algebra import (
    LinearOperator,
    _tuple_rows,
    multiplication_operator,
    StructureConstants,
    basis_tensor,
    center,
    commutant,
    commutator,
    double_commutator,
    double_commutator_span,
    find_unit,
    jordan_product,
    largest_central_ideal,
)
from lietriple.catalog import (
    direct_sum,
    dual_numbers,
    example_1_2,
    full_matrix,
    random_gma,
    rationals,
    strict_upper_3x3,
    upper_triangular,
)
from lietriple.centralizers import _FORMS, IdentityKind, _constraint_tuples, _tags
from lietriple.derivations import _commutator_into_center_forces_central
from lietriple.errors import AlgebraMismatch, NotAssociative
from lietriple.linalg import Subspace, kernel_of_rows, solve, unit_vec
from lietriple.symmetry import orbit_tags, triple_tuple
from oracles import (
    RATIONAL_BASIS,
    dense_contract,
    first_nonassociative_triple,
    grid_algebra,
    identity_matrix,
    inverse,
    kernel_basis,
    left_mult,
    matrix,
    matrix_of,
    operator_of,
    preimage_basis,
    rebased,
    right_mult,
    rows_of,
    unit_diagonal_basis,
)

F = Fraction


@pytest.fixture(scope="module")
def t2():
    return upper_triangular(2)


@pytest.fixture(scope="module")
def m2():
    return full_matrix(2)


@pytest.fixture(scope="module")
def ex12():
    return example_1_2()


_ASSOCIATIVE = (
    lambda: upper_triangular(2),
    lambda: full_matrix(2),
    dual_numbers,
    strict_upper_3x3,
    lambda: rebased(full_matrix(2), RATIONAL_BASIS),
)


class TestConstruction:
    def test_rejects_non_associative_with_first_triple(self):
        # e0 e0 = e1 and e0 e1 = e0 cannot be associative: (e0 e0) e0 = 0
        # while e0 (e0 e0) = e0.
        table = [[[0, 1], [1, 0]], [[0, 0], [0, 0]]]
        with pytest.raises(NotAssociative) as exc:
            grid_algebra(table)
        assert exc.value.triple == (0, 0, 0)

    def test_rational_table_reports_first_failing_triple(self):
        # The check runs on the table scaled to ints; the triple it names
        # must be the first one a plain Fraction loop finds.
        table = [[list(row) for row in plane] for plane in rebased(full_matrix(2), RATIONAL_BASIS).table]
        table[2][3][0] += F(1, 5)
        expected = first_nonassociative_triple(table)
        assert expected is not None
        with pytest.raises(NotAssociative) as exc:
            grid_algebra(table)
        assert exc.value.triple == expected

    def test_residual_near_the_packing_bound_is_read_in_its_own_digit(self):
        # e0 e0 = e1 + e2, e1 e0 = e2 e0 = e0 and e0 e1 = e0 e2 = -e0 give
        # (e0 e0) e0 - e0 (e0 e0) = 4 e0: with n = 3 and m = 1 the residual
        # 4 = 2^(n m^2).bit_length() lies within the bound 2 n m^2 = 6.  A
        # packing (n m^2).bit_length() or (m^2).bit_length() bits wide
        # carries it into the digit of k = 1 and names (0, 0, 1).
        table = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        table[0][0] = [0, 1, 1]
        table[1][0][0] = table[2][0][0] = 1
        table[0][1][0] = table[0][2][0] = -1
        assert first_nonassociative_triple(table) == (0, 0, 0)
        with pytest.raises(NotAssociative) as exc:
            grid_algebra(table)
        assert exc.value.triple == (0, 0, 0)

    @given(st.data())
    def test_packed_check_names_the_first_failing_triple(self, data):
        """The check on a packed third index fails, and names a triple, exactly where the triple loop does.

        An associative table is scaled by a large int or a Fraction (both
        sides scale by its square) and a few entries are moved.  A move adds
        u * 2^j at e_a e_k and -u at e_a e_{k+1}: their residuals sit in
        neighbouring digits and would cancel in a packing j bits wide.  A
        move by a small multiple of the scale leaves residuals near the
        bound 2 n m^2 of the packing.
        """
        table = data.draw(st.sampled_from(_ASSOCIATIVE))().table
        scale = data.draw(st.sampled_from((1, -3, 2**70, F(1, 3), F(-7, 2**40))))
        table = [[[x * scale for x in row] for row in plane] for plane in table]
        n = len(table)
        for _ in range(data.draw(st.integers(0, 3))):
            a, k, l = (data.draw(st.integers(0, n - 1)) for _ in range(3))
            u = data.draw(
                st.fractions(min_value=-(2**80), max_value=2**80, max_denominator=6).filter(bool)
                | st.sampled_from((-2, -1, 1, 2)).map(lambda t: t * scale)
            )
            j = data.draw(st.integers(0, 90))
            table[a][k][l] += u * 2**j
            if k + 1 < n:
                table[a][k + 1][l] -= u
        expected = first_nonassociative_triple(table)
        if expected is None:
            assert grid_algebra(table).dim == n
        else:
            with pytest.raises(NotAssociative) as exc:
                grid_algebra(table)
            assert exc.value.triple == expected

    def test_distinct_prime_denominators_accepted(self):
        # e_i e_i = e_i / p_i: associative, with common denominator 210
        primes = (2, 3, 5, 7)
        table = [
            [[F(1, p) if i == j == k else 0 for k in range(4)] for j in range(4)]
            for i, p in enumerate(primes)
        ]
        alg = grid_algebra(table)
        assert first_nonassociative_triple(alg.table) is None
        assert alg.table[3][3][3] == F(1, 7)

    def test_dim_at_least_one(self):
        with pytest.raises(Exception):
            StructureConstants(0, {})

    def test_content_hash_stable(self, t2):
        assert t2 == upper_triangular(2)
        assert t2.content_hash == upper_triangular(2).content_hash


class TestMultiply:
    def test_strict_upper_products(self):
        a = strict_upper_3x3()
        u1, u2, u3 = a.basis()
        assert u1 * u2 == u3
        assert (u2 * u1).is_zero()
        assert (u1 * u1).is_zero()

    def test_times_zero(self, m2):
        x = m2.element((1, 2, 3, 4))
        assert (x * m2.zero()).is_zero()

    def test_algebra_mismatch(self, t2, m2):
        with pytest.raises(AlgebraMismatch):
            t2.basis_element(0) * m2.basis_element(0)


class TestFindUnit:
    def test_t2_unit(self, t2):
        u = find_unit(t2)
        assert u is not None and u.coords == (1, 0, 1)  # e11 + e22

    def test_rationals_unit(self):
        assert find_unit(rationals()).coords == (1,)

    def test_strict_upper_has_none(self):
        assert find_unit(strict_upper_3x3()) is None

    def test_strict_upper_unit_system_inconsistent(self):
        # Independent oracle: stack u*e_j = e_j and e_j*u = e_j as one
        # linear system and watch it fail outright.
        a = strict_upper_3x3()
        rows, rhs = [], []
        for j in range(3):
            for mat in (right_mult(a, unit_vec(3, j)), left_mult(a, unit_vec(3, j))):
                rows.extend(rows_of(mat))
                rhs.extend(unit_vec(3, j))
        assert solve(3, rows, rhs) is None


class TestBrackets:
    def test_t2_bracket(self, t2):
        e11, e12, _ = t2.basis()
        assert commutator(e11, e12) == e12

    def test_alternating(self, m2):
        rng = random.Random(0)
        for _ in range(20):
            x = m2.element([rng.randint(-3, 3) for _ in range(4)])
            z = m2.element([rng.randint(-3, 3) for _ in range(4)])
            assert double_commutator(x, x, z).is_zero()

    def test_jordan_triple_formula(self, m2):
        # [[a,b],c] = a o (b o c) - b o (a o c) on 100 random triples.
        rng = random.Random(1)
        for _ in range(100):
            a, b, c = (
                m2.element([F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(4)])
                for _ in range(3)
            )
            lhs = double_commutator(a, b, c)
            rhs = jordan_product(a, jordan_product(b, c)) - jordan_product(
                b, jordan_product(a, c)
            )
            assert lhs == rhs


class TestCenter:
    def test_m2_center_is_scalars(self, m2):
        z = center(m2)
        assert z.dim == 1
        assert z.basis == ((F(1), F(0), F(0), F(1)),)

    def test_example_center_is_corner_grid(self, ex12):
        z = center(ex12.gma.algebra)
        assert z == ex12.expected_center
        assert z.dim == 4

    def test_t2_center_matches_hand_kernel(self, t2):
        # Oracle: impose [z, e11] = [z, e12] = [z, e22] = 0 directly.
        rows = []
        for i in range(3):
            diff = operator_of(t2, right_mult(t2, unit_vec(3, i))) - operator_of(t2, left_mult(t2, unit_vec(3, i)))
            rows.extend(rows_of(matrix_of(diff)))
        assert kernel_of_rows(3, rows) == center(t2)
        assert center(t2).basis == ((F(1), F(0), F(1)),)


class TestCommutant:
    def test_zero_subspace_gives_full(self, m2):
        assert commutant(m2, Subspace.zero(4)) == Subspace.full(4)

    def test_full_subspace_gives_center(self, m2):
        assert commutant(m2, Subspace.full(4)) == center(m2)

    def test_commutant_of_e12(self, m2):
        # Hand elimination: x e12 = e12 x forces x21 = 0 and x11 = x22.
        got = commutant(m2, Subspace(4, [(0, 1, 0, 0)]))
        assert got == Subspace(4, [(1, 0, 0, 1), (0, 1, 0, 0)])

    @given(st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), max_size=3))
    def test_center_contained_and_antitone(self, vecs):
        m2 = full_matrix(2)
        s = Subspace(4, vecs)
        com = commutant(m2, s)
        assert com.contains(center(m2))
        bigger = s.sum(Subspace(4, [(1, 0, 0, 0)]))
        assert com.contains(commutant(m2, bigger))


def _rebased_t3() -> StructureConstants:
    alg = rebased(upper_triangular(3), unit_diagonal_basis(random.Random(0), 6))
    assert alg._int_table[0] > 1  # D > 1, so the triple form holds the table times D^2
    return alg


_SPAN_ALGEBRAS = {
    "M2": lambda: full_matrix(2),
    "T3": lambda: upper_triangular(3),
    "T4": lambda: upper_triangular(4),
    "M3": lambda: full_matrix(3),
    "example_1_2": lambda: example_1_2().gma.algebra,
    "strict_upper_3x3": strict_upper_3x3,
    "T3r": _rebased_t3,
    **{f"random_gma({seed})": (lambda seed=seed: random_gma(random.Random(seed)).algebra) for seed in range(5)},
}


class TestDoubleCommutatorSpan:
    def test_m2_trace_zero(self, m2):
        # Oracle: 64 explicit triples span the trace-zero plane.
        span = double_commutator_span(m2)
        assert span.dim == 3
        assert span == Subspace(4, [(1, 0, 0, -1), (0, 1, 0, 0), (0, 0, 1, 0)])

    @pytest.mark.parametrize("name", list(_SPAN_ALGEBRAS))
    def test_span_is_that_of_every_basis_double_commutator(self, name):
        # Oracle: every [[e_i, e_j], e_k] through element products; the span
        # takes the triple form's int rows as they come, repeats included.
        alg = _SPAN_ALGEBRAS[name]()
        basis = alg.basis()
        triples = [double_commutator(x, y, z).coords for x in basis for y in basis for z in basis]
        assert double_commutator_span(alg) == Subspace(alg.dim, triples)

    def test_example_span_is_zero(self, ex12):
        alg = ex12.gma.algebra
        basis = alg.basis()
        for x in basis:
            for y in basis:
                for z in basis:
                    assert double_commutator(x, y, z).is_zero()
        assert double_commutator_span(alg).is_zero()

    def test_t2_span(self, t2):
        assert double_commutator_span(t2) == Subspace(3, [(0, 1, 0)])

    def test_invariance_under_basis_change(self, m2):
        # Conjugate the basis by an invertible matrix; the span transports.
        p = matrix([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]])
        pinv = matrix(inverse(rows_of(p)))
        table = [
            [
                list(pinv.matvec(m2.mul_coords(p.col(i), p.col(j))))
                for j in range(4)
            ]
            for i in range(4)
        ]
        conj = grid_algebra(table)
        span_new = double_commutator_span(conj)
        transported = Subspace(4, [p.matvec(v) for v in span_new.basis])
        assert transported == double_commutator_span(m2)


class TestLargestCentralIdeal:
    def test_simple_algebra_has_none(self, m2):
        assert largest_central_ideal(m2).is_zero()

    def test_field_is_its_own(self):
        assert largest_central_ideal(rationals()).is_full()

    def test_strict_upper(self):
        # u3 is central and killed by every product, so span{u3} survives.
        assert largest_central_ideal(strict_upper_3x3()) == Subspace(3, [(0, 0, 1)])

    def test_contained_in_center_and_stable(self, t2):
        for alg in (t2, full_matrix(2), strict_upper_3x3()):
            v = largest_central_ideal(alg)
            assert center(alg).contains(v)
            for i in range(alg.dim):
                for b in v.basis:
                    left = alg.mul_coords(unit_vec(alg.dim, i), b)
                    right = alg.mul_coords(b, unit_vec(alg.dim, i))
                    assert v.contains_vector(left) and v.contains_vector(right)


class TestLinearOperator:
    def test_flatten_round_trip(self, m2):
        op = operator_of(m2, matrix([[1, 2, 0, 0], [0, 1, 0, 3], [0, 0, 1, 0], [5, 0, 0, 1]]))
        assert LinearOperator.from_flat(m2, op.flatten()) == op

    def test_apply_matches_columns(self, m2):
        op = LinearOperator.identity(m2)
        for i in range(4):
            assert op(m2.basis_element(i)) == m2.basis_element(i)


def left_unit_algebra():
    """e_i e_j = e_j on Q^2: every basis vector is a left unit, so the center is 0 and there is no unit."""
    return StructureConstants(2, {(i, j, j): 1 for i in range(2) for j in range(2)})


_MULTIPLICATION_ALGEBRAS = {
    "Q": rationals,
    "dual": dual_numbers,
    "M1": lambda: full_matrix(1),
    "M2": lambda: full_matrix(2),
    "M3": lambda: full_matrix(3),
    "T2": lambda: upper_triangular(2),
    "T3": lambda: upper_triangular(3),
    "strict_upper": strict_upper_3x3,
    "example_1_2": lambda: example_1_2().gma.algebra,
    "M2+Q": lambda: direct_sum(full_matrix(2), rationals()),
    "T2+dual": lambda: direct_sum(upper_triangular(2), dual_numbers()),
    "left_unit": left_unit_algebra,
    **{f"random{s}": (lambda s=s: random_gma(random.Random(s)).algebra) for s in range(40)},
}


def _ad(alg, coords) -> tuple:
    """The grid of x -> x c - c x."""
    return rows_of(matrix_of(operator_of(alg, right_mult(alg, coords)) - operator_of(alg, left_mult(alg, coords))))


def _oracle_unit(alg):
    """The unit read off the kernel of [u*e_j - e_j ; e_j*u - e_j] in (u, t): one vector with t != 0, or none."""
    n = alg.dim
    rows = []
    for j in range(n):
        ej = unit_vec(n, j)
        for m in (right_mult(alg, ej), left_mult(alg, ej)):
            rows.extend(list(row) + [-ej[l]] for l, row in enumerate(rows_of(m)))
    ker = kernel_basis(rows, n + 1)
    if len(ker) == 1 and ker[0][n] != 0:
        return tuple(x / ker[0][n] for x in ker[0][:n])
    return None


@pytest.mark.parametrize("name", list(_MULTIPLICATION_ALGEBRAS))
def test_multiplication_maps_match_the_table_oracle(name):
    # Every multiplication map is read off the sparse basis forms; the
    # oracle builds each one densely from the table and eliminates with
    # its own Gauss-Jordan.
    alg = _MULTIPLICATION_ALGEBRAS[name]()
    n = alg.dim
    rng = random.Random(name)
    ads = [_ad(alg, unit_vec(n, i)) for i in range(n)]
    z = kernel_basis([row for ad in ads for row in ad], n)
    assert center(alg).basis == z
    assert _commutator_into_center_forces_central(alg) == (preimage_basis(ads, z, n) == z)
    for k in range(3):
        s = Subspace(n, [[F(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(n)] for _ in range(k)])
        assert commutant(alg, s).basis == kernel_basis([row for v in s.basis for row in _ad(alg, v)], n)
    # V <- {v in V : e_i v and v e_i in V for every i}, from V = Z, to its fixed point
    actions = [rows_of(identity_matrix(n))] + [
        rows_of(m) for i in range(n) for m in (left_mult(alg, unit_vec(n, i)), right_mult(alg, unit_vec(n, i)))
    ]
    ideal = z
    while ideal and (nxt := preimage_basis(actions, ideal, n)) != ideal:
        ideal = nxt
    assert largest_central_ideal(alg).basis == ideal
    unit = find_unit(alg)
    assert (None if unit is None else unit.coords) == _oracle_unit(alg)
    coords = [F(rng.randint(-3, 3), rng.choice((1, 3))) for _ in range(n)]
    assert matrix_of(multiplication_operator(alg, coords)) == left_mult(alg, coords)


_Q_ENTRIES = (F(-1, 2), F(1, 3), F(2, 3))
# the int product and left multiplication against the Fraction loops, on
# catalog tables (D = 1) and on T3 and M3 in rational bases (D > 1)
_PRODUCT_ALGEBRAS = {
    "Q": rationals,
    "dual": dual_numbers,
    "U3": strict_upper_3x3,
    "T3": lambda: upper_triangular(3),
    "M2": lambda: full_matrix(2),
    "example_1_2": lambda: example_1_2().gma.algebra,
    "T3q": lambda: rebased(upper_triangular(3), unit_diagonal_basis(random.Random(6), 6, entries=_Q_ENTRIES)),
    "M3q": lambda: rebased(full_matrix(3), unit_diagonal_basis(random.Random(9), 9, entries=_Q_ENTRIES)),
}
# zeros, negatives, and p/q with p and q sharing factors
_ENTRIES = st.one_of(st.just(0), st.integers(-7, 7), st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 12))))


@functools.cache
def _product_algebra(name: str) -> tuple[StructureConstants, list]:
    """The algebra and its dense grid of Fractions."""
    alg = _PRODUCT_ALGEBRAS[name]()
    return alg, alg.table


@pytest.mark.parametrize("name", sorted(_PRODUCT_ALGEBRAS))
@settings(max_examples=25)
@given(data=st.data())
def test_the_int_product_and_left_multiplication_match_the_fraction_loops(name, data):
    alg, grid = _product_algebra(name)
    n = alg.dim
    assert (alg._int_table[0] > 1) is name.endswith("q")
    x, y = (data.draw(st.lists(_ENTRIES, min_size=n, max_size=n)) for _ in range(2))
    got = alg.mul_coords(x, y)
    assert got == dense_contract(grid, x, y, n)
    assert all(type(v) is F for v in got)
    op = multiplication_operator(alg, x)
    assert matrix_of(op) == left_mult(alg, x)
    assert all(type(v) is F for row in rows_of(matrix_of(op)) for v in row)


_FORM_ALGEBRAS = {name: _SPAN_ALGEBRAS[name] for name in ("T3", "T4", "M3", "example_1_2", "strict_upper_3x3", "T3r")}

# sha256 of repr(basis_tensor(alg, form)), recorded before the forms were
# built in direct loops: constraint rows and slot groups read the keys and
# the coordinates inside each value in this order, so a rewrite keeps both
_FORM_DIGESTS = {
    ("T3", "product"): "b6714065c02f9b707eb7e171cf05810e4995f039a59f7d57579f98b3ef19aaf7",
    ("T3", "bracket"): "dee85998864a9ac3b8da62ba935e06aa195ddd29e0dbd160e8d44fec3c2bcf15",
    ("T3", "jordan"): "b5fa109526ae1b1baa0f0857afa49b265e657a48c01abd471e799f3a679de407",
    ("T3", "triple"): "da593c4129da3c22a1af369138ed08677bcee0f8883979b9e41053701f198d70",
    ("T4", "product"): "f750b3d2e4779f1bee53877aacf0a7db85e9700dfbd3ff771e506ea29706a2a4",
    ("T4", "bracket"): "29401db07a8035766483d90e3e53060ec92591478625f10d03b0771fb79d5369",
    ("T4", "jordan"): "2e3fee1f199f67158663cd919135ec717c24cbf5665627b30af94efc27f80d2e",
    ("T4", "triple"): "172efc594bc068eb3eceef54c0a18d67703c078913a5be6033e72c0fcc2a4d99",
    ("M3", "product"): "f861f3fbb1df053a6034f75db644324bb960564e295511ecab185d0eda7c2c7e",
    ("M3", "bracket"): "b5a67b89a70a468d7bfe00c8e04c44d4836a568189dd638e8786e7766073f9c0",
    ("M3", "jordan"): "2f2d5d6538c622c63498705747e6599f0ae7fa520bf0b421f3c7e805201e5504",
    ("M3", "triple"): "6f1bb009ab9641a43a3cfb4ec470a336d8d9d830e1dac5baa7681c873965db80",
    ("example_1_2", "product"): "d71cd13386935955a529be638443b8b84a57947736dca6acd171ccdf2411a5f8",
    ("example_1_2", "bracket"): "b3085541d565b41a2920d60cd453bb7e04b878ba39f94f43426c531233e40cde",
    ("example_1_2", "jordan"): "f5fd6d9ab988c0bdaba9334849860ece2e96055b0dab47e62e57461185b7c2ec",
    ("example_1_2", "triple"): "bca09f14b9dd58403c3c3fc1dcab7212dfdfbfbfea4e683d3024a82415c60f14",
    ("strict_upper_3x3", "product"): "77643e6cbe83600c4e6e9a0d0b2a9e1078420a896226a7b981e013d905511cc7",
    ("strict_upper_3x3", "bracket"): "f02cec1314226ac3831ae7e8f63cc99fb18743806f951737810d6bc09c94fc1a",
    ("strict_upper_3x3", "jordan"): "1d6bcbc8059dbc6991cd438fc7e7993e1b9336935eb967a5bbde1bff8f1825ab",
    ("strict_upper_3x3", "triple"): "bca09f14b9dd58403c3c3fc1dcab7212dfdfbfbfea4e683d3024a82415c60f14",
    ("T3r", "product"): "3406871cc50c101eb0c8665c98e127fe5467be8426080d7143d1cf841e271ab0",
    ("T3r", "bracket"): "97d813285fba76b4df8ccced0371789c12b4d8d2e533457bb4e284f2f42c30c1",
    ("T3r", "jordan"): "be596fc7b830209ffe69a9ee335232e03130ef1d79ad2577df26a1b43efffae8",
    ("T3r", "triple"): "3a823d59f61b6a0d6828f55d644df212157b8171a8df567a414bd24b47400fcf",
}

_FORM_PRODUCTS = {
    "product": lambda x, y: x * y,
    "bracket": commutator,
    "jordan": jordan_product,
    "triple": double_commutator,
}


def _form_oracle(alg: StructureConstants, form: str) -> tuple[int, dict]:
    """(scale, {key: {coord: value times the scale}}) over the nonzero values of a form, by element products.

    The scale is the least common denominator D of the table, squared for
    the triple bracket.
    """
    basis = alg.basis()
    d = lcm(*(x.denominator for plane in alg.table for row in plane for x in row))
    scale = d * d if form == "triple" else d
    out = {}
    for key in itertools.product(range(alg.dim), repeat=3 if form == "triple" else 2):
        v = _FORM_PRODUCTS[form](*(basis[i] for i in key))
        if not v.is_zero():
            out[key] = {l: x * scale for l, x in enumerate(v.coords) if x}
    return scale, out


@pytest.mark.parametrize("form", list(_FORM_PRODUCTS))
@pytest.mark.parametrize("name", list(_FORM_ALGEBRAS))
def test_basis_form_is_the_element_products_in_its_pinned_order(name, form):
    alg = _FORM_ALGEBRAS[name]()
    scale, table = basis_tensor(alg, form)
    assert (scale, {key: dict(v) for key, v in table.items()}) == _form_oracle(alg, form)
    assert all(type(x) is int and len(dict(v)) == len(v) for v in table.values() for _, x in v)
    assert list(table) == sorted(table)
    assert hashlib.sha256(repr((scale, table)).encode()).hexdigest() == _FORM_DIGESTS[name, form]


def _reference_rows(n: int, w, terms) -> list[dict]:
    """The n rows {c*n + l: w_c}, each term's v_l at i*n + l' subtracted, zeros and empty rows dropped, l increasing."""
    rows = [dict.fromkeys(range(n * n), 0) for _ in range(n)]
    for c, x in w:
        for l in range(n):
            rows[l][c * n + l] += x
    for _p, i, group in terms:
        for lp, v in group:
            for l, c in v:
                rows[l][i * n + lp] -= c
    rows = [{k: x for k, x in row.items() if x} for row in rows]
    return [row for row in rows if row]


ROW_ALGEBRAS = {
    "T4": lambda: upper_triangular(4),
    "example_1_2": lambda: example_1_2().gma.algebra,
    "R1": lambda: random_gma(random.Random(1), require_n=True).algebra,
    "rebased T3": lambda: rebased(upper_triangular(3), unit_diagonal_basis(random.Random(0), 6)),
}


@pytest.mark.parametrize("name", ROW_ALGEBRAS)
def test_tuple_rows_are_the_reference_rows_at_every_constraint_tuple(name):
    """Every tuple of every kind, mirrored ones included: the same rows, in the same order, with the same entries."""
    alg = ROW_ALGEBRAS[name]()
    n, walked = alg.dim, 0
    for kind in IdentityKind:
        form, slots = _FORMS[kind]
        for _tag, w, terms in _constraint_tuples(alg, kind, _tags(n, form, slots, True)):
            assert _tuple_rows(n, w, terms) == _reference_rows(n, w, terms)
            walked += 1
    assert walked > 0


@pytest.mark.parametrize(
    "kind", [IdentityKind.LIE_TRIPLE_CENTRALIZER, IdentityKind.LIE_TRIPLE_DERIVATION], ids=lambda k: k.value
)
def test_tuple_rows_are_the_reference_rows_at_each_orbit_tuple_of_m3(kind):
    alg, slots = full_matrix(3), _FORMS[kind][1]
    groups = {}
    for tag in orbit_tags(alg, slots[:2] == (0, 1)):
        w, terms = triple_tuple(alg, slots, tag, groups)
        assert _tuple_rows(alg.dim, w, terms) == _reference_rows(alg.dim, w, terms)
