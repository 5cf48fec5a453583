import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lietriple.algebra import (
    LinearOperator,
    multiplication_operator,
    StructureConstants,
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
from lietriple.derivations import _commutator_into_center_forces_central
from lietriple.errors import AlgebraMismatch, NotAssociative
from lietriple.linalg import Matrix, Subspace, kernel_of_rows, solve, unit_vec
from oracles import (
    RATIONAL_BASIS,
    first_nonassociative_triple,
    inverse,
    kernel_basis,
    left_mult,
    preimage_basis,
    rebased,
    right_mult,
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
            StructureConstants(table)
        assert exc.value.triple == (0, 0, 0)

    def test_rational_table_reports_first_failing_triple(self):
        # The check runs on the table scaled to ints; the triple it names
        # must be the first one a plain Fraction loop finds.
        table = [[list(row) for row in plane] for plane in rebased(full_matrix(2), RATIONAL_BASIS).table]
        table[2][3][0] += F(1, 5)
        expected = first_nonassociative_triple(table)
        assert expected is not None
        with pytest.raises(NotAssociative) as exc:
            StructureConstants(table)
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
            StructureConstants(table)
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
            assert StructureConstants(table).dim == n
        else:
            with pytest.raises(NotAssociative) as exc:
                StructureConstants(table)
            assert exc.value.triple == expected

    def test_distinct_prime_denominators_accepted(self):
        # e_i e_i = e_i / p_i: associative, with common denominator 210
        primes = (2, 3, 5, 7)
        table = [
            [[F(1, p) if i == j == k else 0 for k in range(4)] for j in range(4)]
            for i, p in enumerate(primes)
        ]
        alg = StructureConstants(table)
        assert first_nonassociative_triple(alg.table) is None
        assert alg.table[3][3][3] == F(1, 7)

    def test_dim_at_least_one(self):
        with pytest.raises(Exception):
            StructureConstants([])

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
                rows.extend(mat.data)
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
            diff = LinearOperator(t2, right_mult(t2, unit_vec(3, i))) - LinearOperator(t2, left_mult(t2, unit_vec(3, i)))
            rows.extend(diff.matrix.data)
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


class TestDoubleCommutatorSpan:
    def test_m2_trace_zero(self, m2):
        # Oracle: 64 explicit triples span the trace-zero plane.
        span = double_commutator_span(m2)
        assert span.dim == 3
        assert span == Subspace(4, [(1, 0, 0, -1), (0, 1, 0, 0), (0, 0, 1, 0)])

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
        p = Matrix([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]])
        pinv = Matrix(inverse(p.data))
        table = [
            [
                list(pinv.matvec(m2.mul_coords(p.col(i), p.col(j))))
                for j in range(4)
            ]
            for i in range(4)
        ]
        conj = StructureConstants(table)
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
        op = LinearOperator(m2, Matrix([[1, 2, 0, 0], [0, 1, 0, 3], [0, 0, 1, 0], [5, 0, 0, 1]]))
        assert LinearOperator.from_flat(m2, op.flatten()) == op

    def test_apply_matches_columns(self, m2):
        op = LinearOperator.identity(m2)
        for i in range(4):
            assert op(m2.basis_element(i)) == m2.basis_element(i)


def left_unit_algebra():
    """e_i e_j = e_j on Q^2: every basis vector is a left unit, so the center is 0 and there is no unit."""
    return StructureConstants([[[int(k == j) for k in range(2)] for j in range(2)] for _ in range(2)])


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
    return (LinearOperator(alg, right_mult(alg, coords)) - LinearOperator(alg, left_mult(alg, coords))).matrix.data


def _oracle_unit(alg):
    """The unit read off the kernel of [u*e_j - e_j ; e_j*u - e_j] in (u, t): one vector with t != 0, or none."""
    n = alg.dim
    rows = []
    for j in range(n):
        ej = unit_vec(n, j)
        for m in (right_mult(alg, ej), left_mult(alg, ej)):
            rows.extend(list(m.data[l]) + [-ej[l]] for l in range(n))
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
    actions = [Matrix.identity(n).data] + [
        m.data for i in range(n) for m in (left_mult(alg, unit_vec(n, i)), right_mult(alg, unit_vec(n, i)))
    ]
    ideal = z
    while ideal and (nxt := preimage_basis(actions, ideal, n)) != ideal:
        ideal = nxt
    assert largest_central_ideal(alg).basis == ideal
    unit = find_unit(alg)
    assert (None if unit is None else unit.coords) == _oracle_unit(alg)
    coords = [F(rng.randint(-3, 3), rng.choice((1, 3))) for _ in range(n)]
    assert multiplication_operator(alg, coords).matrix == left_mult(alg, coords)
