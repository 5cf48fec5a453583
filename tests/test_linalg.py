import random
import tracemalloc
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from lietriple.algebra import AlgebraElement, LinearOperator, StructureConstants, multiplication_operator
from lietriple import linalg
from lietriple.catalog import (
    example_1_2,
    full_matrix,
    full_matrix_gma,
    rationals,
    scalar_bimodule,
    triangular_context,
    upper_triangular,
    upper_triangular_gma,
)
from lietriple.centralizers import _FORMS, IdentityKind, _constraint_tuples, _tags, _tuple_rows, solve_identity_space
from lietriple.errors import DimensionMismatch
from lietriple.gma import Bimodule, MoritaContext
from lietriple.linalg import (
    Matrix,
    _IntEchelon,
    _echelon,
    Subspace,
    checked_tensor,
    combination,
    kernel_of_rows,
    preimage,
    row_values,
    solve,
)
from oracles import (
    context_grids,
    dense_contract,
    gauss_jordan,
    identity_matrix,
    kernel_basis,
    matrix,
    plain_combination,
    preimage_basis,
    rebased,
    row_space_basis,
    rows_of,
    unit_diagonal_basis,
)

F = Fraction


def rref_rows(m):
    """The nonzero rows of m's reduced row-echelon form: the canonical basis of its row space."""
    return Subspace(m.cols, rows_of(m)).basis


def columns(grid):
    """A grid's nonzero columns (j, ((l, value), ...)), the form preimage takes a map in."""
    return [(j, tuple((l, row[j]) for l, row in enumerate(grid) if row[j])) for j in range(len(grid[0]))]


class TestRref:
    def test_proportional_rows(self):
        assert rref_rows(matrix([[2, 4], [1, 2]])) == rows_of(matrix([[1, 2]]))

    def test_identity_fixed(self):
        assert rref_rows(identity_matrix(3)) == rows_of(identity_matrix(3))

    def test_permutation(self):
        assert rref_rows(matrix([[0, 1], [1, 0]])) == rows_of(identity_matrix(2))

    def test_fractional_pivots(self):
        m = matrix([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)]])
        assert rref_rows(m) == rows_of(matrix([[1, F(2, 3)]]))

    def test_canonical_basis_of_a_spanning_set_is_pinned(self):
        # pivots are least columns; the fourth vector is the sum of the first and third
        s = Subspace(5, [(0, 2, 4, F(1, 3), 6), (0, 1, 2, 0, -1), (3, 0, 1, 1, 0), (3, 2, 5, F(4, 3), 6)])
        assert s.pivots == (0, 1, 3)
        assert s.basis == ((1, 0, F(1, 3), 0, -8), (0, 1, 2, 0, -1), (0, 0, 0, 1, 24))


class TestKernel:
    def test_line(self):
        assert kernel_of_rows(2, [(1, 1)]) == Subspace(2, [(1, -1)])

    def test_identity_trivial_kernel(self):
        assert kernel_of_rows(2, rows_of(identity_matrix(2))) == Subspace.zero(2)

    def test_rank_one(self):
        # Hand elimination: x + 2y = 0, so the kernel is spanned by (-2, 1);
        # canonical form rescales to a leading 1.
        ker = kernel_of_rows(2, [(1, 2), (2, 4)])
        assert ker == Subspace(2, [(-2, 1)])
        assert ker.basis == ((F(1), F(-1, 2)),)
        m = matrix([[1, 2], [2, 4]])
        for v in ker.basis:
            assert all(x == 0 for x in m.matvec(v))


class TestSolve:
    def test_identity_system(self):
        assert solve(2, rows_of(identity_matrix(2)), (3, 4)) == (3, 4)
        assert kernel_of_rows(2, rows_of(identity_matrix(2))) == Subspace.zero(2)

    def test_free_variable_set_to_zero(self):
        assert solve(2, [{0: 1, 1: 1}], (2,)) == (2, 0)
        assert kernel_of_rows(2, [{0: 1, 1: 1}]) == Subspace(2, [(1, -1)])

    def test_inconsistent(self):
        assert solve(1, [(1,), {0: 1}], (1, 2)) is None

    def test_rhs_length_checked(self):
        with pytest.raises(DimensionMismatch):
            solve(2, [(1, 1)], (1, 2))

    def test_zero_unknowns(self):
        # With no unknowns a system is consistent iff its rhs is zero.
        assert solve(0, [(), {}], (0, 0)) == ()
        assert kernel_of_rows(0, [(), {}]) == Subspace.zero(0)
        assert solve(0, [()], (1,)) is None

    @pytest.mark.parametrize("row", [(1, 2, 3), (1,), {2: 1}, {0: 1, 5: 1}, {-1: 1}])
    def test_rejects_a_row_of_another_width(self, row):
        with pytest.raises(DimensionMismatch):
            solve(2, [row], (1,))

    @pytest.mark.parametrize(
        "ambient, rows, rhs, x, kernel",
        [
            (
                5,
                [{0: 2, 1: 4, 3: 1}, {2: 3, 3: 6, 4: F(-1, 2)}],
                (3, F(1, 2)),
                ("3/2", "0", "1/6", "0", "0"),
                (("1", "0", "0", "-2", "-24"), ("0", "1", "0", "-4", "-48"), ("0", "0", "1", "0", "6")),
            ),
            (
                4,
                [(1, F(1, 3), 2, 0), (2, F(2, 3), 5, F(-3, 4)), (3, 1, 7, F(-3, 4))],
                (1, 3, 4),
                ("-1", "0", "1", "0"),
                (("1", "0", "-1/2", "-2/3"), ("0", "1", "-1/6", "-2/9")),
            ),
        ],
        ids=["sparse", "dense-dependent"],
    )
    def test_particular_solution_and_kernel_are_pinned(self, ambient, rows, rhs, x, kernel):
        # free variables zero, and the kernel's canonical basis, as the
        # least-column Gauss-Jordan gives them; solve returns the first alone
        assert solve(ambient, rows, rhs) == tuple(map(F, x))
        assert kernel_of_rows(ambient, rows).basis == tuple(tuple(map(F, v)) for v in kernel)


class TestSubspaceLattice:
    def test_sum_spans_plane(self):
        e1 = Subspace(2, [(1, 0)])
        e2 = Subspace(2, [(0, 1)])
        assert e1.sum(e2) == Subspace.full(2)

    def test_skew_intersection_is_zero(self):
        diag = Subspace(2, [(1, 1)])
        e1 = Subspace(2, [(1, 0)])
        assert diag.intersect(e1) == Subspace.zero(2)

    def test_full_contains_anything(self):
        full = Subspace.full(3)
        assert full.contains(Subspace(3, [(1, 2, 3), (0, 1, 7)]))
        assert full.contains(Subspace.zero(3))

    def test_canonical_equality(self):
        a = Subspace(3, [(1, 1, 0), (0, 0, 2)])
        b = Subspace(3, [(2, 2, 2), (-1, -1, 3)])
        assert a == b
        assert a.basis == b.basis

    def test_coefficients_roundtrip(self):
        s = Subspace(3, [(1, 0, 2), (0, 1, -1)])
        v = (F(3), F(-2), F(8))
        coeffs = s.coefficients_of(v)
        assert coeffs == (3, -2)
        assert s.coefficients_of((1, 1, 0)) is None

    @pytest.mark.parametrize("v", [(1, 2), (1, 2, 0, 5)])
    def test_coefficients_of_a_wrong_length_vector_raises(self, v):
        with pytest.raises(DimensionMismatch):
            Subspace(3, [(1, 0, 0), (0, 1, 0)]).coefficients_of(v)

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Subspace(2, [(1, 0)]).sum(Subspace(3, [(1, 0, 0)]))


small_frac = st.fractions(
    min_value=-3, max_value=3, max_denominator=3
)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_frac, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(matrix)
        )
    )


def subspaces(ambient):
    return st.lists(
        st.lists(small_frac, min_size=ambient, max_size=ambient),
        min_size=0,
        max_size=ambient + 1,
    ).map(lambda vs: Subspace(ambient, vs))


@st.composite
def membership_cases(draw):
    """(vectors, v): up to four vectors in Q^4 and v, either a combination of them or drawn freely."""
    vector = st.lists(small_frac, min_size=4, max_size=4)
    vectors = draw(st.lists(vector, max_size=4))
    if draw(st.booleans()):
        coeffs = draw(st.lists(small_frac, min_size=len(vectors), max_size=len(vectors)))
        return vectors, list(combination(coeffs, vectors, 4))
    return vectors, draw(vector)


@st.composite
def block_systems(draw):
    """(ncols, rows): a block-diagonal system of {col: int} rows, columns and rows shuffled.

    Each block has 1-4 columns and up to one row more than columns, so
    blocks of full rank and dependent rows both occur; coefficients reach
    10**6 and some are explicit zeros.
    """
    coeff = st.one_of(st.just(0), st.integers(-(10**6), 10**6))
    block = st.integers(1, 4).flatmap(
        lambda c: st.lists(st.lists(coeff, min_size=c, max_size=c), min_size=1, max_size=c + 1)
    )
    blocks = draw(st.lists(block, min_size=1, max_size=4))
    ncols = sum(len(b[0]) for b in blocks)
    perm = draw(st.permutations(range(ncols)))
    rows, start = [], 0
    for b in blocks:
        rows.extend({perm[start + j]: x for j, x in enumerate(r)} for r in b)
        start += len(b[0])
    return ncols, draw(st.permutations(rows))


@st.composite
def preimage_problems(draw):
    """(n, maps, target vectors): up to three n x n grids, half their entries zero, and a spanning list in Q^n."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.just(F(0)), small_frac)
    maps = draw(st.lists(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n), max_size=3))
    return n, maps, draw(st.lists(st.lists(small_frac, min_size=n, max_size=n), max_size=n))


@st.composite
def dependent_systems(draw):
    """(ncols, rows): a tall integer system of rank k < ncols as {col: int} rows, shuffled.

    Every row is an integer combination of k staircase base rows, with
    coefficients up to 10**6, and there are more rows than columns, so
    most rows lie in the span of the rows before them.
    """
    ncols = draw(st.integers(2, 7))
    k = draw(st.integers(1, ncols - 1))
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    base = [[int(c == i) if c <= i else draw(entry) for c in range(ncols)] for i in range(k)]
    coeff = st.integers(-(10**6), 10**6)
    nrows = draw(st.integers(ncols + 1, 2 * ncols + 2))
    combos = draw(st.lists(st.lists(coeff, min_size=k, max_size=k), min_size=nrows, max_size=nrows))
    perm = draw(st.permutations(range(ncols)))
    rows = []
    for cs in combos:
        row = [sum(a * b[c] for a, b in zip(cs, base)) for c in range(ncols)]
        rows.append({perm[c]: x for c, x in enumerate(row) if x})
    return ncols, draw(st.permutations(rows))


@st.composite
def solve_systems(draw):
    """(ambient, grid, rows, rhs): up to six rows in Q^ambient, ambient 0-5, and their rhs.

    The grid's entries are mostly zero or all drawn freely, and each row
    goes to ``solve`` dense or as a {col: value} dict of its nonzeros.  The
    rhs is the grid times a drawn x, so the system is consistent; or it is
    drawn freely, with the first row repeated at another rhs in half of
    those draws, so the system may be, or is, inconsistent.
    """
    ambient = draw(st.integers(0, 5))
    entry = draw(st.sampled_from([st.one_of(st.just(F(0)), st.just(F(0)), small_frac), small_frac]))
    grid = draw(st.lists(st.lists(entry, min_size=ambient, max_size=ambient), max_size=6))
    if draw(st.booleans()):
        x = draw(st.lists(small_frac, min_size=ambient, max_size=ambient))
        rhs = [sum((a * b for a, b in zip(row, x)), F(0)) for row in grid]
    else:
        rhs = draw(st.lists(small_frac, min_size=len(grid), max_size=len(grid)))
        if grid and draw(st.booleans()):
            grid, rhs = [*grid, grid[0]], [*rhs, rhs[0] + 1]
    rows = [{c: x for c, x in enumerate(row) if x} if draw(st.booleans()) else tuple(row) for row in grid]
    return ambient, grid, rows, rhs


class TestProperties:
    @given(solve_systems())
    def test_solve_is_the_particular_solution_of_the_augmented_gauss_jordan(self, system):
        # None iff a pivot lands in the rhs column; otherwise x_p is the rhs
        # entry of pivot p's row, and every free variable is zero
        ambient, grid, rows, rhs = system
        reduced, pivots = gauss_jordan([[*row, b] for row, b in zip(grid, rhs)])
        x = [F(0)] * ambient
        for r, p in enumerate(pivots):
            if p < ambient:
                x[p] = reduced[r][ambient]
        assert solve(ambient, rows, rhs) == (None if ambient in pivots else tuple(x))

    @given(matrices())
    def test_rref_idempotent(self, m):
        assert Subspace(m.cols, rref_rows(m)).basis == rref_rows(m)

    @given(matrices())
    def test_rank_nullity_and_exactness(self, m):
        ker = kernel_of_rows(m.cols, rows_of(m))
        rank = sum(1 for row in rref_rows(m) if any(x != 0 for x in row))
        assert ker.dim + rank == m.cols
        for v in ker.basis:
            assert all(x == 0 for x in m.matvec(v))

    @given(subspaces(4), subspaces(4))
    def test_modular_dimension_identity(self, u, v):
        assert u.sum(v).dim == u.dim + v.dim - u.intersect(v).dim

    @given(subspaces(4), subspaces(4))
    def test_sum_contains_both(self, u, v):
        s = u.sum(v)
        assert s.contains(u) and s.contains(v)
        i = u.intersect(v)
        assert u.contains(i) and v.contains(i)

    @given(subspaces(4))
    def test_intersect_with_zero_and_full(self, u):
        zero, full = Subspace.zero(4), Subspace.full(4)
        assert u.intersect(zero) == zero.intersect(u) == zero
        assert u.intersect(full) == full.intersect(u) == u

    @given(membership_cases())
    def test_membership_matches_rank_oracle(self, case):
        # v is in the span iff adding it leaves the rank of the spanning set unchanged.
        vectors, v = case
        s = Subspace(4, vectors)
        member = len(row_space_basis(vectors + [v])) == len(row_space_basis(vectors))
        coeffs = s.coefficients_of(v)
        assert s.contains_vector(v) == member == (coeffs is not None)
        if member:
            assert combination(coeffs, s.basis, 4) == tuple(v)

    @given(matrices())
    def test_kernel_of_rows_matches_dense_kernel(self, m):
        # The integer echelon against the independent Fraction Gauss-Jordan.
        oracle = kernel_basis(rows_of(m), m.cols)
        assert kernel_of_rows(m.cols, list(rows_of(m))).basis == oracle
        assert kernel_of_rows(m.cols, rows_of(m)).basis == oracle
        assert rref_rows(m) == row_space_basis(rows_of(m))

    @given(block_systems())
    def test_kernel_of_rows_matches_dense_kernel_on_block_systems(self, system):
        # Independent blocks under shuffled columns, against the Fraction
        # Gauss-Jordan; int rows and the equal Fraction rows agree.
        ncols, rows = system
        dense = [[F(r.get(c, 0)) for c in range(ncols)] for r in rows]
        ker = kernel_of_rows(ncols, rows)
        assert ker.basis == kernel_basis(dense, ncols)
        assert Subspace(ncols, dense).basis == row_space_basis(dense)
        assert kernel_of_rows(ncols, [{c: F(x) for c, x in r.items()} for r in rows]) == ker
        assert kernel_of_rows(ncols, dense) == ker

    @given(dependent_systems())
    def test_echelon_stays_reduced_on_dependent_systems(self, system):
        # After every insert each pivot row is primitive, positive at its
        # pivot, which is its greatest column, and holds no other pivot column.
        ncols, rows = system
        dense = [[F(r.get(c, 0)) for c in range(ncols)] for r in rows]
        assert kernel_of_rows(ncols, rows).basis == kernel_basis(dense, ncols)
        ech = _IntEchelon()
        for row in rows:
            if row:
                ech.insert(dict(row))
            for p, prow in ech.rows.items():
                assert max(prow) == p and prow[p] > 0 and gcd(*prow.values()) == 1
                assert not ech.rows.keys() & (prow.keys() - {p})

    @given(dependent_systems())
    def test_kernel_vectors_are_the_primitive_free_column_basis(self, system):
        # one int vector per free column f, ascending: positive at f, zero at
        # the other free columns, primitive, and every row vanishes on it
        ncols, rows = system
        ech = _echelon(rows, ncols)
        vectors = ech.kernel_vectors(ncols)
        free = [f for f in range(ncols) if f not in ech.rows]
        assert len(vectors) == len(free) == ncols - len(ech.rows)
        for f, v in zip(free, vectors):
            assert v[f] > 0 and not v.keys() & (set(free) - {f}) and gcd(*v.values()) == 1
            assert all(type(x) is int for x in v.values())
            assert not any(row_values([row.items() for row in rows], [v.get(c, 0) for c in range(ncols)]))

    @given(dependent_systems(), st.data())
    def test_rows_fed_again_at_any_scale_leave_the_echelon_as_it_was(self, system, data):
        # every row a second time, times a nonzero int of either sign: each
        # repeat reduces to nothing in insert, with no record of past rows,
        # add leaves the rows it was given as they were, and it reports
        # whether a row raised the rank
        ncols, rows = system
        given_rows = [dict(row) for row in rows]
        scales = data.draw(st.lists(st.integers(-(10**6), 10**6).filter(bool), min_size=len(rows), max_size=len(rows)))
        again = [{c: s * x for c, x in row.items()} for s, row in zip(scales, rows)]
        ech = _IntEchelon()
        for row in rows:
            rank = len(ech.rows)
            assert ech.add(row) is (len(ech.rows) > rank)
        first = {p: dict(prow) for p, prow in ech.rows.items()}
        assert [ech.add(row) for row in again] == [False] * len(again)
        assert ech.rows == first
        assert rows == given_rows
        assert kernel_of_rows(ncols, rows + again) == kernel_of_rows(ncols, rows)

    @given(matrices())
    def test_solve_consistency(self, m):
        x = solve(m.cols, rows_of(m), m.matvec((F(1),) * m.cols))
        assert x is not None
        assert m.matvec(x) == m.matvec((F(1),) * m.cols)


@st.composite
def kernel_systems(draw):
    """(ambient, rows): up to ambient + 2 rows over 0-5 columns, dense or sparse, of ints or Fractions.

    Zero rows and explicit zeros occur, and so do no rows at all; with
    the scaled unit rows appended, the system has full rank.
    """
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.just(0), st.integers(-6, 6), small_frac)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n + 2))
    if draw(st.booleans()):
        rows.append([0] * n)
    if draw(st.booleans()):
        rows += [[draw(st.integers(1, 4)) * (i == j) for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        return n, [{c: x for c, x in enumerate(row) if x or draw(st.booleans())} for row in rows]
    return n, rows


@given(kernel_systems())
def test_kernel_of_rows_needs_no_second_elimination(system):
    # the kernel read straight off the echelon is the canonical basis that
    # eliminating its kernel vectors again gives, and the oracle's
    ambient, rows = system
    dense = [[row.get(c, 0) for c in range(ambient)] if isinstance(row, dict) else row for row in rows]
    ker = kernel_of_rows(ambient, rows)
    again = Subspace(ambient, _echelon(rows, ambient).kernel_vectors(ambient))
    assert (ker.basis, ker.pivots) == (again.basis, again.pivots)
    assert ker.basis == kernel_basis(dense, ambient)
    assert all(type(x) is F for v in ker.basis for x in v)


@st.composite
def combinations(draw):
    """(coeffs, vectors, n): up to four vectors in Q^n, some of them zero, and some coefficients zero.

    Entries are ints of either sign, Fractions, and p/q with q in 1, 2, 3,
    4, 6, 12 and p sharing factors with q: the denominators share factors,
    and a scaled entry may cancel.
    """
    n = draw(st.integers(0, 5))
    unreduced = st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 12)))
    entry = st.one_of(st.just(0), st.integers(-9, 9), small_frac, unreduced)
    vector = st.one_of(st.just([0] * n), st.lists(entry, min_size=n, max_size=n))
    k = draw(st.integers(0, 4))
    return draw(st.lists(entry, min_size=k, max_size=k)), draw(st.lists(vector, min_size=k, max_size=k)), n


def test_the_constructor_converts_each_entry_once(monkeypatch):
    calls = []
    real = linalg.rat
    monkeypatch.setattr(linalg, "rat", lambda x: calls.append(x) or real(x))
    m = Matrix(3, 3, (1, 2, 3, 4, 5, 6, 7, 8, 9))
    assert rows_of(m) == ((1, 4, 7), (2, 5, 8), (3, 6, 9))
    assert len(calls) == 9 and all(type(x) is F for x in m.coords)


class TestMatrixStorage:
    """A Matrix is its column-major coordinates: entry c * rows + r is row r of column c."""

    def test_columns_are_slices_and_rows_are_strides(self):
        m = Matrix(2, 3, (1, 2, 3, 4, 5, 6))
        assert [m.col(j) for j in range(3)] == [(1, 2), (3, 4), (5, 6)]
        assert [m.row(i) for i in range(2)] == [(1, 3, 5), (2, 4, 6)]
        assert repr(m) == "Matrix(2x3: 1 3 5; 2 4 6)"

    def test_empty_maps_of_different_heights_differ(self):
        # both hold no coordinates, so only the row count tells them apart
        a, b = Matrix(2, 0, ()), Matrix(3, 0, ())
        assert a != b and hash(a) != hash(b)
        assert a == Matrix.zeros(2, 0) and hash(a) == hash(Matrix.zeros(2, 0))

    @pytest.mark.parametrize("rows, cols, coords", [(2, 2, (1, 2, 3)), (2, 3, (0,) * 5), (0, 2, (1,)), (1, 1, ())])
    def test_a_wrong_number_of_coordinates_is_one_line(self, rows, cols, coords):
        with pytest.raises(DimensionMismatch) as err:
            Matrix(rows, cols, coords)
        assert "\n" not in str(err.value) and f"{rows}x{cols}" in str(err.value)

    @given(matrices())
    def test_rows_and_columns_agree(self, m):
        rows = rows_of(m)
        assert all(m.col(j) == tuple(row[j] for row in rows) for j in range(m.cols))
        assert matrix(rows) == m


class TestCombination:
    @given(combinations(), st.sampled_from((-1, 1)))
    def test_matches_a_double_loop(self, problem, off):
        # the sum is taken in ints over the common denominator D^2 and divided back once
        coeffs, vectors, n = problem
        got = combination(coeffs, vectors, n)
        assert got == plain_combination(coeffs, vectors, n)
        assert all(type(x) is F for x in got)
        # a vector one entry off the length raises, under a zero coefficient too
        with pytest.raises(DimensionMismatch):
            combination([*coeffs, 0], [*vectors, [1] * (n + off) if n + off >= 0 else [1]], n)

    def test_no_vectors_give_fraction_zeros(self):
        got = combination([], [], 3)
        assert got == (0, 0, 0) and all(type(x) is F for x in got)

    def test_int_data_comes_back_as_fractions(self):
        got = combination([2, 0], [(1, 0), (5, 5)], 2)
        assert got == (2, 0) and all(type(x) is F for x in got)

    def test_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            combination([1, 2], [(1, 0)], 2)
        with pytest.raises(ValueError):
            combination([1], [(1, 0), (0, 1)], 2)

    @pytest.mark.parametrize("coeff", [1, 0])
    @pytest.mark.parametrize("vector", [(1,), (1, 2, 3, 4)])
    def test_a_vector_of_another_length_raises(self, coeff, vector):
        # a short vector is not padded with zeros, a long one is not cut, even at coefficient 0
        with pytest.raises(DimensionMismatch):
            combination([coeff], [vector], 3)


entries = st.one_of(st.just(0), st.integers(-5, 5), small_frac)


def grids(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def matrix_products(draw):
    """(a, b, v): a is r x k and b is k x c with r, k, c in 0..3, and v in Q^k; entries ints or Fractions."""
    r, k, c = (draw(st.integers(0, 3)) for _ in range(3))
    a, b = matrix(draw(grids(r, k)), cols=k), matrix(draw(grids(k, c)), cols=c)
    return a, b, draw(st.lists(entries, min_size=k, max_size=k))


_ALGEBRAS = (rationals(), upper_triangular(2), full_matrix(2))


@st.composite
def arithmetic_cases(draw, size):
    """(alg, x, y, c): two lists of size(alg.dim) entries on a small algebra and a scalar, zeros included."""
    alg = draw(st.sampled_from(_ALGEBRAS))
    x, y = (draw(st.lists(entries, min_size=size(alg.dim), max_size=size(alg.dim))) for _ in range(2))
    return alg, x, y, draw(entries)


def _loops(x, y, c):
    """x + y, x - y, -x and c * x, entry by entry, as Fraction lists."""
    add, sub, neg, scaled = [], [], [], []
    for a, b in zip(x, y):
        add.append(F(a) + b)
        sub.append(F(a) - b)
        neg.append(-F(a))
        scaled.append(F(c) * a)
    return add, sub, neg, scaled


def _all_fractions(values):
    return all(type(v) is F for v in values)


class TestArithmeticThroughCombination:
    """Element and operator arithmetic and Matrix application against loops written here."""

    @given(arithmetic_cases(lambda n: n))
    def test_element_arithmetic(self, case):
        alg, x, y, c = case
        ex, ey = AlgebraElement(alg, x), AlgebraElement(alg, y)
        for got, want in zip((ex + ey, ex - ey, -ex, c * ex), _loops(x, y, c)):
            assert got.coords == tuple(want) and _all_fractions(got.coords)
        zero = True
        for a in x:
            if a != 0:
                zero = False
        assert ex.is_zero() == zero

    @given(arithmetic_cases(lambda n: n * n))
    def test_operator_arithmetic(self, case):
        alg, x, y, c = case
        ox, oy = LinearOperator.from_flat(alg, x), LinearOperator.from_flat(alg, y)
        for got, want in zip((ox + oy, ox - oy, F(-1) * ox, c * ox), _loops(x, y, c)):
            assert got.flatten() == tuple(want) and _all_fractions(got.flatten())

    @given(arithmetic_cases(lambda n: n * n), st.lists(entries, min_size=4, max_size=4))
    def test_operator_apply(self, case, v):
        alg, x, _, _ = case
        n = alg.dim
        want = [F(0)] * n
        for j in range(n):
            for i in range(n):
                want[i] += x[j * n + i] * v[j]
        got = LinearOperator.from_flat(alg, x)(AlgebraElement(alg, v[:n]))
        assert got.coords == tuple(want) and _all_fractions(got.coords)

    @given(matrix_products())
    def test_matvec(self, case):
        a, _, v = case
        want = []
        for row in rows_of(a):
            total = F(0)
            for x, y in zip(row, v):
                total += x * y
            want.append(total)
        got = a.matvec(v)
        assert got == tuple(want) and _all_fractions(got)

    @given(matrix_products())
    def test_matmul(self, case):
        a, b, _ = case
        want = [[F(0)] * b.cols for _ in range(a.rows)]
        ra, rb = rows_of(a), rows_of(b)
        for i in range(a.rows):
            for j in range(b.cols):
                for k in range(a.cols):
                    want[i][j] += ra[i][k] * rb[k][j]
        got = a @ b
        assert (got.rows, got.cols) == (a.rows, b.cols)
        assert rows_of(got) == tuple(map(tuple, want)) and _all_fractions(x for row in rows_of(got) for x in row)

    @given(matrix_products())
    def test_is_zero(self, case):
        a, _, _ = case
        zero = True
        for row in rows_of(a):
            for x in row:
                if x != 0:
                    zero = False
        assert a.is_zero() == zero

    def test_matvec_length_is_checked(self):
        with pytest.raises(DimensionMismatch):
            Matrix.zeros(0, 2).matvec((1,))
        with pytest.raises(DimensionMismatch):
            Matrix.zeros(2, 0) @ Matrix.zeros(1, 2)


class TestPreimage:
    @given(preimage_problems())
    def test_matches_stacked_kernel_oracle(self, problem):
        n, maps, target = problem
        got = preimage([columns(m) for m in maps], Subspace(n, target))
        assert got.ambient == n
        assert got.basis == preimage_basis(maps, target, n)

    def test_rejects_a_map_of_another_size(self):
        with pytest.raises(DimensionMismatch):
            preimage([columns([[1, 0, 0], [0, 1, 0]])], Subspace.zero(2))
        with pytest.raises(DimensionMismatch):
            preimage([columns([[1, 0], [0, 1], [1, 1]])], Subspace.zero(2))


class TestKernelOfRows:
    def test_sparse_input_and_dedup(self):
        rows = [{0: F(1), 1: F(1)}, {0: F(2), 1: F(2)}, {}, {2: F(0)}]
        ker = kernel_of_rows(3, rows)
        assert ker == Subspace(3, [(1, -1, 0), (0, 0, 1)])

    def test_no_rows_gives_full(self):
        assert kernel_of_rows(3, []) == Subspace.full(3)

    @pytest.mark.parametrize("row", [(1, 2, 3), (1,), {2: 1}, {0: 1, 5: 1}])
    def test_rejects_a_row_of_another_width(self, row):
        # A dense row must have one entry per column and a sparse row may
        # only name columns in range(ambient); none of these lives in Q^2.
        with pytest.raises(DimensionMismatch):
            kernel_of_rows(2, [row])


@st.composite
def rows_then_units(draw):
    """(ncols, rows): sparse int rows over up to 8 columns, then unit rows {c: 1} at increasing columns c.

    A unit row whose column some pivot row holds but none leads is a new
    lead that must be eliminated from the pivot rows already there.
    """
    ncols = draw(st.integers(1, 8))
    row = st.dictionaries(st.integers(0, ncols - 1), st.integers(-1000, 1000).filter(bool), max_size=ncols)
    rows = draw(st.lists(row, max_size=ncols + 2))
    return ncols, rows + [{c: 1} for c in sorted(draw(st.sets(st.integers(0, ncols - 1))))]


def _primitive_form(row: list[F]) -> dict[int, int]:
    """A rational row with a positive lead as the primitive int row {col: value} over its nonzeros."""
    d = lcm(*(x.denominator for x in row))
    ints = {c: int(x * d) for c, x in enumerate(row) if x}
    g = gcd(*ints.values())
    return {c: x // g for c, x in ints.items()}


@given(rows_then_units())
def test_echelon_rows_are_the_primitive_gauss_jordan_rows_after_every_insert(system):
    # each pivot row is the oracle's rref row over the reversed columns,
    # where a greatest column leads, scaled to primitive ints, and so zero
    # at every other pivot, however few pivot rows an insert looks through
    ncols, rows = system
    last = ncols - 1
    ech = _IntEchelon()
    for t, row in enumerate(rows):
        ech.add(row)
        reduced, pivots = gauss_jordan([[F(r.get(last - c, 0)) for c in range(ncols)] for r in rows[: t + 1]])
        assert sorted(ech.rows) == sorted(last - p for p in pivots)
        for p, want in zip(pivots, reduced):
            assert ech.rows[last - p] == {last - c: x for c, x in _primitive_form(want).items()}
            assert not ech.rows[last - p].keys() & ({last - q for q in pivots} - {last - p})


def test_insert_costs_one_elimination_per_pivot_column(monkeypatch):
    """Each insert eliminates once per pivot column its row holds, plus once per pivot row holding its new lead.

    Every row of every T3 LTD tuple in a seeded integer basis, mirrored
    tuples too, goes into one echelon: dense rows, most of them
    dependent; reducing by leading pivot only would walk a chain about
    twice as long as the row has nonzeros.  The rows are dense, so ``add``
    settles none of them on unit pivots: all 1,080 reach ``insert``.
    """
    eliminate, insert = linalg._eliminate, _IntEchelon.insert
    calls = [0]
    costs = []

    def counting_eliminate(*args):
        calls[0] += 1
        return eliminate(*args)

    def checked_insert(self, row):
        held = sum(c in self.rows for c in row)
        before = {p: set(r) for p, r in self.rows.items()}
        start = calls[0]
        raised = insert(self, row)
        new_leads = self.rows.keys() - before
        back = sum(lead in r for lead in new_leads for r in before.values())
        costs.append((calls[0] - start, held + back))
        return raised

    monkeypatch.setattr(linalg, "_eliminate", counting_eliminate)
    monkeypatch.setattr(_IntEchelon, "insert", checked_insert)
    t3 = rebased(upper_triangular(3), unit_diagonal_basis(random.Random(0), 6))
    ech = _IntEchelon()
    ltd = IdentityKind.LIE_TRIPLE_DERIVATION
    for _tag, w, terms in _constraint_tuples(t3, ltd, _tags(t3.dim, *_FORMS[ltd], True)):
        for row in _tuple_rows(t3.dim, w, terms):
            ech.add(row)
    assert len(costs) > 100
    assert [c for c in costs if c[0] > c[1]] == []


def test_rebased_t3_solves_cost_at_most_three_quarters_of_the_least_column_eliminations(cold_cache, monkeypatch):
    """The seeded rebased T3 LTD and LTC solves make at most 0.75x the eliminations of least-column pivots.

    The T3 basis is the one of ``test_insert_costs_one_elimination_per_pivot_column``,
    and the cache is cleared.  With each row's least column as its pivot
    (and a second elimination of the kernel vectors), the LTD solve made
    1,280 eliminations and the LTC solve 898; with its greatest column,
    773 and 603.
    """
    calls = [0]
    eliminate = linalg._eliminate

    def counting_eliminate(*args):
        calls[0] += 1
        return eliminate(*args)

    monkeypatch.setattr(linalg, "_eliminate", counting_eliminate)
    t3 = rebased(upper_triangular(3), unit_diagonal_basis(random.Random(0), 6))
    for kind, least_column, dim in [
        (IdentityKind.LIE_TRIPLE_DERIVATION, 1280, 8),
        (IdentityKind.LIE_TRIPLE_CENTRALIZER, 898, 4),
    ]:
        calls[0] = 0
        assert solve_identity_space(t3, kind).dim == dim
        assert calls[0] <= 0.75 * least_column, kind


class InsertingEchelon:
    """The reference echelon, with no unit pivots: every nonempty row is copied and sent through ``insert``."""

    def __init__(self):
        self.rows, self._held = {}, set()

    def add(self, row):
        return bool(row) and self.insert(dict(row))

    def insert(self, row):
        rows = self.rows
        for p in [c for c in row if c in rows]:
            row = linalg._eliminate(row, rows[p], p)
        if not row:
            return False
        lead = max(row)
        row = linalg._primitive(row, lead)
        if lead in self._held:
            for p, prow in rows.items():
                if lead in prow:
                    rows[p] = linalg._primitive(linalg._eliminate(prow, row, lead), p)
        self._held.update(row)
        rows[lead] = row
        return True


@st.composite
def unit_heavy_rows(draw):
    """Sparse int rows over up to 8 columns, most of them one-entry rows, repeats or scaled repeats; empty rows too."""
    ncols = draw(st.integers(1, 8))
    col, entry = st.integers(0, ncols - 1), st.integers(-50, 50).filter(bool)
    one_entry = st.builds(lambda c, x: {c: x}, col, entry)
    fresh = st.one_of(one_entry, one_entry, st.dictionaries(col, entry, max_size=ncols))  # two in three have one entry
    rows = []
    for _ in range(draw(st.integers(0, 3 * ncols))):
        if rows and draw(st.booleans()):  # a repeat, at scale 1 in two of five
            scale = draw(st.sampled_from([1, 1, -1, 2, -3]))
            rows.append({c: scale * x for c, x in draw(st.sampled_from(rows)).items()})
        else:
            rows.append(draw(fresh))
    return rows


@given(unit_heavy_rows())
def test_rows_decided_on_unit_pivots_leave_the_echelon_of_insert_alone(rows):
    # after every add: the same verdict, pivot rows (in dict order, and
    # each row's entries in order) and held columns as the reference, the
    # row given unchanged, and _units exactly the pivots whose row is {p: 1}
    ech, ref = _IntEchelon(), InsertingEchelon()
    for row in rows:
        given_row = dict(row)
        assert ech.add(row) is ref.add(row)
        assert row == given_row
        assert [(p, list(r.items())) for p, r in ech.rows.items()] == [(p, list(r.items())) for p, r in ref.rows.items()]
        assert ech._held == ref._held
        assert ech._units == {p for p, r in ech.rows.items() if r == {p: 1}}


_DIFFERENTIAL_ALGEBRAS = {
    "T3": lambda: upper_triangular_gma(3),
    "T4": lambda: upper_triangular_gma(4),
    "M3": lambda: full_matrix_gma(3),
    "example_1_2": lambda: example_1_2().gma,
}


def _cold_spaces(cold_cache, cases):
    """The solution space of each (algebra, kind) in cases, each solved with nothing cached."""
    spaces = []
    for build, kind in cases:
        cold_cache()
        spaces.append(solve_identity_space(build(), kind))
    return spaces


def test_unit_pivots_change_no_solution_space(cold_cache, monkeypatch):
    """Every kind on T3, T4, M3 and example 1.2 (their GMAs), and M4 LTC and LTD, solve to the same ``Subspace``
    when ``add`` sends every nonempty row through ``insert``."""
    cases = [(build, kind) for build in _DIFFERENTIAL_ALGEBRAS.values() for kind in IdentityKind]
    cases += [(lambda: full_matrix(4), IdentityKind.LIE_TRIPLE_CENTRALIZER), (lambda: full_matrix(4), IdentityKind.LIE_TRIPLE_DERIVATION)]
    decided = _cold_spaces(cold_cache, cases)
    monkeypatch.setattr(_IntEchelon, "add", InsertingEchelon.add)
    assert decided == _cold_spaces(cold_cache, cases)


@pytest.mark.parametrize(
    "build, kind, inserts, eliminations",
    [
        (lambda: full_matrix(4), IdentityKind.LIE_TRIPLE_CENTRALIZER, 1339, 1391),
        (lambda: upper_triangular(4), IdentityKind.LIE_TRIPLE_CENTRALIZER, 384, 342),
    ],
    ids=["M4-ltc", "T4-ltc"],
)
def test_unit_pivots_cut_the_inserts_and_eliminations_of_a_cold_solve_to_a_quarter(cold_cache, monkeypatch, build, kind, inserts, eliminations):
    """A cold M4 or T4 LTC solve makes at most 0.25x the inserts and eliminations it made with every row inserted.

    With every nonempty row sent through ``insert``, M4 LTC made 1,339
    inserts and 1,391 eliminations, and T4 LTC 384 and 342.  With rows
    decided on unit pivots in ``add``, they make 133 and 247, and 56 and 72.
    """
    calls = {"insert": 0, "eliminate": 0}
    insert, eliminate = _IntEchelon.insert, linalg._eliminate

    def counting_insert(self, row):
        calls["insert"] += 1
        return insert(self, row)

    def counting_eliminate(*args):
        calls["eliminate"] += 1
        return eliminate(*args)

    monkeypatch.setattr(_IntEchelon, "insert", counting_insert)
    monkeypatch.setattr(linalg, "_eliminate", counting_eliminate)
    solve_identity_space(build(), kind)
    assert calls["insert"] <= 0.25 * inserts and calls["eliminate"] <= 0.25 * eliminations, calls


def tensors_with_operands():
    """(t, x, y, out_dim) with t of shape len(x) x len(y) x out_dim, dims 0..3."""
    def draw(dims):
        a, b, c = dims
        vector = lambda n: st.lists(small_frac, min_size=n, max_size=n).map(tuple)
        tensor = st.lists(st.lists(vector(c), min_size=b, max_size=b), min_size=a, max_size=a)
        return st.tuples(tensor, vector(a), vector(b), st.just(c))

    return st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)).flatmap(draw)


def held_product(sp, y_dim, out_dim):
    """x, y -> the sum of x_i y_j t_ijk e_k over the nonzeros ``tensor_entries`` reads off a held tensor t.

    Vectors whose lengths disagree with the held shape (len(sp) planes,
    y_dim rows) raise DimensionMismatch.
    """
    entries = linalg.tensor_entries(sp)

    def product(x, y):
        if len(x) != len(sp) or len(y) != y_dim:
            raise DimensionMismatch(f"a product of Q^{len(sp)} x Q^{y_dim} given vectors of length {len(x)}, {len(y)}")
        out = [F(0)] * out_dim
        for (i, j, k), v in entries.items():
            out[k] += x[i] * y[j] * v
        return tuple(out)

    return product


@given(tensors_with_operands())
def test_contract_matches_dense_triple_loop(case):
    # the held form of a drawn grid, applied through its nonzeros, is the grid's triple loop
    t, x, y, out_dim = case
    shape = (len(x), len(y), out_dim)
    held = checked_tensor(shape, linalg.grid_nonzeros(t, shape, "t"), "t")
    assert held_product(held, len(y), out_dim)(x, y) == dense_contract(t, x, y, out_dim)


@st.composite
def shapes_with_entries(draw):
    """(shape, {(i, j, k): value}) with dims 0..3; values may be zero, ints or Fractions."""
    shape = draw(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)))
    if not all(shape):
        return shape, {}
    cells = st.tuples(*(st.integers(0, d - 1) for d in shape))
    return shape, draw(st.dictionaries(cells, st.one_of(st.just(0), st.integers(-3, 3), small_frac), max_size=10))


@given(shapes_with_entries())
def test_grid_nonzeros_reads_back_the_nonzeros_dense_tensor_writes(case):
    shape, entries = case
    t = linalg.dense_tensor(shape, entries)
    read = linalg.grid_nonzeros(t, shape, "t")
    assert read == {cell: x for cell, x in entries.items() if x != 0}
    assert all(type(x) is F for plane in t for row in plane for x in row)
    # every cell outside the entries holds the one shared zero
    unset = [
        x for i, plane in enumerate(t) for j, row in enumerate(plane) for k, x in enumerate(row) if (i, j, k) not in entries
    ]
    assert not any(unset) and all(x is unset[0] for x in unset)


@given(shapes_with_entries())
def test_a_held_tensor_keeps_exactly_the_nonzeros(case):
    shape, entries = case
    held = checked_tensor(shape, entries, "t")
    assert linalg.tensor_entries(held) == {cell: F(x) for cell, x in entries.items() if x != 0}
    assert all(type(x) is F for plane in held for row in plane for _, x in row)
    # each row lists its columns in increasing order
    assert all([k for k, _ in row] == sorted(k for k, _ in row) for plane in held for row in plane)


@given(tensors_with_operands())
def test_dense_tensor_of_a_tables_nonzeros_rebuilds_it(case):
    t, x, y, out_dim = case
    shape = (len(x), len(y), out_dim)
    rebuilt = linalg.dense_tensor(shape, linalg.grid_nonzeros(t, shape, "t"))
    assert rebuilt == [[list(row) for row in plane] for plane in t]


def _refused_unbuilt(build) -> None:
    """build() raises the cap's ValueError with less than 64 KiB traced."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="tensor is too large to build$"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_dense_tensor_refuses_an_oversized_shape_before_allocating():
    cap = linalg.MAX_TENSOR_ENTRIES
    assert cap == 2**22 and 161**3 <= cap < 162**3
    assert len(linalg.dense_tensor((1, 1, cap), {})[0][0]) == cap
    for shape in ((1, 1, cap + 1), (162, 162, 162), (10**9, 10**9, 10**9)):
        _refused_unbuilt(lambda: linalg.dense_tensor(shape, {}))


@pytest.mark.parametrize("shape", [(1, 1, 2**22 + 1), (162, 162, 162), (10**9, 10**9, 10**9)])
def test_checked_tensor_refuses_an_oversized_shape_before_allocating(shape):
    _refused_unbuilt(lambda: checked_tensor(shape, {(0, 0, 0): 1}, "t"))


def test_each_constructor_refuses_an_oversized_shape_before_allocating():
    # zeta spans dim M * dim N * dim A entries, no more than M's left or N's right action, and psi
    # likewise: a pairing within the cap only follows bimodules within it, so only these two can overflow
    _refused_unbuilt(lambda: StructureConstants(162, {(0, 0, 0): 1}))
    _refused_unbuilt(lambda: Bimodule(2049, 1, 1, {}, {}))


def _tensor_builders():
    """(name, shape, build) for each tensor a constructor checks, the others given no nonzeros.

    A = Q and B = T2, with M of dim 2 and N of dim 1: every action and
    pairing is zero, and no two of the three axes of a shape agree by accident.
    """
    a, b = rationals(), upper_triangular(2)
    m = Bimodule(2, 1, 3, {}, {})
    n = Bimodule(1, 3, 1, {}, {})
    return [
        ("structure", (2, 2, 2), lambda t: StructureConstants(2, t)),
        ("left action", (1, 2, 2), lambda t: Bimodule(2, 1, 3, t, {})),
        ("right action", (2, 3, 2), lambda t: Bimodule(2, 1, 3, {}, t)),
        ("zeta", (2, 1, 1), lambda t: MoritaContext(a, b, m, n, t, {})),
        ("psi", (1, 2, 3), lambda t: MoritaContext(a, b, m, n, {}, t)),
    ]


@pytest.mark.parametrize(
    "what, shape, build", _tensor_builders(), ids=["structure", "left-action", "right-action", "zeta", "psi"]
)
def test_each_structure_tensor_names_itself_and_its_shape(what, shape, build):
    # an explicit zero at the last cell is dropped; a nonzero one step past it on any axis is refused
    build({tuple(d - 1 for d in shape): 0})
    for axis in range(3):
        wrong = tuple(d - 1 + (i == axis) for i, d in enumerate(shape))
        with pytest.raises(DimensionMismatch) as exc:
            build({wrong: 1})
        assert str(exc.value) == f"{what} tensor must be {' x '.join(map(str, shape))}"
    with pytest.raises(DimensionMismatch):
        build({(0, -1, 0): 1})


def test_echelon_hands_its_rows_to_add_as_nonzero_ints(monkeypatch):
    """Every row reaches ``_IntEchelon.add`` as nonzero ints: a system is scaled once, from its first row holding a Fraction on."""
    add, received = _IntEchelon.add, []

    def recording_add(self, row):
        received.append(row)
        return add(self, row)

    monkeypatch.setattr(_IntEchelon, "add", recording_add)
    rows = [(F(1, 2), F(0), F(-3, 4)), (F(2), F(4), F(0)), (F(0), F(0), F(0)), (F(2, 3), F(1), F(1, 6))]
    assert Subspace(3, rows).dim == 3
    assert kernel_of_rows(3, [{0: F(1, 3), 2: F(0)}, {1: F(5, 2), 2: F(-1)}]).dim == 1
    x = solve(3, rows[:2], [F(1, 5), F(2)])
    assert kernel_of_rows(3, rows[:2]).dim == 1 and (x[0] / 2 - 3 * x[2] / 4, 2 * x[0] + 4 * x[1]) == (F(1, 5), F(2))
    # int rows go in as they come; the rows from the first Fraction on are scaled together
    mixed = [(1, 0, -3), {1: F(5, 2), 2: 1}, (2, 0, -6)]
    assert kernel_of_rows(3, mixed).basis == ((F(1), F(-2, 15), F(1, 3)),)
    maps = [[(0, ((1, F(1, 2)),)), (2, ((0, F(-2, 3)),))]]
    assert preimage(maps, Subspace(3, [(F(1), F(1, 7), F(0))])).dim == 2
    assert len(received) > 10
    assert [row for row in received if not all(type(v) is int and v for v in row.values())] == []


def test_int_systems_skip_clearing_denominators(monkeypatch):
    def fail(*_):
        raise AssertionError("an int system was rebuilt")

    monkeypatch.setattr(linalg, "clear_denominators", fail)
    assert kernel_of_rows(3, [(1, 0, -3), {1: 2, 2: 0}]).basis == ((F(1), F(0), F(1, 3)),)


def _block_products():
    """Every block product, named, with its raw tensor and operand dims.

    Each action and pairing is ``held_product`` on the tensor the bimodule
    or context holds, read through ``tensor_entries``; the algebra product
    is ``mul_coords``.
    """
    q = rationals()
    tri = triangular_context(q, scalar_bimodule(), q)
    zero = Bimodule.zero(2, 1)
    t2 = upper_triangular(2)
    m2 = full_matrix(2)
    reg = Bimodule.regular(m2)
    full = MoritaContext(m2, m2, reg, reg, linalg.tensor_entries(m2._sparse), linalg.tensor_entries(m2._sparse))
    grids = {"tri": context_grids(tri), "full": context_grids(full)}
    return {
        "zero.act_left": (held_product(zero._left, 0, 0), [[]] * 2, 2, 0, 0),
        "zero.act_right": (held_product(zero._right, 1, 0), [], 0, 1, 0),
        "tri.pair_mn": (held_product(tri._zeta, 0, 1), grids["tri"]["zeta"], 1, 0, 1),
        "tri.pair_nm": (held_product(tri._psi, 1, 1), grids["tri"]["psi"], 0, 1, 1),
        "tri.M.act_left": (held_product(tri.M._left, 1, 1), grids["tri"]["M.left"], 1, 1, 1),
        "tri.M.act_right": (held_product(tri.M._right, 1, 1), grids["tri"]["M.right"], 1, 1, 1),
        "tri.N.act_left": (held_product(tri.N._left, 0, 0), grids["tri"]["N.left"], 1, 0, 0),
        "tri.N.act_right": (held_product(tri.N._right, 1, 0), grids["tri"]["N.right"], 0, 1, 0),
        "full.pair_mn": (held_product(full._zeta, 4, 4), grids["full"]["zeta"], 4, 4, 4),
        "full.pair_nm": (held_product(full._psi, 4, 4), grids["full"]["psi"], 4, 4, 4),
        "full.M.act_left": (held_product(full.M._left, 4, 4), grids["full"]["M.left"], 4, 4, 4),
        "full.M.act_right": (held_product(full.M._right, 4, 4), grids["full"]["M.right"], 4, 4, 4),
        "t2.mul_coords": (t2.mul_coords, t2.table, 3, 3, 3),
    }


@pytest.mark.parametrize("name", sorted(_block_products()))
@given(data=st.data())
def test_block_products_match_dense_triple_loop(name, data):
    product, t, dx, dy, out_dim = _block_products()[name]
    x = data.draw(st.lists(small_frac, min_size=dx, max_size=dx))
    y = data.draw(st.lists(small_frac, min_size=dy, max_size=dy))
    assert product(x, y) == dense_contract(t, x, y, out_dim)


def _wrong_lengths(d):
    """Vectors of length other than d: one entry short (when d > 0), and one long with a zero or a one appended."""
    return ([(F(1),) * (d - 1)] if d else []) + [(F(1),) * d + (F(0),), (F(1),) * d + (F(1),)]


@pytest.mark.parametrize("name", sorted(_block_products()))
def test_block_products_reject_vectors_of_the_wrong_length(name):
    product, _, dx, dy, _ = _block_products()[name]
    for x in _wrong_lengths(dx):
        with pytest.raises(DimensionMismatch):
            product(x, (F(1),) * dy)
    for y in _wrong_lengths(dy):
        with pytest.raises(DimensionMismatch):
            product((F(1),) * dx, y)


@pytest.mark.parametrize("coords", _wrong_lengths(4))
def test_multiplication_operator_rejects_coordinates_of_the_wrong_length(coords):
    with pytest.raises(DimensionMismatch):
        multiplication_operator(full_matrix(2), coords)
