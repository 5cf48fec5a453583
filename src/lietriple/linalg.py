"""Exact linear algebra over the rationals.

Values are ``fractions.Fraction`` or plain ints; nothing here ever
rounds.  Subspaces carry a canonical reduced-row-echelon basis, so two
equal subspaces compare equal grid-by-grid and test output is
reproducible.

Each exact primitive is written once.  ``_IntEchelon`` is the only row
elimination, and its ``add`` the only way in: it brings each row to
primitive integer form, drops zero and duplicate rows and eliminates the
rest fraction-free over the integers on sparse ``{col: int}`` rows,
keeping the echelon reduced on every insert, so a row costs one
elimination per pivot column it holds.  A Fraction is made only at the
final division of each row by its pivot entry.  Rows of ints go in as
they are.  A row holding a Fraction is first scaled by
``clear_denominators``, the one helper that clears denominators; callers
that know a common denominator for a whole table (the structure
constants, the basis forms) use it once per table and hand over int
rows.  ``Subspace``, ``kernel_of_rows`` and ``solve`` fill one echelon
through ``_echelon``, which rejects a row outside the ambient; the
identity solver of ``centralizers`` fills one row by row and reads its
kernel as it goes.  ``solve`` returns None for an inconsistent system.
Membership is read off the canonical basis without eliminating again: a
member's coefficients are its entries at the pivots, and
``Subspace.coefficients_of`` checks them through ``combination``.
``preimage`` is the one statement of "x maps into a subspace", a
``kernel_of_rows`` over maps given as sparse columns.  ``row_values`` is
the only evaluation of sparse rows on a vector, which ``int_flats``
scales to ints.  ``contract`` is the only bilinear product:
it applies a structure tensor, held in the sparse form ``sparse_tensor``
builds, to a pair of coordinate vectors.  ``combination`` is the only
linear combination, the sum of c * v over coefficients and vectors; it
skips zero coefficients and zero entries, so sparse data costs only its
nonzeros.  ``Matrix`` holds data and has no arithmetic of its own: it
applies to a vector, or to another matrix row by row, through
``combination``, and operators are added and scaled as
``algebra.LinearOperator``s, whose arithmetic is ``combination`` too.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


from .errors import DimensionMismatch


Vector = tuple[Fraction, ...]


def rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs: Iterable) -> Vector:
    return tuple(rat(x) for x in xs)


def zero_vec(n: int) -> Vector:
    return (Fraction(0),) * n


def unit_vec(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def combination(coeffs: Sequence, vectors: Sequence[Sequence], n: int) -> Vector:
    """The sum of c * v in Q^n over the pairs (c, v), as Fractions; zero coefficients and entries are skipped."""
    out = [Fraction(0)] * n
    for c, v in zip(coeffs, vectors, strict=True):
        if c:
            for i, x in enumerate(v):
                if x:
                    out[i] += c * x
    return tuple(out)


# t[i][j] as the pairs (k, t[i][j][k]) with a nonzero coefficient
SparseTensor = tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]


def sparse_tensor(t) -> SparseTensor:
    return tuple(
        tuple(tuple((k, x) for k, x in enumerate(row) if x != 0) for row in plane)
        for plane in t
    )


def contract(sp: SparseTensor, x: Sequence[Fraction], y: Sequence[Fraction], y_dim: int, out_dim: int) -> Vector:
    """sum over i, j, k of x_i y_j t[i][j][k] e_k, for sp = sparse_tensor(t).

    t has one plane per coordinate of x and one row per coordinate of y;
    x must have len(sp) entries and y must have y_dim.
    """
    if len(x) != len(sp) or len(y) != y_dim:
        raise DimensionMismatch(f"a product of Q^{len(sp)} x Q^{y_dim} given vectors of length {len(x)}, {len(y)}")
    out = [Fraction(0)] * out_dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        plane = sp[i]
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            f = xi * yj
            for k, c in plane[j]:
                out[k] += f * c
    return tuple(out)


class Matrix:
    """Immutable dense matrix of Fractions, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_data: Iterable[Iterable], cols: int | None = None):
        data = tuple(vec(row) for row in rows_data)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise DimensionMismatch("ragged rows")
            if cols is not None and cols != width:
                raise DimensionMismatch("explicit cols disagrees with row width")
            cols = width
        elif cols is None:
            raise DimensionMismatch("empty matrix needs an explicit column count")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([unit_vec(n, i) for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([zero_vec(cols) for _ in range(rows)], cols=cols)

    @classmethod
    def from_cols(cls, cols_data: Sequence[Sequence]) -> "Matrix":
        cols = list(cols_data)
        if not cols:
            raise DimensionMismatch("from_cols needs at least one column")
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise DimensionMismatch("ragged columns")
        return cls(zip(*cols), cols=len(cols))

    def col(self, j: int) -> Vector:
        return tuple(row[j] for row in self.data)

    def matvec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch(f"matvec: {self.cols} cols vs vector of length {len(v)}")
        return combination(v, [self.col(j) for j in range(self.cols)], self.rows)

    # No caller inside the package; kept as Matrix API (benchmarks/tracer.py wraps it by name).
    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"matmul: {self.cols} != {other.rows}")
        return Matrix([combination(row, other.data, other.cols) for row in self.data], cols=other.cols)

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.cols, self.data))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------

SparseRow = tuple[tuple[int, int], ...]  # ((col, integer coeff), ...) sorted


def clear_denominators(rows: Iterable[Iterable[tuple]]) -> tuple[int, list[list[tuple]]]:
    """(D, the rows times D) for rows of (key, value) pairs.

    D is the least common denominator of every value in every row, so
    each scaled value is an int; int values pass through with D = 1.
    """
    rows = [list(row) for row in rows]
    d = lcm(*(x.denominator for row in rows for _, x in row))
    return d, [[(c, x.numerator * (d // x.denominator)) for c, x in row] for row in rows]


def int_flats(*vectors: Sequence) -> list[dict[int, int]]:
    """The vectors times the common denominator of all their entries, as {index: int}."""
    return [dict(v) for v in clear_denominators(enumerate(v) for v in vectors)[1]]


def row_values(rows: Iterable[dict], flat) -> list:
    """The value of each sparse row {k: c} on a flat vector: the sum of c * flat[k]."""
    return [sum(c * flat[k] for k, c in row.items()) for row in rows]


class _IntEchelon:
    """Exact row echelon over Z (representing a Q row space), kept reduced on insert.

    Each pivot row is a sparse {col: int} dict, primitive with a positive
    entry at its pivot, the least column it holds, and zero at every
    other pivot column.  ``add`` is the one way in: it normalises a row
    and drops it if it is zero or was added before.
    """

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}  # pivot -> its row
        self._seen: set[SparseRow] = set()

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, row: dict | Sequence) -> None:
        """Insert a row in primitive integer form, unless it is zero or a repeat.

        A row is a sparse dict {col: value} holding nonzero values only,
        or a dense sequence, of ints or Fractions.  A row holding a
        Fraction is scaled to ints first.
        """
        if isinstance(row, dict):
            entries, values = sorted(row.items()), row.values()
        else:
            entries = [(c, x) for c, x in enumerate(row) if x]
            values = [x for _, x in entries]
        if not entries:
            return
        try:
            g = gcd(*values)
        except TypeError:  # gcd takes ints only: the row holds a Fraction
            _, (entries,) = clear_denominators([entries])
            g = gcd(*(x for _, x in entries))
        if entries[0][1] < 0:
            g = -g
        sparse = tuple(entries) if g == 1 else tuple((c, x // g) for c, x in entries)
        if sparse not in self._seen:
            self._seen.add(sparse)
            self.insert(dict(sparse))

    def insert(self, row: dict[int, int]) -> None:
        """Add a nonzero row, reducing it in place; a row in the span adds nothing.

        One elimination per pivot column the row holds, as a pivot row is
        zero at the other pivots; a surviving row's lead is then
        eliminated from the pivot rows that hold it.
        """
        rows = self.rows
        for p in [c for c in row if c in rows]:
            row = _eliminate(row, rows[p], p)
        if not row:
            return
        lead = min(row)
        row = _primitive(row, lead)
        for p, prow in rows.items():
            if lead in prow:
                rows[p] = _primitive(_eliminate(prow, row, lead), p)
        rows[lead] = row

    def rref_fraction_rows(self) -> tuple[list[dict[int, Fraction]], list[int]]:
        """The unique rref as sparse rows, in pivot order; only dividing by each pivot makes Fractions."""
        rows = self.rows
        pivots = sorted(rows)
        return [{c: Fraction(x, rows[p][p]) for c, x in rows[p].items()} for p in pivots], pivots

    def kernel(self, ambient: int) -> "Subspace":
        """{x in Q^ambient : every row added so far vanishes on x}."""
        return Subspace(ambient, _kernel_from_rref(*self.rref_fraction_rows(), ambient))


def _eliminate(row: dict[int, int], piv: dict[int, int], col: int) -> dict[int, int]:
    """fa * row - fb * piv with fa, fb coprime, so the col entry cancels.

    Touches only the nonzeros of piv (and of row when fa != 1); entries
    that cancel are dropped.  May update row in place.
    """
    a, b = piv[col], row[col]
    g = gcd(a, b)
    fa, fb = a // g, b // g
    if fa != 1:
        row = {c: fa * x for c, x in row.items()}
    for c, y in piv.items():
        x = row.get(c, 0) - fb * y
        if x:
            row[c] = x
        else:
            del row[c]
    return row


def _primitive(row: dict[int, int], lead: int) -> dict[int, int]:
    """row divided by the gcd of its entries, signed so row[lead] > 0."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return row if g == 1 else {c: x // g for c, x in row.items()}


def _echelon(rows: Iterable[dict | Sequence], ambient: int) -> _IntEchelon:
    """The echelon of rows in Q^ambient: sparse dicts {col: value}, zeros allowed, or dense sequences.

    Rejects a dense row of another length, and a sparse column outside
    range(ambient), which is nonzero in the echelon iff in some row.
    """
    ech = _IntEchelon()
    for row in rows:
        if isinstance(row, dict):
            if 0 in row.values():
                row = {c: x for c, x in row.items() if x}
        elif len(row) != ambient:
            raise DimensionMismatch(f"a row of {len(row)} entries in a system of {ambient} columns")
        ech.add(row)
    if ech.rows and (min(ech.rows) < 0 or max(max(r) for r in ech.rows.values()) >= ambient):
        raise DimensionMismatch(f"a row with a column outside range({ambient})")
    return ech


_ZERO = Fraction(0)


def _dense(row: dict[int, Fraction], n: int) -> Vector:
    out = [_ZERO] * n
    for c, x in row.items():
        out[c] = x
    return tuple(out)


def _kernel_from_rref(rows: list[dict[int, Fraction]], pivots: list[int], ncols: int) -> list[Vector]:
    pivot_set = set(pivots)
    free = {f: [_ZERO] * ncols for f in range(ncols) if f not in pivot_set}
    for f, v in free.items():
        v[f] = Fraction(1)
    for row, p in zip(rows, pivots):
        for c, x in row.items():
            if c in free:
                free[c][p] = -x
    return [tuple(v) for v in free.values()]


def kernel_of_rows(ambient: int, rows: Iterable[dict | Sequence]) -> Subspace:
    """Exact kernel of a stack of constraint rows; no rows give Q^ambient.

    Rows may be sparse dicts {col: value} or dense sequences, of ints or
    Fractions.
    """
    return _echelon(rows, ambient).kernel(ambient)


def preimage(maps: Iterable[Sequence[tuple[int, Iterable[tuple]]]], target: Subspace) -> Subspace:
    """{x : m x in target for every m}, for maps m of Q^n where n is target's ambient.

    A map is given by its nonzero columns (j, ((l, value), ...)), meaning
    m e_j = sum of value * e_l.  The answer is the kernel of the rows f m,
    over the maps m and the annihilator basis f of target, scaled once to
    ints: entry j of f m is the sum of f_l * value over column j.
    """
    n = target.ambient
    ann = int_flats(*target.annihilator().basis)
    rows = []
    for m in maps:
        if not all(0 <= k < n for j, col in m for k in (j, *(l for l, _ in col))):
            raise DimensionMismatch(f"preimage: a map with an index outside range({n})")
        rows.extend({j: sum(f.get(l, 0) * x for l, x in col) for j, col in m} for f in ann)
    return kernel_of_rows(n, rows)


def solve(ambient: int, rows: Sequence[dict | Sequence], rhs: Sequence) -> tuple[Vector, "Subspace"] | None:
    """Solve row . x = b exactly for x in Q^ambient, over the rows and their rhs entries b.

    Rows are in any form ``kernel_of_rows`` takes.  Returns the echelon
    particular solution (free variables zero) and the homogeneous kernel,
    or None when no solution exists.
    """
    if len(rhs) != len(rows):
        raise DimensionMismatch(f"rhs length {len(rhs)} vs {len(rows)} rows")
    if any(isinstance(row, dict) and ambient in row for row in rows):
        raise DimensionMismatch(f"a row with a column outside range({ambient})")
    augmented = ({**row, ambient: b} if isinstance(row, dict) else (*row, b) for row, b in zip(rows, rhs))
    reduced, pivots = _echelon(augmented, ambient + 1).rref_fraction_rows()
    if pivots and pivots[-1] == ambient:
        return None
    particular = [_ZERO] * ambient
    for row, p in zip(reduced, pivots):
        particular[p] = row.get(ambient, _ZERO)
    return tuple(particular), Subspace(ambient, _kernel_from_rref(reduced, pivots, ambient))


class Subspace:
    """A subspace of Q^n with a canonical reduced-echelon basis.

    The constructor canonicalizes, so equal subspaces have identical
    basis grids and ``==`` is grid equality.
    """

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient: int, vectors: Iterable[Sequence] = ()):
        reduced, pivots = _echelon(vectors, ambient).rref_fraction_rows()
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", tuple(_dense(row, ambient) for row in reduced))
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, *_):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient)

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, [unit_vec(ambient, i) for i in range(ambient)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return self.dim == self.ambient

    def contains_vector(self, v: Sequence[Fraction]) -> bool:
        return self.coefficients_of(v) is not None

    def coefficients_of(self, v: Sequence[Fraction]) -> Vector | None:
        """Coefficients of v in the canonical basis, or None if outside.

        A member's coefficients are its entries at the pivots, since each
        basis vector is 1 at its own pivot and 0 at the others; v is a
        member iff that combination gives v back.
        """
        if len(v) != self.ambient:
            raise DimensionMismatch(f"a vector of length {len(v)} in Q^{self.ambient}")
        coeffs = tuple(rat(v[p]) for p in self.pivots)
        return coeffs if combination(coeffs, self.basis, self.ambient) == tuple(v) else None

    def contains(self, other: "Subspace") -> bool:
        self._same_ambient(other)
        return all(self.contains_vector(v) for v in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        return Subspace(self.ambient, self.basis + other.basis)

    def annihilator(self) -> "Subspace":
        """{f : f . u = 0 for all u here} under the coordinate pairing."""
        return kernel_of_rows(self.ambient, self.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        dual = self.annihilator().basis + other.annihilator().basis
        return kernel_of_rows(self.ambient, dual)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient})"

    def _same_ambient(self, other: "Subspace") -> None:
        if self.ambient != other.ambient:
            raise DimensionMismatch(f"ambient {self.ambient} vs {other.ambient}")
