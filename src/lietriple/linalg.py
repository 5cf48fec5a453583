"""Exact linear algebra over the rationals.

All arithmetic uses ``fractions.Fraction``; nothing here ever rounds.
Subspaces carry a canonical reduced-row-echelon basis, so two equal
subspaces compare equal grid-by-grid and test output is reproducible.

Each exact primitive is written once.  ``_echelon`` is the only row
elimination: it brings each row to primitive integer form, drops
duplicates, eliminates the rest fraction-free over the integers and
turns the result into the unique reduced row-echelon form at the end.
``Subspace``, ``kernel``, ``kernel_of_rows``, ``solve`` and ``rref`` all
go through it.  ``contract`` is the only bilinear product: it applies a
structure tensor, held in the sparse form ``sparse_tensor`` builds, to
a pair of coordinate vectors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence


from .errors import DimensionMismatch, Inconsistent


Vector = tuple[Fraction, ...]


def rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs: Iterable) -> Vector:
    return tuple(rat(x) for x in xs)


def zero_vec(n: int) -> Vector:
    return (Fraction(0),) * n


def unit_vec(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c, v: Sequence[Fraction]) -> Vector:
    c = rat(c)
    return tuple(c * a for a in v)


def vec_dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def is_zero_vec(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)


# t[i][j] as the pairs (k, t[i][j][k]) with a nonzero coefficient
SparseTensor = tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]


def sparse_tensor(t) -> SparseTensor:
    return tuple(
        tuple(tuple((k, x) for k, x in enumerate(row) if x != 0) for row in plane)
        for plane in t
    )


def contract(sp: SparseTensor, x: Sequence[Fraction], y: Sequence[Fraction], out_dim: int) -> Vector:
    """sum over i, j, k of x_i y_j t[i][j][k] e_k, for sp = sparse_tensor(t)."""
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
        cols = [vec(c) for c in cols_data]
        if not cols:
            raise DimensionMismatch("from_cols needs at least one column")
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise DimensionMismatch("ragged columns")
        return cls([tuple(c[i] for c in cols) for i in range(n)], cols=len(cols))

    def col(self, j: int) -> Vector:
        return tuple(row[j] for row in self.data)

    def matvec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch(f"matvec: {self.cols} cols vs vector of length {len(v)}")
        return tuple(vec_dot(row, v) for row in self.data)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"matmul: {self.cols} != {other.rows}")
        ot = tuple(zip(*other.data)) if other.data else ()
        return Matrix(
            [tuple(vec_dot(row, col) for col in ot) for row in self.data],
            cols=other.cols,
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            [vec_add(r, s) for r, s in zip(self.data, other.data)], cols=self.cols
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            [vec_sub(r, s) for r, s in zip(self.data, other.data)], cols=self.cols
        )

    def __neg__(self) -> "Matrix":
        return Matrix([vec_scale(-1, r) for r in self.data], cols=self.cols)

    def scale(self, c) -> "Matrix":
        return Matrix([vec_scale(c, r) for r in self.data], cols=self.cols)

    def is_zero(self) -> bool:
        return all(is_zero_vec(r) for r in self.data)

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

    def _same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape mismatch")


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------

SparseRow = tuple[tuple[int, int], ...]  # ((col, integer coeff), ...) sorted


def _normalize_sparse(items: Iterable[tuple[int, Fraction]]) -> SparseRow:
    """Primitive integer form: cleared denominators, gcd 1, leading > 0."""
    entries = sorted((c, x) for c, x in items if x != 0)
    if not entries:
        return ()
    mult = lcm(*(x.denominator for _, x in entries))
    ints = [(c, x.numerator * (mult // x.denominator)) for c, x in entries]
    g = gcd(*(abs(v) for _, v in ints))
    if ints[0][1] < 0:
        g = -g
    return tuple((c, v // g) for c, v in ints)


def _primitive(row: list[int], lead: int) -> list[int]:
    """row divided by the gcd of its entries, signed so row[lead] > 0."""
    g = gcd(*row)
    if row[lead] < 0:
        g = -g
    return [v // g for v in row]


class _IntEchelon:
    """Exact row echelon over Z (representing a Q row space)."""

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows: list[list[int]] = []
        self.pivot_of_row: list[int] = []
        self.row_of_pivot: dict[int, int] = {}

    def insert(self, sparse: SparseRow) -> None:
        """Add a nonzero primitive row; a row already in the span adds nothing."""
        row = [0] * self.ambient
        for c, v in sparse:
            row[c] = v
        lead = sparse[0][0]
        while lead is not None and lead in self.row_of_pivot:
            piv = self.rows[self.row_of_pivot[lead]]
            a, b = piv[lead], row[lead]
            g = gcd(a, b)
            fa, fb = a // g, b // g
            row = [fa * x - fb * y for x, y in zip(row, piv)]
            lead = next((j for j in range(lead + 1, self.ambient) if row[j]), None)
        if lead is not None:
            self.row_of_pivot[lead] = len(self.rows)
            self.rows.append(_primitive(row, lead))
            self.pivot_of_row.append(lead)

    def rref_fraction_rows(self) -> tuple[list[list[Fraction]], list[int]]:
        """The unique reduced row-echelon form, in pivot order.

        Back substitution stays fraction-free, one row at a time from the
        bottom; only the final division by each pivot makes Fractions.
        """
        order = sorted(range(len(self.rows)), key=lambda i: self.pivot_of_row[i])
        rows = [self.rows[i] for i in order]
        pivots = [self.pivot_of_row[i] for i in order]
        for r in range(len(rows) - 2, -1, -1):
            row = rows[r]
            for s in range(r + 1, len(rows)):
                b = row[pivots[s]]
                if b:
                    below = rows[s]
                    a = below[pivots[s]]
                    g = gcd(a, b)
                    fa, fb = a // g, b // g
                    row = [fa * x - fb * y for x, y in zip(row, below)]
            rows[r] = _primitive(row, pivots[r])
        zero = Fraction(0)
        return [
            [Fraction(v, row[p]) if v else zero for v in row]
            for row, p in zip(rows, pivots)
        ], pivots


def _echelon(ambient: int, rows: Iterable[Mapping[int, Fraction] | Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row-echelon basis of the span of rows, with its pivots.

    Rows may be sparse mappings {col: value} or dense sequences.  Zero
    and duplicate rows are dropped before the integer echelon sees them.
    """
    ech = _IntEchelon(ambient)
    seen: set[SparseRow] = set()
    for row in rows:
        items = row.items() if isinstance(row, Mapping) else enumerate(row)
        sparse = _normalize_sparse((c, rat(x)) for c, x in items)
        if sparse and sparse not in seen:
            seen.add(sparse)
            ech.insert(sparse)
    return ech.rref_fraction_rows()


def _kernel_from_rref(rows: list[list[Fraction]], pivots: list[int], ncols: int) -> list[Vector]:
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def kernel_of_rows(ambient: int, rows: Iterable[Mapping[int, Fraction] | Sequence[Fraction]]) -> Subspace:
    """Exact kernel of a stack of constraint rows; no rows give Q^ambient.

    Rows may be sparse mappings {col: value} or dense sequences.
    """
    rr, piv = _echelon(ambient, rows)
    return Subspace(ambient, _kernel_from_rref(rr, piv, ambient))


def kernel(m: Matrix) -> Subspace:
    """{v : m v = 0} with its canonical echelon basis."""
    return kernel_of_rows(m.cols, m.data)


def rref(m: Matrix) -> Matrix:
    """Unique reduced row-echelon form; same shape, row space preserved."""
    rows, _ = _echelon(m.cols, m.data)
    return Matrix(rows + [zero_vec(m.cols)] * (m.rows - len(rows)), cols=m.cols)


def solve(m: Matrix, rhs: Sequence[Fraction]) -> tuple[Vector, "Subspace"]:
    """Solve m x = rhs exactly.

    Returns the echelon particular solution (free variables zero) and the
    homogeneous kernel; raises Inconsistent when no solution exists.
    """
    if len(rhs) != m.rows:
        raise DimensionMismatch(f"rhs length {len(rhs)} vs {m.rows} rows")
    n = m.cols
    rows, pivots = _echelon(n + 1, [row + (rat(b),) for row, b in zip(m.data, rhs)])
    if pivots and pivots[-1] == n:
        raise Inconsistent("no solution")
    particular = [Fraction(0)] * n
    for row, p in zip(rows, pivots):
        particular[p] = row[n]
    return tuple(particular), Subspace(n, _kernel_from_rref(rows, pivots, n))


def try_solve(m: Matrix, rhs: Sequence[Fraction]):
    """Like solve, but None instead of raising on inconsistency."""
    try:
        return solve(m, rhs)
    except Inconsistent:
        return None


class Subspace:
    """A subspace of Q^n with a canonical reduced-echelon basis.

    The constructor canonicalizes, so equal subspaces have identical
    basis grids and ``==`` is grid equality.
    """

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient: int, vectors: Iterable[Sequence] = ()):
        rows = [vec(v) for v in vectors]
        for r in rows:
            if len(r) != ambient:
                raise DimensionMismatch(f"vector of length {len(r)} in ambient {ambient}")
        reduced, pivots = _echelon(ambient, rows)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", tuple(map(tuple, reduced)))
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

    def reduce(self, v: Sequence[Fraction]) -> Vector:
        """Residual of v after elimination against the echelon basis."""
        w = list(vec(v))
        if len(w) != self.ambient:
            raise DimensionMismatch("vector/ambient mismatch")
        for row, p in zip(self.basis, self.pivots):
            if w[p] != 0:
                f = w[p]
                w = [x - f * y for x, y in zip(w, row)]
        return tuple(w)

    def contains_vector(self, v: Sequence[Fraction]) -> bool:
        return is_zero_vec(self.reduce(v))

    def coefficients_of(self, v: Sequence[Fraction]) -> Vector | None:
        """Coefficients of v in the canonical basis, or None if outside."""
        w = list(vec(v))
        coeffs = []
        for row, p in zip(self.basis, self.pivots):
            f = w[p]
            coeffs.append(f)
            if f != 0:
                w = [x - f * y for x, y in zip(w, row)]
        return tuple(coeffs) if is_zero_vec(w) else None

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
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient)
        if self.is_full():
            return other
        if other.is_full():
            return self
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
