"""Exact linear algebra over the rationals.

Values are ``fractions.Fraction`` or plain ints; nothing here ever
rounds.  Subspaces carry a canonical reduced-row-echelon basis, so two
equal subspaces compare equal grid-by-grid and test output is
reproducible.

Each exact primitive is written once.  ``_IntEchelon`` is the only row
elimination, and its ``add`` the only way in: it settles a sparse
``{col: int}`` row its unit pivot rows span, and a one-entry row at a
new column, with no elimination, and eliminates any other
fraction-free, keeping the echelon reduced, each pivot row primitive,
on every insert; a dependent row, a repeat included, reduces to
nothing, and ``add`` returns whether the row raised the rank.  A row's
pivot is its greatest column, so the kernel vector of a free column f holds
only f and pivots above f, and a kernel is read off the echelon with no
second elimination; a Fraction is made only at the final division of a
row by its pivot entry.
``clear_denominators`` is the one helper that clears denominators, once
per system or table.  ``Subspace``, ``kernel_of_rows`` and ``solve``
fill one echelon through ``_echelon``; the identity solver of
``centralizers`` fills one row by row.  ``Subspace`` and ``solve``
number columns from the end (``_mirrored``), so their echelon pivots on
least columns: ``Subspace`` reads its canonical basis off the pivot
rows, and ``solve`` sees an inconsistent system as a pivot at its
right-hand side, column 0, and reads its particular solution off the
pivot rows' entries there.  A member's coefficients are its entries at
the pivots, which ``Subspace.coefficients_of`` checks through
``combination``, the only linear combination; it skips zeros, so sparse
data costs only its nonzeros, and sums ints, its data scaled once per
call.  ``preimage`` is the one statement of "x maps into a subspace",
and ``row_values`` the only evaluation of sparse rows, held as (column,
value) pairs, on a vector.  A tensor is given as its nonzeros ``{(i,
j, k): value}`` and held in the sparse form of ``checked_tensor``, the
one check of its shape and of ``MAX_TENSOR_ENTRIES``; the algebra
product applies the structure table scaled to ints.  Dense grids appear
only where a tensor is written out in full: ``dense_tensor`` lays one
out for ``StructureConstants.table``, and ``grid_nonzeros`` reads a
document's grid back.  ``Matrix`` is a rectangular map, a corner of a
block form or a change of basis, held as an operator on an algebra is:
its column-major coordinates, entry c * rows + r being row r of column
c, so a column is a slice; ``matvec`` applies it through ``combination``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence


from .errors import DimensionMismatch
from .record import Frozen


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
    """The sum of c * v in Q^n over the pairs (c, v), each v of n entries, as Fractions; zeros are skipped.

    The nonzero coefficients and the entries of their vectors are scaled
    once by their common denominator D and summed as ints; a Fraction is
    made only for a nonzero entry of the sum, which is over D^2.
    """
    terms = []
    for c, v in zip(coeffs, vectors, strict=True):
        if len(v) != n:
            raise DimensionMismatch(f"a vector of length {len(v)} in a combination in Q^{n}")
        if c:
            terms.append(((-1, c), *((i, x) for i, x in enumerate(v) if x)))  # the coefficient keyed -1
    d, scaled = clear_denominators(terms)
    out = [0] * n
    for (_, c), *v in scaled:
        for i, x in v:
            out[i] += c * x
    return _over(out, d * d)


def _over(ints: Iterable[int], d: int) -> Vector:
    """Each int divided by d, as Fractions; the shared zero for each 0."""
    return tuple([Fraction(x, d) if x else _ZERO for x in ints])


# a tensor's held form: t[i][j] as the pairs (k, t[i][j][k]) with a nonzero coefficient, k increasing
SparseTensor = tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]


# the most entries a tensor may span: a structure table of dim 161 at most
MAX_TENSOR_ENTRIES = 2**22


def _refuse_oversized(shape: tuple[int, int, int]) -> None:
    a, b, c = shape
    if a * b * c > MAX_TENSOR_ENTRIES:
        raise ValueError(f"a {a} x {b} x {c} tensor is too large to build")


def checked_tensor(shape: tuple[int, int, int], nonzeros: Mapping[tuple[int, int, int], object], what: str) -> SparseTensor:
    """The held form of the a x b x c tensor with these nonzeros {(i, j, k): value}, zeros dropped; ``what`` names it.

    ValueError past the cap, before anything of size a * b * c is made; DimensionMismatch off the shape.
    """
    _refuse_oversized(shape)
    a, b, c = shape
    rows = [[[] for _ in range(b)] for _ in range(a)]
    for (i, j, k), x in sorted(nonzeros.items()):
        if not (0 <= i < a and 0 <= j < b and 0 <= k < c):
            raise DimensionMismatch(f"{what} tensor must be {a} x {b} x {c}")
        x = rat(x)
        if x:
            rows[i][j].append((k, x))
    return tuple(tuple(map(tuple, plane)) for plane in rows)


def tensor_entries(sp: SparseTensor) -> dict[tuple[int, int, int], Fraction]:
    """The nonzeros {(i, j, k): value} of a held tensor, the input form of ``checked_tensor``."""
    return {(i, j, k): x for i, plane in enumerate(sp) for j, row in enumerate(plane) for k, x in row}


def dense_tensor(shape: tuple[int, int, int], nonzeros: Mapping[tuple[int, int, int], object]) -> list:
    """The a x b x c grid of Fractions with nonzeros at their (i, j, k), one shared zero elsewhere; ValueError past the cap."""
    _refuse_oversized(shape)
    a, b, c = shape
    t = [[[_ZERO] * c for _ in range(b)] for _ in range(a)]
    for (i, j, k), x in nonzeros.items():
        t[i][j][k] = rat(x)
    return t


def grid_nonzeros(t, shape: tuple[int, int, int], what: str) -> dict[tuple[int, int, int], Fraction]:
    """The nonzeros {(i, j, k): value} of a grid t of the given shape a x b x c; ``what`` names it."""
    a, b, c = shape
    if len(t) != a or any(len(plane) != b or any(len(row) != c for row in plane) for plane in t):
        raise DimensionMismatch(f"{what} tensor must be {a} x {b} x {c}")
    return {(i, j, k): x for i, plane in enumerate(t) for j, row in enumerate(plane) for k, x in enumerate(row) if x != 0}


class Matrix(Frozen):
    """Immutable matrix of Fractions, held as its column-major coordinates: entry c * rows + r is row r of column c."""

    __slots__ = ("rows", "cols", "coords")

    def __init__(self, rows: int, cols: int, coords: Iterable):
        coords = vec(coords)
        if len(coords) != rows * cols:
            raise DimensionMismatch(f"a {rows}x{cols} matrix has {rows * cols} coordinates, not {len(coords)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "coords", coords)

    def __reduce__(self):
        return Matrix, (self.rows, self.cols, self.coords)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, zero_vec(rows * cols))

    def col(self, j: int) -> Vector:
        return self.coords[j * self.rows : (j + 1) * self.rows]

    def row(self, i: int) -> Vector:
        return self.coords[i :: self.rows]

    def matvec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch(f"matvec: {self.cols} cols vs vector of length {len(v)}")
        return combination(v, [self.col(j) for j in range(self.cols)], self.rows)

    # No caller inside the package; kept only for benchmarks/tracer.py, which
    # wraps it by name, until ROADMAP item 1 or 8.
    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"matmul: {self.cols} != {other.rows}")
        cols = [self.col(k) for k in range(self.cols)]
        return Matrix(self.rows, other.cols, [x for j in range(other.cols) for x in combination(other.col(j), cols, self.rows)])

    def is_zero(self) -> bool:
        return not any(self.coords)

    def _key(self):
        return (self.rows, self.cols, self.coords)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------

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


def row_values(rows: Iterable[Iterable[tuple]], flat) -> list:
    """The value of each sparse row, pairs (k, c), on a flat vector: the sum of c * flat[k]."""
    return [sum(c * flat[k] for k, c in row) for row in rows]


class _IntEchelon:
    """Exact row echelon over Z (representing a Q row space), kept reduced on insert.

    Each pivot row is a sparse {col: int} dict, primitive with a positive
    entry at its pivot, the greatest column it holds, and zero at every
    other pivot column.  ``add`` is the one way in and takes rows at any
    scale, repeats included: ``insert`` reduces a dependent row to nothing
    and brings a survivor to primitive form, so no record of past rows is
    kept.  ``_held`` holds every column a pivot row has ever held, a
    superset of the columns they hold now, since eliminating by a row
    brings in only its columns; a new lead outside it is in no pivot row.
    ``_units`` holds the pivots p whose row is {p: 1}.  Such a row never
    changes again, as a new lead is no pivot and a unit row holds no
    other column, so ``_units`` only grows.

    A pivot row holds only its pivot and free columns below it, so the
    kernel vector of a free column f holds only f and pivots above f: it
    is zero at every other free column and least at f, which makes the
    kernel vectors the canonical basis of the kernel up to scale.
    """

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}  # pivot -> its row
        self._held: set[int] = set()
        self._units: set[int] = set()

    def add(self, row: dict[int, int]) -> bool:
        """Insert a copy of a sparse row {col: int} of nonzero ints: True iff it raised the rank.

        A row the unit pivots span, an empty one too, is settled with no
        copy, and a one-entry row at a column c that is no pivot becomes
        {c: 1}, as in ``insert``, with no elimination.
        """
        if self._units.issuperset(row):
            return False
        if len(row) == 1 and (c := next(iter(row))) not in self.rows:
            self._back_substitute(c, {c: 1})
            return True
        return self.insert(dict(row))

    def insert(self, row: dict[int, int]) -> bool:
        """Add a nonzero row, reducing it in place; a row in the span adds nothing and returns False, any other True.

        One elimination per pivot column the row holds, as a pivot row is
        zero at the other pivots; a surviving row's lead, its greatest
        column, is then eliminated from the pivot rows that hold it, which
        are looked for only when the lead is in ``_held``.
        """
        rows = self.rows
        for p in [c for c in row if c in rows]:
            row = _eliminate(row, rows[p], p)
        if not row:
            return False
        lead = max(row)
        self._back_substitute(lead, _primitive(row, lead))
        return True

    def _back_substitute(self, lead: int, row: dict[int, int]) -> None:
        """Eliminate a new primitive pivot row's lead from the pivot rows that hold it, place the row, and note unit rows."""
        rows, units = self.rows, self._units
        if lead in self._held:
            for p, prow in rows.items():
                if lead in prow:
                    rows[p] = prow = _primitive(_eliminate(prow, row, lead), p)
                    if len(prow) == 1:
                        units.add(p)
        self._held.update(row)
        rows[lead] = row
        if len(row) == 1:
            units.add(lead)

    def _free_columns(self, ambient: int) -> dict[int, dict[int, int]]:
        """{f: {p: row p at f}} over the free columns f in range(ambient), ascending, and the pivots p whose row holds f.

        Every such p is above f, since a pivot row's pivot is its greatest column.
        """
        rows = self.rows
        free = {f: {} for f in range(ambient) if f not in rows}
        for p, row in rows.items():
            for c, x in row.items():
                if c != p:
                    free[c][p] = x
        return free

    def kernel_vectors(self, ambient: int) -> list[dict[int, int]]:
        """A basis of the kernel in Z^ambient as sparse rows, one per free column f, f ascending.

        Row f is 1 at f and -row[f] / row[p] at each pivot p whose row
        holds f, times the least int clearing that.  Every such p is
        above f, so row f is the canonical basis vector of pivot f times
        its entry at f.
        """
        rows = self.rows
        out = []
        for f, held in self._free_columns(ambient).items():
            s = lcm(*(rows[p][p] // gcd(x, rows[p][p]) for p, x in held.items()))
            out.append({f: s, **{p: -x * s // rows[p][p] for p, x in held.items()}})
        return out

    def kernel(self, ambient: int) -> "Subspace":
        """{x in Q^ambient : every row added so far vanishes on x}, with no second elimination.

        The canonical basis vector of pivot f is the kernel vector of free
        column f divided by its entry at f: 1 at f and -row[f] / row[p] at
        each pivot p whose row holds f.
        """
        rows = self.rows
        free = self._free_columns(ambient)
        reduced = [{f: _ONE, **{p: Fraction(-x, rows[p][p]) for p, x in held.items()}} for f, held in free.items()]
        return Subspace._reduced(ambient, reduced, free)


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
    Rows of ints go in as they come; from the first row holding a
    Fraction on, the rest of the system is scaled to ints at once.
    """

    def nonzeros(row) -> dict:
        if isinstance(row, dict):
            return {c: x for c, x in row.items() if x}
        if len(row) != ambient:
            raise DimensionMismatch(f"a row of {len(row)} entries in a system of {ambient} columns")
        return {c: x for c, x in enumerate(row) if x}

    ech = _IntEchelon()
    rows = map(nonzeros, rows)
    for row in rows:
        if all(type(x) is int for x in row.values()):
            ech.add(row)
        else:  # takes every row left, so the loop ends here
            for scaled in clear_denominators(r.items() for r in (row, *rows))[1]:
                ech.add(dict(scaled))
    if ech.rows and (max(ech.rows) >= ambient or min(min(r) for r in ech.rows.values()) < 0):
        raise DimensionMismatch(f"a row with a column outside range({ambient})")
    return ech


def _mirrored(rows: Iterable[dict | Sequence], ambient: int) -> Iterable[dict | Sequence]:
    """The rows with column c numbered ambient - 1 - c: a dense row reversed, a sparse row's keys renumbered.

    A greatest-column pivot of the mirrored rows is a least-column pivot
    of the rows, and a column outside range(ambient) stays outside.
    """
    last = ambient - 1
    for row in rows:
        yield {last - c: x for c, x in row.items()} if isinstance(row, dict) else row[::-1]


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _dense(row: dict[int, Fraction], n: int) -> Vector:
    out = [_ZERO] * n
    for c, x in row.items():
        out[c] = x
    return tuple(out)


def kernel_of_rows(ambient: int, rows: Iterable[dict | Sequence]) -> Subspace:
    """Exact kernel of a stack of constraint rows; no rows give Q^ambient.

    Rows may be sparse dicts {col: value} or dense sequences, of ints or
    Fractions.  The echelon pivots on each row's greatest column, so its
    kernel vectors, one per free column, are the canonical basis up to
    scale and are not eliminated again.
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


def solve(ambient: int, rows: Sequence[dict | Sequence], rhs: Sequence) -> Vector | None:
    """Solve row . x = b exactly for x in Q^ambient, over the rows and their rhs entries b.

    Rows are in any form ``kernel_of_rows`` takes.  Returns the echelon
    particular solution (free variables zero), or None when no solution
    exists; the homogeneous solutions are ``kernel_of_rows`` of the rows.
    """
    if len(rhs) != len(rows):
        raise DimensionMismatch(f"rhs length {len(rhs)} vs {len(rows)} rows")
    if any(isinstance(row, dict) and ambient in row for row in rows):
        raise DimensionMismatch(f"a row with a column outside range({ambient})")
    augmented = ({**row, ambient: b} if isinstance(row, dict) else (*row, b) for row, b in zip(rows, rhs))
    # mirrored, the rhs column is 0 and x_k is column ambient - k: the pivots are those of the rref
    piv = _echelon(_mirrored(augmented, ambient + 1), ambient + 1).rows
    if 0 in piv:  # a row 0 = b with b nonzero
        return None
    # pivot row p = ambient - k reads row[p] * x_k = row[0], the free x_k being zero
    return tuple(Fraction(piv[p].get(0, 0), piv[p][p]) if (p := ambient - k) in piv else _ZERO for k in range(ambient))


class Subspace(Frozen):
    """A subspace of Q^n with a canonical reduced-echelon basis.

    The constructor canonicalizes, so equal subspaces have identical
    basis grids and ``==`` is grid equality.  A basis vector is 1 at its
    pivot, its least column, and 0 at every other pivot.
    """

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient: int, vectors: Iterable[Sequence] = ()):
        # the echelon of the mirrored vectors pivots on their least columns
        last = ambient - 1
        rows = _echelon(_mirrored(vectors, ambient), ambient).rows
        pivots = sorted(rows, reverse=True)
        reduced = [{last - c: Fraction(x, rows[p][p]) for c, x in rows[p].items()} for p in pivots]
        self._fill(ambient, reduced, [last - p for p in pivots])

    @classmethod
    def _reduced(cls, ambient: int, reduced: Iterable[dict[int, Fraction]], pivots: Iterable[int]) -> "Subspace":
        """The subspace with this canonical basis: sparse rows, each 1 at its pivot and 0 at the others, pivots ascending."""
        space = cls.__new__(cls)
        space._fill(ambient, reduced, pivots)
        return space

    def _fill(self, ambient: int, reduced: Iterable[dict[int, Fraction]], pivots: Iterable[int]) -> None:
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", tuple(_dense(row, ambient) for row in reduced))
        object.__setattr__(self, "pivots", tuple(pivots))

    def __reduce__(self):
        return Subspace, (self.ambient, self.basis)

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

    def _key(self):
        return (self.ambient, self.basis)

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient})"

    def _same_ambient(self, other: "Subspace") -> None:
        if self.ambient != other.ambient:
            raise DimensionMismatch(f"ambient {self.ambient} vs {other.ambient}")
