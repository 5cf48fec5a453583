"""Finite-dimensional algebras presented by structure constants.

An algebra is a multiplication tensor ``c[i][j][k]`` over the rationals,
meaning ``e_i * e_j = sum_k c[i][j][k] e_k``, given by its nonzeros
``{(i, j, k): c[i][j][k]}`` and held in sparse form: a dense grid is
written only on reading ``StructureConstants.table``.  Associativity is
checked exhaustively at construction time, so everything downstream may
assume it.  Non-unital algebras are first-class: operations that
genuinely need a unit raise ``NotUnital`` instead of guessing one.
"""

from __future__ import annotations

import functools
import hashlib
import json
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import AlgebraMismatch, DimensionMismatch, NotAssociative, NotUnital
from .linalg import (
    Matrix,
    Subspace,
    checked_tensor,
    clear_denominators,
    combination,
    contract,
    dense_tensor,
    int_flats,
    preimage,
    rat,
    solve,
    tensor_entries,
    unit_vec,
    vec,
    zero_vec,
)
from .record import Frozen

# The package's one cache.  A key starts with the content hash of an
# algebra or of a GMA (the algebra's hash and its block dims), so equal
# ones share entries even when built as separate objects (every CLI
# request builds its own), or with a deterministic catalog spec, so
# ``catalog.resolve`` builds each named algebra once.  It also holds each
# membership verdict of ``is_identity_member``, keyed by the operator's
# exact coordinates, so the verdicts grow with the number of distinct
# operators checked; nothing is evicted.
_CACHE: dict[tuple, object] = {}


def cached(key: tuple, build):
    """``_CACHE[key]``, made by ``build()`` on the first request; a hit hashes the key once."""
    try:
        return _CACHE[key]
    except KeyError:
        pass
    value = _CACHE[key] = build()
    return value


def memoized(fn):
    """Cache ``fn(x, *args)`` under ``(x.content_hash, name, *args)``, for x an algebra or a GMA.

    A call that raises stores nothing, so it raises again on every call.
    """
    name = fn.__qualname__

    @functools.wraps(fn)
    def wrapper(x, *args):
        return cached((x.content_hash, name, *args), lambda: fn(x, *args))

    return wrapper


class StructureConstants(Frozen):
    """An algebra given by its dim and the nonzeros of its multiplication tensor, held with the tensor times D in ints."""

    __slots__ = ("dim", "labels", "content_hash", "_sparse", "_int_table")

    def __init__(self, dim: int, nonzeros, labels: Sequence[str] | None = None):
        n = dim
        if n < 1:
            raise DimensionMismatch("algebra dimension must be at least 1")
        sparse = checked_tensor((n, n, n), nonzeros, "structure")
        labels = tuple(f"e{i}" for i in range(n)) if labels is None else tuple(map(str, labels))
        if len(labels) != n:
            raise DimensionMismatch("label count must equal dim")
        d, rows = clear_denominators(row for plane in sparse for row in plane)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_sparse", sparse)
        object.__setattr__(self, "_int_table", (d, [rows[i * n : (i + 1) * n] for i in range(n)]))
        self._check_associativity()
        object.__setattr__(self, "content_hash", _content_hash(n, labels, sparse))

    @property
    def table(self) -> list:
        """The dense grid c[i][j][k] of Fractions, written afresh from the nonzeros.

        Kept only for ``benchmarks/``, which reads it, until ROADMAP
        item 1 or 8; the package itself works on the held nonzeros.
        """
        return dense_tensor((self.dim,) * 3, tensor_entries(self._sparse))

    def __reduce__(self):
        return StructureConstants, (self.dim, tensor_entries(self._sparse), self.labels)

    def _check_associativity(self) -> None:
        """(e_i e_j) e_k = e_i (e_j e_k) for every basis triple, in ints.

        Both sides are compared on the table scaled by its common
        denominator D; each side then carries D^2, so this is exact.
        Each pair (i, j) is checked on all k at once, on the packed
        z = sum_k 2^(B*k) e_k (Kronecker substitution): coordinate l of
        (e_i e_j) z - e_i (e_j z) is sum_k r_k 2^(B*k), with r_k that
        coordinate at triple (i, j, k).  For m the largest |entry| of the
        scaled table, |r_k| <= 2 n m^2 < 2^(B-1), so these balanced digits
        are unique: the difference is 0 iff every r_k is, and its lowest
        nonzero digit, read off its trailing zero bits, is the first
        failing k.
        """
        n = self.dim
        _, sp = self._int_table
        m = max((abs(x) for plane in sp for row in plane for _, x in row), default=0)
        shift = (2 * n * m * m).bit_length() + 1
        # zr[a][l]: coordinate l of e_a z
        zr = [{} for _ in range(n)]
        for a in range(n):
            for k in range(n):
                for l, x in sp[a][k]:
                    zr[a][l] = zr[a].get(l, 0) + (x << shift * k)
        for i in range(n):
            for j in range(n):
                diff: dict[int, int] = {}
                for a, c in sp[i][j]:
                    for l, y in zr[a].items():
                        diff[l] = diff.get(l, 0) + c * y
                for a, y in zr[j].items():
                    for l, c in sp[i][a]:
                        diff[l] = diff.get(l, 0) - c * y
                if any(diff.values()):
                    low = min((x & -x).bit_length() for x in diff.values() if x)
                    raise NotAssociative(i, j, (low - 1) // shift)

    # -- elements ----------------------------------------------------------

    def element(self, coords: Iterable) -> "AlgebraElement":
        return AlgebraElement(self, coords)

    def basis_element(self, i: int) -> "AlgebraElement":
        return AlgebraElement(self, unit_vec(self.dim, i))

    def basis(self) -> list["AlgebraElement"]:
        return [self.basis_element(i) for i in range(self.dim)]

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, zero_vec(self.dim))

    def mul_coords(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> tuple:
        return contract(self._sparse, x, y, self.dim, self.dim)

    def _key(self):
        return self.content_hash

    def __repr__(self) -> str:
        return f"StructureConstants(dim={self.dim})"


def _content_hash(n: int, labels: tuple[str, ...], sparse) -> str:
    """sha256 of the JSON {"dim", "labels", "table"}, sorted keys, no spaces, the table in full: "0" off the sparse form."""

    zero_row = "[" + ",".join(['"0"'] * n) + "]"

    def row_json(row) -> str:
        if not row:
            return zero_row
        cells = ['"0"'] * n
        for k, x in row:
            cells[k] = f'"{x}"'
        return "[" + ",".join(cells) + "]"

    table = ",".join("[" + ",".join(map(row_json, plane)) + "]" for plane in sparse)
    labels_json = json.dumps(list(labels), separators=(",", ":"))
    payload = f'{{"dim":{n},"labels":{labels_json},"table":[{table}]}}'
    return hashlib.sha256(payload.encode()).hexdigest()


def _same_algebra(a: StructureConstants, b: StructureConstants) -> None:
    if a is not b and a.content_hash != b.content_hash:
        raise AlgebraMismatch("operands live in different algebras")


class AlgebraElement(Frozen):
    """An element of a fixed algebra, stored by basis coordinates."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: StructureConstants, coords: Iterable):
        cs = vec(coords)
        if len(cs) != algebra.dim:
            raise DimensionMismatch(
                f"{len(cs)} coordinates for a dim-{algebra.dim} algebra"
            )
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coords", cs)

    def __reduce__(self):
        return AlgebraElement, (self.algebra, self.coords)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._combine((1, 1), other)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._combine((1, -1), other)

    def __neg__(self) -> "AlgebraElement":
        return self._combine((-1,))

    def __rmul__(self, scalar) -> "AlgebraElement":
        return self._combine((rat(scalar),))

    def _combine(self, coeffs: Sequence, *others: "AlgebraElement") -> "AlgebraElement":
        """The sum of c * x over the coefficients and the elements (self, *others)."""
        for x in others:
            _same_algebra(self.algebra, x.algebra)
        coords = [x.coords for x in (self, *others)]
        return AlgebraElement(self.algebra, combination(coeffs, coords, self.algebra.dim))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_algebra(self.algebra, other.algebra)
        return AlgebraElement(self.algebra, self.algebra.mul_coords(self.coords, other.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def _key(self):
        return (self.algebra.content_hash, self.coords)

    def __repr__(self) -> str:
        labels = self.algebra.labels
        terms = [
            (f"{x}*{labels[i]}" if x != 1 else labels[i])
            for i, x in enumerate(self.coords)
            if x != 0
        ]
        return " + ".join(terms) if terms else "0"


def commutator(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return x * y - y * x


def jordan_product(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return x * y + y * x


def double_commutator(x: AlgebraElement, y: AlgebraElement, z: AlgebraElement) -> AlgebraElement:
    return commutator(commutator(x, y), z)


@memoized
def _unit_coords(alg: StructureConstants) -> tuple | None:
    """Solves u*e_j = e_j = e_j*u for all j, on the products scaled by D.

    Row (side, j, l) is coordinate l of u*e_j (side 0) or e_j*u (side 1), with rhs D * [l == j].
    """
    n = alg.dim
    d, table = basis_tensor(alg, "product")
    rows: dict[tuple, dict] = {(side, j, l): {} for side in (0, 1) for j in range(n) for l in range(n)}
    for (i, j), w in table.items():
        for l, x in w:
            rows[0, j, l][i] = x
            rows[1, i, l][j] = x
    res = solve(n, list(rows.values()), [d * (l == j) for _, j, l in rows])
    return None if res is None else res[0]


def find_unit(alg: StructureConstants) -> AlgebraElement | None:
    """Two-sided unit, or None."""
    coords = _unit_coords(alg)
    return None if coords is None else AlgebraElement(alg, coords)


def require_unit(alg: StructureConstants) -> AlgebraElement:
    u = find_unit(alg)
    if u is None:
        raise NotUnital("algebra has no two-sided unit")
    return u


@memoized
def center(alg: StructureConstants) -> Subspace:
    """The preimage of 0 under every z -> [z, e_i]: the bracket's slot-0 columns."""
    return preimage(_slot_terms(alg, "bracket", 0).values(), Subspace.zero(alg.dim))


def commutant(alg: StructureConstants, s: Subspace) -> Subspace:
    """{a : a x = x a for every x in s}: the preimage of 0 under a -> [a, v] over the basis v of s.

    Column j of a -> [a, v] is the bracket's slot-1 columns at j weighted by v, scaled to ints.
    """
    if s.ambient != alg.dim:
        raise DimensionMismatch("subspace does not live in the algebra")
    ad = _slot_terms(alg, "bracket", 1)
    maps = (
        [(j, _sparse_sum((v[i], w) for i, w in ad.get((j,), ()))) for j in range(alg.dim)]
        for v in int_flats(*s.basis)
    )
    return preimage(maps, Subspace.zero(alg.dim))


def _sparse_sum(terms) -> tuple[tuple[int, int], ...]:
    """The nonzero (coord, value) pairs of sum of c * v over (c, v) in terms, in first-seen coord order."""
    out: dict[int, int] = {}
    for c, v in terms:
        for l, x in v:
            out[l] = out.get(l, 0) + c * x
    # tuple(genexpr) over-allocates and shrinks, and pymalloc keeps the larger block
    return tuple([(l, x) for l, x in out.items() if x])


@memoized
def basis_tensor(alg: StructureConstants, form: str) -> tuple[int, dict[tuple, tuple]]:
    """A basis form as (scale, {(i, j[, k]): ((coord, int value), ...)}).

    ``form`` is ``product`` (e_i e_j), ``bracket`` ([e_i, e_j]),
    ``jordan`` (e_i o e_j) or ``triple`` ([[e_i, e_j], e_k]).  The values
    are ints: the form times its scale, which is the table's common
    denominator D for the three products and D^2 for the triple bracket,
    so a value divided by the scale is the form's rational coordinate.
    Only nonzero values are kept.  Keys run in lexicographic order;
    tuples where the form vanishes are left out.
    """
    n = alg.dim
    if form == "triple":
        d, brackets = basis_tensor(alg, "bracket")
        values = (
            ((i, j, k), _sparse_sum((c, brackets.get((m, k), ())) for m, c in b))
            for (i, j), b in brackets.items()
            for k in range(n)
        )
        return d * d, {key: v for key, v in values if v}
    d, table = alg._int_table
    signs = {"product": (1,), "bracket": (1, -1), "jordan": (1, 1)}[form]
    values = (
        ((i, j), _sparse_sum(zip(signs, (table[i][j], table[j][i]))))
        for i in range(n)
        for j in range(n)
    )
    return d, {key: v for key, v in values if v}


@memoized
def _slot_terms(alg: StructureConstants, form: str, slot: int) -> dict[tuple, list]:
    """The form's nonzero values grouped by the indices outside one slot.

    Maps the other indices to [(l', the form with e_l' in the slot), ...],
    l' increasing.  For a two-slot form, entry (i,) lists the int columns
    of x -> form(e_i, x) (slot 1) or x -> form(x, e_i) (slot 0).
    """
    out: dict[tuple, list] = {}
    for key, w in basis_tensor(alg, form)[1].items():
        out.setdefault(key[:slot] + key[slot + 1 :], []).append((key[slot], w))
    return out


def _tuple_rows(n: int, w, terms) -> list[dict[int, int]]:
    """The nonzero rows of phi(w) = sum of the terms at one basis tuple of a form, holding their nonzero ints only.

    ``w`` is the form at the tuple and a term (p, i, group) a slot's group
    of ``_slot_terms`` with phi(e_i) in that slot, all sparse.  Row l is
    sum_c w_c phi[l, c] - sum over terms of phi[l', i] * v_l,
    with phi[r, c] at unknown c * n + r; the rows are homogeneous, so the
    form's scale drops out.
    """
    rows = [{c * n + l: x for c, x in w} for l in range(n)]
    for _p, i, group in terms:
        for lp, v in group:
            key = i * n + lp
            for l, c in v:
                row = rows[l]
                x = row.get(key, 0) - c
                if x:
                    row[key] = x
                else:
                    del row[key]
    return list(filter(None, rows))


@memoized
def double_commutator_span(alg: StructureConstants) -> Subspace:
    """Span of [[e_i, e_j], e_k] over all basis triples.

    The span does not change under the form's scale, so the int values
    go in as they are, one sparse row per triple.
    """
    return Subspace(alg.dim, map(dict, basis_tensor(alg, "triple")[1].values()))


def largest_central_ideal(alg: StructureConstants) -> Subspace:
    """Largest subspace of the center stable under all basis multiplications.

    Iterates V <- V /\\ {v : v e_i = e_i v in V for all i} from V = Z(alg),
    on the product's slot-0 columns, until the dimension stops falling.
    """
    v = center(alg)
    actions = _slot_terms(alg, "product", 0).values()
    while not v.is_zero():
        nxt = v.intersect(preimage(actions, v))
        if nxt == v:
            break
        v = nxt
    return v


class LinearOperator(Frozen):
    """A linear map on a fixed algebra; column j is the image of e_j."""

    __slots__ = ("algebra", "matrix")

    def __init__(self, algebra: StructureConstants, matrix: Matrix):
        if matrix.rows != algebra.dim or matrix.cols != algebra.dim:
            raise DimensionMismatch("operator matrix must be dim x dim")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "matrix", matrix)

    def __reduce__(self):
        return LinearOperator, (self.algebra, self.matrix)

    @classmethod
    def identity(cls, algebra: StructureConstants) -> "LinearOperator":
        return cls(algebra, Matrix.identity(algebra.dim))

    @classmethod
    def zero(cls, algebra: StructureConstants) -> "LinearOperator":
        return cls(algebra, Matrix.zeros(algebra.dim, algebra.dim))

    @classmethod
    def from_images(cls, algebra: StructureConstants, images: Sequence[AlgebraElement]) -> "LinearOperator":
        if len(images) != algebra.dim:
            raise DimensionMismatch("need one image per basis vector")
        for x in images:
            _same_algebra(algebra, x.algebra)
        return cls(algebra, Matrix.from_cols([x.coords for x in images]))

    @classmethod
    def from_flat(cls, algebra: StructureConstants, flat: Sequence[Fraction]) -> "LinearOperator":
        """Inverse of flatten: column-major coordinates over the basis."""
        n = algebra.dim
        if len(flat) != n * n:
            raise DimensionMismatch("flat vector must have dim^2 entries")
        return cls(algebra, Matrix.from_cols([flat[c * n : (c + 1) * n] for c in range(n)]))

    def flatten(self) -> tuple:
        """Column-major vectorization (the fixed unknown ordering)."""
        return tuple(
            self.matrix.data[r][c]
            for c in range(self.algebra.dim)
            for r in range(self.algebra.dim)
        )

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        _same_algebra(self.algebra, x.algebra)
        return AlgebraElement(self.algebra, self.matrix.matvec(x.coords))

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        return self.apply(x)

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        return self._combine((1, 1), other)

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        return self._combine((1, -1), other)

    def __rmul__(self, scalar) -> "LinearOperator":
        return self._combine((rat(scalar),))

    def _combine(self, coeffs: Sequence, *others: "LinearOperator") -> "LinearOperator":
        """The sum of c * op over the coefficients and the operators (self, *others)."""
        for op in others:
            _same_algebra(self.algebra, op.algebra)
        flats = [op.flatten() for op in (self, *others)]
        return LinearOperator.from_flat(self.algebra, combination(coeffs, flats, self.algebra.dim ** 2))

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def _key(self):
        return (self.algebra.content_hash, self.matrix)

    def __repr__(self) -> str:
        return f"LinearOperator(on dim {self.algebra.dim})"


def multiplication_operator(alg: StructureConstants, coords: Sequence[Fraction]) -> LinearOperator:
    """x -> c * x as an operator (left multiplication by c): column j is c * e_j, the sum of c_i e_i e_j off the held table."""
    n = alg.dim
    if len(coords) != n:
        raise DimensionMismatch(f"{len(coords)} coordinates for a dim-{n} algebra")
    cols = [[Fraction(0)] * n for _ in range(n)]
    for c, plane in zip(coords, alg._sparse):
        if c:
            for col, row in zip(cols, plane):
                for k, x in row:
                    col[k] += c * x
    return LinearOperator(alg, Matrix.from_cols(cols))
