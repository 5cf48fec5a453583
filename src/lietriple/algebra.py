"""Finite-dimensional algebras presented by structure constants.

An algebra is a multiplication tensor ``c[i][j][k]`` over the rationals,
meaning ``e_i * e_j = sum_k c[i][j][k] e_k``.  Associativity is checked
exhaustively at construction time, so everything downstream may assume
it.  Non-unital algebras are first-class: operations that genuinely need
a unit raise ``NotUnital`` instead of guessing one.
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
    _dense,
    clear_denominators,
    combination,
    contract,
    int_flats,
    preimage,
    rat,
    solve,
    sparse_tensor,
    unit_vec,
    vec,
    zero_vec,
)

# The package's one cache.  Keys start with the algebra's content hash,
# so equal algebras share entries even when built as separate objects
# (every CLI request builds its own).
_CACHE: dict[tuple, object] = {}


def memoized(fn):
    """Cache ``fn(alg, *args)`` under ``(alg.content_hash, name, *args)``."""
    name = fn.__qualname__

    @functools.wraps(fn)
    def wrapper(alg, *args):
        key = (alg.content_hash, name, *args)
        if key not in _CACHE:
            _CACHE[key] = fn(alg, *args)
        return _CACHE[key]

    return wrapper


class StructureConstants:
    """An algebra given by its basis-indexed multiplication tensor."""

    __slots__ = (
        "dim",
        "table",
        "labels",
        "content_hash",
        "_sparse",
    )

    def __init__(self, table, labels: Sequence[str] | None = None):
        tbl = tuple(tuple(vec(row) for row in plane) for plane in table)
        n = len(tbl)
        if n < 1:
            raise DimensionMismatch("algebra dimension must be at least 1")
        if any(len(plane) != n or any(len(row) != n for row in plane) for plane in tbl):
            raise DimensionMismatch("structure tensor must be dim x dim x dim")
        if labels is None:
            labels = tuple(f"e{i}" for i in range(n))
        else:
            labels = tuple(str(s) for s in labels)
            if len(labels) != n:
                raise DimensionMismatch("label count must equal dim")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "table", tbl)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_sparse", sparse_tensor(tbl))
        self._check_associativity()
        payload = json.dumps(
            {
                "dim": n,
                "labels": list(labels),
                "table": [[[str(x) for x in row] for row in plane] for plane in tbl],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        object.__setattr__(
            self, "content_hash", hashlib.sha256(payload.encode()).hexdigest()
        )

    def __setattr__(self, *_):
        raise AttributeError("StructureConstants is immutable")

    def _check_associativity(self) -> None:
        """(e_i e_j) e_k = e_i (e_j e_k) for every basis triple, in ints.

        Both sides are compared on the table scaled by its common
        denominator D; each side then carries D^2, so this is exact.
        """
        n = self.dim
        _, sp = _int_table(self)
        for i in range(n):
            for j in range(n):
                vij = sp[i][j]
                for k in range(n):
                    lhs: dict[int, int] = {}
                    for m, c in vij:
                        for l, d in sp[m][k]:
                            lhs[l] = lhs.get(l, 0) + c * d
                    for m, c in sp[j][k]:
                        for l, d in sp[i][m]:
                            lhs[l] = lhs.get(l, 0) - c * d
                    if any(lhs.values()):
                        raise NotAssociative(i, j, k)

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StructureConstants)
            and self.content_hash == other.content_hash
        )

    def __hash__(self) -> int:
        return hash(self.content_hash)

    def __repr__(self) -> str:
        return f"StructureConstants(dim={self.dim})"


def _same_algebra(a: StructureConstants, b: StructureConstants) -> None:
    if a is not b and a.content_hash != b.content_hash:
        raise AlgebraMismatch("operands live in different algebras")


class AlgebraElement:
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

    def __setattr__(self, *_):
        raise AttributeError("AlgebraElement is immutable")

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.algebra == other.algebra
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((self.algebra.content_hash, self.coords))

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


def _int_table(alg: StructureConstants) -> tuple[int, list[list[list[tuple[int, int]]]]]:
    """(D, D * table) as sparse int rows: D is the common denominator of the table."""
    n = alg.dim
    d, rows = clear_denominators(row for plane in alg._sparse for row in plane)
    return d, [rows[i * n : (i + 1) * n] for i in range(n)]


def _sparse_sum(terms) -> tuple[tuple[int, int], ...]:
    """The (coord, value) pairs of sum of c * v over (c, v) in terms, nonzero and sorted."""
    out: dict[int, int] = {}
    for c, v in terms:
        for l, x in v:
            out[l] = out.get(l, 0) + c * x
    return tuple(sorted((l, x) for l, x in out.items() if x))


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
    d, table = _int_table(alg)
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


@memoized
def double_commutator_span(alg: StructureConstants) -> Subspace:
    """Span of [[e_i, e_j], e_k] over all basis triples.

    The span does not change under the form's scale, so the int values
    go in as they are.
    """
    n = alg.dim
    return Subspace(n, {_dense(dict(w), n) for w in basis_tensor(alg, "triple")[1].values()})


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


class LinearOperator:
    """A linear map on a fixed algebra; column j is the image of e_j."""

    __slots__ = ("algebra", "matrix")

    def __init__(self, algebra: StructureConstants, matrix: Matrix):
        if matrix.rows != algebra.dim or matrix.cols != algebra.dim:
            raise DimensionMismatch("operator matrix must be dim x dim")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, *_):
        raise AttributeError("LinearOperator is immutable")

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearOperator)
            and self.algebra == other.algebra
            and self.matrix == other.matrix
        )

    def __hash__(self) -> int:
        return hash((self.algebra.content_hash, self.matrix))

    def __repr__(self) -> str:
        return f"LinearOperator(on dim {self.algebra.dim})"


def multiplication_operator(alg: StructureConstants, coords: Sequence[Fraction]) -> LinearOperator:
    """x -> c * x as an operator (left multiplication by c): column j is c * e_j."""
    n = alg.dim
    return LinearOperator(alg, Matrix.from_cols([alg.mul_coords(coords, unit_vec(n, j)) for j in range(n)]))
