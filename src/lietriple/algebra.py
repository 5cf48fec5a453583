"""Finite-dimensional algebras presented by structure constants.

An algebra is a multiplication tensor ``c[i][j][k]`` over the rationals,
meaning ``e_i * e_j = sum_k c[i][j][k] e_k``, given by its nonzeros
``{(i, j, k): c[i][j][k]}`` and held in sparse form: a dense grid is
written only on reading ``StructureConstants.table``.  Associativity is
checked exhaustively at construction time, so everything downstream may
assume it.  Non-unital algebras are first-class: operations that
genuinely need a unit raise ``NotUnital`` instead of guessing one.
An element and an operator are held by their coordinates alone, an
operator's column-major (entry c * n + r is coordinate r of phi(e_c)),
and share one linear structure.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import weakref
from collections import defaultdict
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import AlgebraMismatch, DimensionMismatch, NotAssociative, NotUnital
from .linalg import (
    Subspace,
    _over,
    checked_tensor,
    clear_denominators,
    combination,
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


class _Facts(dict):
    """The facts derived about one algebra or GMA, keyed ``(function name, *args)``."""

    __slots__ = ("__weakref__",)


# The package's one cache: the fact table (basis forms, slot groups,
# solved spaces, membership verdicts) of each live algebra and GMA by its
# content hash, held weakly.  Each one holds its table in ``_facts``, so
# equal ones built apart (every CLI request builds its own) share it while
# any of them is alive, and it is freed with the last of them.
_CACHE: weakref.WeakValueDictionary[str, _Facts] = weakref.WeakValueDictionary()


def _fact_table(content_hash: str) -> _Facts:
    """The table of the live algebras or GMAs with this hash, or a new empty one if none is alive."""
    return _CACHE.setdefault(content_hash, _Facts())


def cached(table: dict, key: tuple, build):
    """``table[key]``, made by ``build()`` on the first request; a hit hashes the key once."""
    try:
        return table[key]
    except KeyError:
        pass
    value = table[key] = build()
    return value


def memoized(fn):
    """Cache ``fn(x, *args)`` under ``(name, *args)`` in ``x._facts``, for x an algebra or a GMA.

    The value lives as long as x or an equal algebra or GMA does.  A call
    that raises stores nothing, so it raises again on every call.
    """
    name = fn.__qualname__

    @functools.wraps(fn)
    def wrapper(x, *args):
        return cached(x._facts, (name, *args), lambda: fn(x, *args))

    return wrapper


def held(fn, x, *args):
    """The value of the ``memoized`` fn(x, *args) if x's fact table already holds it, else None; nothing is computed."""
    return x._facts.get((fn.__qualname__, *args))


class StructureConstants(Frozen):
    """An algebra given by its dim and the nonzeros of its multiplication tensor, held with the tensor times D in ints."""

    __slots__ = ("dim", "labels", "content_hash", "_facts", "_sparse", "_int_table")

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
        object.__setattr__(self, "_facts", _fact_table(self.content_hash))

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
        zr = [_packed(enumerate(sp[a]), shift) for a in range(n)]  # zr[a][l]: coordinate l of e_a z
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
        """The coordinates of x y: x and y scaled to ints by their common denominator s, on the table times D, over D s^2."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise DimensionMismatch(f"a product of Q^{n} x Q^{n} given vectors of length {len(x)}, {len(y)}")
        d, table = self._int_table
        s, (xs, ys) = clear_denominators([(i, c) for i, c in enumerate(v) if c] for v in (x, y))
        out = [0] * n
        for i, a in xs:
            plane = table[i]
            for j, b in ys:
                f = a * b
                for k, c in plane[j]:
                    out[k] += f * c
        return _over(out, d * s * s)

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


class _Coordinates(Frozen):
    """A value on a fixed algebra held by its coordinates: dim of them for an element, dim^2 for an operator.

    The linear structure is written here once: ``+``, ``-`` and scalar
    ``*`` are each one ``combination`` of the coordinates.
    """

    __slots__ = ("algebra", "coords")
    _power, _of = 1, "a"  # dim^_power coordinates; the message names the value by _of

    def __init__(self, algebra: StructureConstants, coords: Iterable):
        cs = vec(coords)
        if len(cs) != algebra.dim**self._power:
            raise DimensionMismatch(f"{len(cs)} coordinates for {self._of} dim-{algebra.dim} algebra")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coords", cs)

    def __reduce__(self):
        return type(self), (self.algebra, self.coords)

    def __add__(self, other):
        return self._combine((1, 1), other)

    def __sub__(self, other):
        return self._combine((1, -1), other)

    def __neg__(self):
        return self._combine((-1,))

    def __rmul__(self, scalar):
        return self._combine((rat(scalar),))

    def _combine(self, coeffs: Sequence, *others):
        """The sum of c * x over the coefficients and the values (self, *others)."""
        for x in others:
            _same_algebra(self.algebra, x.algebra)
        coords = [x.coords for x in (self, *others)]
        return type(self)(self.algebra, combination(coeffs, coords, len(self.coords)))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def _key(self):
        return (self.algebra.content_hash, self.coords)


class AlgebraElement(_Coordinates):
    """An element of a fixed algebra, stored by basis coordinates."""

    __slots__ = ()

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_algebra(self.algebra, other.algebra)
        return AlgebraElement(self.algebra, self.algebra.mul_coords(self.coords, other.coords))

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
def find_unit(alg: StructureConstants) -> AlgebraElement | None:
    """Two-sided unit, or None: solves u*e_j = e_j = e_j*u for all j, on the products scaled by D.

    Row (side, j, l) is coordinate l of u*e_j (side 0) or e_j*u (side 1), with rhs D * [l == j].
    """
    n = alg.dim
    d, table = basis_tensor(alg, "product")
    rows: dict[tuple, dict] = {(side, j, l): {} for side in (0, 1) for j in range(n) for l in range(n)}
    for (i, j), w in table.items():
        for l, x in w:
            rows[0, j, l][i] = x
            rows[1, i, l][j] = x
    coords = solve(n, list(rows.values()), [d * (l == j) for _, j, l in rows])
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
    tuples where the form vanishes are left out.  A value lists its
    coordinates in the order they are first met: those of e_i e_j, then
    any others of e_j e_i (bracket and Jordan); for the triple bracket,
    those of [e_m, e_k] over the terms c e_m of [e_i, e_j] in turn.
    Constraint rows and slot groups are read in this order.
    """
    n = alg.dim
    out: dict[tuple, tuple] = {}
    if form == "triple":
        d, brackets = basis_tensor(alg, "bracket")
        columns = [[brackets.get((m, k), ()) for k in range(n)] for m in range(n)]  # [e_m, e_k]
        for (i, j), b in brackets.items():
            for k in range(n):
                acc = {}
                for m, c in b:
                    for l, x in columns[m][k]:
                        acc[l] = acc.get(l, 0) + c * x
                v = tuple([(l, x) for l, x in acc.items() if x])
                if v:
                    out[i, j, k] = v
        return d * d, out
    d, table = alg._int_table
    sign = {"product": 0, "bracket": -1, "jordan": 1}[form]
    for i in range(n):
        for j in range(n):
            acc = dict(table[i][j])
            for l, x in table[j][i] if sign else ():  # the product has no e_j e_i term
                acc[l] = acc.get(l, 0) + sign * x
            v = tuple([(l, x) for l, x in acc.items() if x])
            if v:
                out[i, j] = v
    return d, out


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
    form's scale drops out.  A row is made only for an l that w or a term
    touches, and the rows come in increasing l.
    """
    rows = defaultdict(dict, {l: {c * n + l: x for c, x in w} for l in range(n if w else 0)})
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
    return [rows[l] for l in sorted(rows) if rows[l]]


@memoized
def _form_weight(alg: StructureConstants, form: str) -> int:
    """The sum of |values| of a basis form: the factor of the form in ``_digit_shift``'s bound."""
    return sum(abs(x) for w in basis_tensor(alg, form)[1].values() for _, x in w)


def _digit_shift(alg: StructureConstants, form: str, slots: tuple, m: int) -> int:
    """B with |r| < 2^(B-1) for every coordinate r of lhs - rhs at one tuple, on int operators of |entries| <= m.

    Each side reads w, or one slice of the form per slot, on one operator column: |r| <= m (1 + #slots) sum |form|.
    """
    return (m * (1 + len(slots)) * _form_weight(alg, form)).bit_length() + 1


def _packed(terms: Iterable[tuple[int, Iterable[tuple[int, int]]]], shift: int) -> dict[int, int]:
    """{l: the sum of x * 2^(shift*k)} over the pairs (l, x) of each (k, pairs) of ``terms``."""
    out: dict[int, int] = {}
    for k, v in terms:
        for l, x in v:
            out[l] = out.get(l, 0) + (x << shift * k)
    return out


def _failing_tags(alg: StructureConstants, form: str, slots: tuple, tags, phi: list, mats: Sequence[list]) -> Iterator:
    """Each tuple of ``tags`` (lexicographic) at which an identity fails: phi on the left, ``mats[p]`` in the p-th slot.

    The operators are n int columns {row: int}.  A tuple is a prefix, (i,
    j) or (i,), and a last index k, packed at 2^(B*k) on the form's side
    and, in the last slot, on the operator's rows (Kronecker substitution;
    D. Harvey, J. Symbolic Comput. 44, 2009): coordinate l of a prefix's
    residual is sum_k r_k 2^(B*k), r_k that of lhs - rhs at (prefix, k).
    With B from ``_digit_shift``, |r_k| < 2^(B-1), so adding 2^(B-1) to
    every digit makes each r_k + 2^(B-1) a plain B-bit digit: r_k is 0 iff
    that digit is 2^(B-1).
    """
    n, last = alg.dim, 2 if form == "triple" else 1
    m = max((abs(x) for op in (phi, *mats) for col in op for x in col.values()), default=0)
    shift, groups = _digit_shift(alg, form, slots, m), _slot_terms(alg, form, last)
    half, mask = 1 << shift - 1, (1 << shift) - 1
    offset = sum(half << shift * k for k in range(n))  # 2^(B-1) in every digit
    packs = {prefix: _packed(group, shift) for prefix, group in groups.items()}
    inner = [(s, op) for s, op in zip(slots, mats) if s != last]
    outer = [_packed(enumerate(col.items() for col in op), shift) for s, op in zip(slots, mats) if s == last]
    for prefix, read in itertools.groupby(tags, itemgetter(slice(-1))):
        res = [0] * n
        for c, x in packs.get(prefix, {}).items():
            for r, y in phi[c].items():
                res[r] += x * y
        for s, op in inner:  # the form with phi(e_i) at slot s, i = prefix[s]
            for lp, y in op[prefix[s]].items():
                for l, x in packs.get(prefix[:s] + (lp,) + prefix[s + 1 :], {}).items():
                    res[l] -= x * y
        for rows in outer:  # the form at (prefix, phi(e_k))
            for lp, v in groups.get(prefix, ()):
                for l, x in v if lp in rows else ():
                    res[l] -= x * rows[lp]
        if any(res):
            failing = {k for x in res if x for k in range(n) if (x + offset) >> shift * k & mask != half}
            yield from (tag for tag in read if tag[-1] in failing)


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


class LinearOperator(_Coordinates):
    """A linear map on a fixed algebra by its column-major coordinates: entry c * n + r is coordinate r of phi(e_c)."""

    __slots__ = ()
    _power, _of = 2, "an operator on a"

    @classmethod
    def identity(cls, algebra: StructureConstants) -> "LinearOperator":
        return cls.from_images(algebra, algebra.basis())

    @classmethod
    def from_images(cls, algebra: StructureConstants, images: Sequence[AlgebraElement]) -> "LinearOperator":
        if len(images) != algebra.dim:
            raise DimensionMismatch("need one image per basis vector")
        for x in images:
            _same_algebra(algebra, x.algebra)
        return cls(algebra, [c for x in images for c in x.coords])

    @classmethod
    def from_flat(cls, algebra: StructureConstants, flat: Sequence[Fraction]) -> "LinearOperator":
        """The operator with these column-major coordinates: the constructor, kept for ``benchmarks/``."""
        return cls(algebra, flat)

    def flatten(self) -> tuple:
        """The column-major coordinates: ``coords``, kept for ``benchmarks/``."""
        return self.coords

    def column(self, j: int) -> tuple:
        """phi(e_j) as coordinates."""
        n = self.algebra.dim
        return self.coords[j * n : (j + 1) * n]

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        """phi(x): the combination of the columns with x's coordinates."""
        _same_algebra(self.algebra, x.algebra)
        n = self.algebra.dim
        return AlgebraElement(self.algebra, combination(x.coords, [self.column(j) for j in range(n)], n))

    def __repr__(self) -> str:
        return f"LinearOperator(on dim {self.algebra.dim})"


def multiplication_operator(alg: StructureConstants, coords: Sequence[Fraction]) -> LinearOperator:
    """x -> c * x as an operator (left multiplication by c): column j, c * e_j, read off the int table."""
    n, coords = alg.dim, alg.element(coords).coords  # the element's length check
    d, table = alg._int_table
    s, (cs,) = clear_denominators([[(i, x) for i, x in enumerate(coords) if x]])
    flat = [0] * (n * n)
    for i, c in cs:
        for j, row in enumerate(table[i]):
            for k, x in row:
                flat[j * n + k] += c * x
    return LinearOperator(alg, _over(flat, d * s))
