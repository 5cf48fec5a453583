"""Named algebras the solvers are exercised on, plus random contexts.

The twelve-dimensional non-unital algebra of 2x2 matrices over the
strictly-upper-triangular 3x3 algebra comes with its swap map phi and
the two witness elements showing phi is a Lie triple centralizer that
is neither a Lie centralizer nor proper; all of its structure constants
are integers, so everything is encoded over the rationals.  phi is
built from its corners: alpha4 = beta1 = the 3x3 identity, all else 0.
``random_gma`` draws each corner's span one way and closes the four
spans under products until a round adds nothing or a corner overflows.
"""

from __future__ import annotations

import random
import re
from types import MappingProxyType
from typing import Mapping

from .algebra import AlgebraElement, LinearOperator, StructureConstants, cached
from .centralizers import build_from_blocks
from .gma import (
    GMA,
    Bimodule,
    MoritaContext,
    _block_table,
    assemble,
    block_labels,
    m2_of,
)
from .io import bimodule_from_doc, brief, load_json, sc_from_doc
from .linalg import MAX_TENSOR_ENTRIES, Matrix, Subspace, unit_vec
from .record import Record

# The entries named by a deterministic spec, kept for the whole process.
_NAMED: dict[tuple, object] = {}


def rationals() -> StructureConstants:
    """The one-dimensional algebra Q."""
    return StructureConstants(1, {(0, 0, 0): 1}, ["1"])


def dual_numbers() -> StructureConstants:
    """Q[x]/(x^2): basis 1, x with x*x = 0."""
    return StructureConstants(2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}, ["1", "x"])


def _checked_dim(n: int, dim: int) -> None:
    """Raise ValueError unless n >= 1 and the dim^3 table fits MAX_TENSOR_ENTRIES, before any cell is listed."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if dim**3 > MAX_TENSOR_ENTRIES:
        raise ValueError(f"matrix size {n} is too large to build")


def _matrix_units(cells: list[tuple[int, int]]) -> StructureConstants:
    """The span of the matrix units e_ij over cells, with the products e_ij e_jl = e_il, in cell order."""
    pos = {c: t for t, c in enumerate(cells)}
    n = len(cells)
    products = {(a, b, pos[i, l]): 1 for (i, j), a in pos.items() for (k, l), b in pos.items() if j == k}
    return StructureConstants(n, products, [f"e{i + 1}{j + 1}" for i, j in cells])


def full_matrix(n: int) -> StructureConstants:
    """M_n(Q) on the matrix-unit basis e_ij, row-major."""
    _checked_dim(n, n * n)
    return _matrix_units([(i, j) for i in range(n) for j in range(n)])


def upper_triangular(n: int) -> StructureConstants:
    """T_n(Q) on the matrix units e_ij with i <= j, lexicographic."""
    _checked_dim(n, n * (n + 1) // 2)
    return _matrix_units([(i, j) for i in range(n) for j in range(i, n)])


def direct_sum(a: StructureConstants, b: StructureConstants) -> StructureConstants:
    """A x B, labelled l:<label> then r:<label>: the block table of the context (A, 0, B)."""
    table = _block_table(triangular_context(a, Bimodule.zero(a.dim, b.dim), b))
    return StructureConstants(a.dim + b.dim, table, [f"l:{s}" for s in a.labels] + [f"r:{s}" for s in b.labels])


def _matrix_gma(kind: str, n: int, split: int, dim: int) -> GMA:
    """The dim matrix units of ``kind(n)`` split along e = e_11 + ... + e_kk, k = split, built once per process.

    Cells run in the order the Peirce split along e yields: corners A, M, N, B, row-major inside each.
    """
    if not 1 <= split < n:
        raise ValueError("split must lie strictly inside the matrix")
    _checked_dim(n, dim)

    def build() -> GMA:
        top, rest = range(split), range(split, n)
        corners = [
            [(i, j) for i in rows for j in cols if kind == "full_matrix" or i <= j]
            for rows, cols in ((top, top), (top, rest), (rest, top), (rest, rest))
        ]
        units = _matrix_units([cell for corner in corners for cell in corner])
        return GMA(units, tuple(map(len, corners)))

    return cached(_NAMED, (f"{kind}({n})", "gma", split), build)


def full_matrix_gma(n: int, split: int = 1) -> GMA:
    """M_n(Q) as a generalized matrix algebra, split after `split` rows."""
    return _matrix_gma("full_matrix", n, split, n * n)


def upper_triangular_gma(n: int, split: int = 1) -> GMA:
    """T_n(Q) as a triangular generalized matrix algebra (N corner zero)."""
    return _matrix_gma("upper_triangular", n, split, n * (n + 1) // 2)


def triangular_context(a: StructureConstants, m: Bimodule, b: StructureConstants) -> MoritaContext:
    """A Morita context with N = 0 (a triangular algebra)."""
    return MoritaContext(a, b, m, Bimodule.zero(b.dim, a.dim), {}, {})


def scalar_bimodule() -> Bimodule:
    """Q as a (Q, Q)-bimodule with both units acting as the identity."""
    return Bimodule(1, 1, 1, {(0, 0, 0): 1}, {(0, 0, 0): 1})


# ---------------------------------------------------------------------------
#  The 12-dimensional motivating example
# ---------------------------------------------------------------------------


def strict_upper_3x3() -> StructureConstants:
    """Strictly upper triangular 3x3 matrices: u1 u2 = u3, all else zero."""
    return StructureConstants(3, {(0, 1, 2): 1}, ["u1", "u2", "u3"])


class Example12(Record):
    """The motivating example: phi swaps the diagonal corners of M2(A)."""

    gma: GMA
    phi: LinearOperator
    a0: AlgebraElement
    b0: AlgebraElement
    expected_center: Subspace


def example_1_2() -> Example12:
    u = m2_of(strict_upper_3x3())
    n = u.algebra.dim  # 12
    one, zero = Matrix(3, 3, [int(r == c) for c in range(3) for r in range(3)]), Matrix.zeros(3, 3)
    phi = build_from_blocks(u, alpha1=zero, beta1=one, tau2=zero, gamma3=zero, alpha4=one, beta4=zero)
    a0 = u.element_from_corners(a=(1, 1, 0), b=(2, 1, 0))
    b0 = u.element_from_corners(a=(1, 1, 0), b=(1, 2, 0))
    # Z(M2(A)) = M2(C) with C spanned by u3: one u3 in each corner.
    expected_center = Subspace(n, [unit_vec(n, i) for i in (2, 5, 8, 11)])
    return Example12(u, phi, a0, b0, expected_center)


# ---------------------------------------------------------------------------
#  Random generalized matrix algebras
# ---------------------------------------------------------------------------


def _grown(amb: StructureConstants, s: Subspace, *pairs: tuple[Subspace, Subspace]) -> Subspace:
    """The span of s and of every product x y, for x in the left and y in the right space of a pair, in one elimination."""
    products = (amb.mul_coords(x, y) for left, right in pairs for x in left.basis for y in right.basis)
    return Subspace(amb.dim, [*s.basis, *products])


# random_gma's cap on every corner dimension, and its number of draws before it gives up
_MAX_CORNER_DIM = 2
_MAX_TRIES = 2000


def random_gma(rng: random.Random, require_n: bool | None = None) -> GMA:
    """A random unital generalized matrix algebra with small corners.

    Corners are grown as subspaces of an ambient M_{p+q}(Q) and closed
    under all products, so together they span a subalgebra holding the
    identity; its table in the corner-ordered basis sa + sm + sn + sb,
    with the corner dims, makes the ``GMA``.  Draws whose closure overflows
    the corner cap are retried.  Deterministic for a seeded rng.
    ``require_n`` pins the N corner to be nonzero (True) or zero (False).
    """
    for _ in range(_MAX_TRIES):
        p = rng.choice((1, 1, 2))
        q = rng.choice((1, 2, 2))
        tot = p + q
        amb = full_matrix(tot)
        top, rest = range(p), range(p, tot)

        def span(rows, cols, count: int, unit: bool = False) -> Subspace:
            """The span of the corner's unit, when asked, and of ``count`` random matrices on its cells."""
            draws = [{(i, i): 1 for i in rows}] if unit else []
            for _ in range(count):
                draws.append({(i, j): rng.choice((-2, -1, 1, 2)) for i in rows for j in cols if rng.random() < 0.6})
            return Subspace(tot * tot, [[d.get(divmod(k, tot), 0) for k in range(tot * tot)] for d in draws])

        sa = span(top, top, rng.randint(0, 1), unit=True)
        sb = span(rest, rest, rng.randint(0, 1), unit=True)
        sm = span(top, rest, rng.randint(1, 2))
        want_n = rng.random() < 0.5 if require_n is None else require_n
        sn = span(rest, top, rng.randint(1, 2) if want_n else 0)

        while max(sa.dim, sb.dim, sm.dim, sn.dim) <= _MAX_CORNER_DIM:
            new_sa = _grown(amb, sa, (sa, sa), (sm, sn))
            new_sb = _grown(amb, sb, (sb, sb), (sn, sm))
            new_sm = _grown(amb, sm, (new_sa, sm), (sm, new_sb))
            new_sn = _grown(amb, sn, (new_sb, sn), (sn, new_sa))
            if (new_sa, new_sb, new_sm, new_sn) == (sa, sb, sm, sn):
                break
            sa, sb, sm, sn = new_sa, new_sb, new_sm, new_sn
        else:
            continue  # the closure overflowed the cap
        if sm.dim == 0 or (require_n is not None and (sn.dim > 0) != require_n):
            continue

        corners = (sa, sm, sn, sb)
        cells = [{i * tot + j for i in rows for j in cols} for rows in (top, rest) for cols in (top, rest)]

        def coords(v):
            """v's coefficients in the basis sa + sm + sn + sb, read off its part on each corner's cells."""
            out = []
            for space, corner in zip(corners, cells):
                c = space.coefficients_of([x if k in corner else 0 for k, x in enumerate(v)])
                assert c is not None  # closure makes every corner part a member
                out += c
            return out

        basis = [v for space in corners for v in space.basis]
        products = ((i, j, amb.mul_coords(x, y)) for i, x in enumerate(basis) for j, y in enumerate(basis))
        table = {(i, j, k): c for i, j, w in products for k, c in enumerate(coords(w)) if c}
        labels = block_labels([f"e{i}" for i in range(sa.dim)], sm.dim, sn.dim, [f"e{i}" for i in range(sb.dim)])
        return GMA(StructureConstants(len(basis), table, labels), (sa.dim, sm.dim, sn.dim, sb.dim))
    raise RuntimeError("could not draw a valid random context")


# ---------------------------------------------------------------------------
#  Named entries
# ---------------------------------------------------------------------------


class CatalogEntry(Record):
    name: str
    algebra: StructureConstants
    gma: GMA | None
    extras: Mapping = MappingProxyType({})

    def __post_init__(self):
        # ``resolve`` hands one entry to every caller, so none may change it
        object.__setattr__(self, "extras", MappingProxyType(dict(self.extras)))


def standard_gmas() -> dict[str, GMA]:
    """The unital block algebras every structural audit runs over."""
    return {
        "upper_triangular(2)": upper_triangular_gma(2),
        "upper_triangular(3)": upper_triangular_gma(3),
        "full_matrix(2)": full_matrix_gma(2),
        "full_matrix(3)": full_matrix_gma(3),
    }


def _entry_example_1_2() -> CatalogEntry:
    ex = example_1_2()
    extras = {"phi": ex.phi, "a0": ex.a0, "b0": ex.b0, "expected_center": ex.expected_center}
    return CatalogEntry("example_1_2", ex.gma.algebra, ex.gma, extras)


_MATRIX_SPEC = re.compile(r"(upper_triangular|full_matrix)\((\d+)\)")


def _matrix_entry(spec: str, kind: str, n: int) -> CatalogEntry:
    builder = upper_triangular_gma if kind == "upper_triangular" else full_matrix_gma
    raw = upper_triangular if kind == "upper_triangular" else full_matrix
    gma = builder(n) if n >= 2 else None
    return CatalogEntry(spec, gma.algebra if gma is not None else raw(n), gma)


def resolve(spec: str) -> CatalogEntry:
    """Parse a CLI algebra spec into a catalog entry.

    Accepted forms: example_1_2, upper_triangular(n), full_matrix(n),
    tri(A.json,M.json,B.json), m2(A.json).  The first three do not
    depend on anything outside the spec, so each is built once per
    process, in ``_NAMED`` under the stripped spec as given (the entry's
    name echoes it); a document form reads its files every time, and its
    algebra's facts are freed with the entry.
    """
    spec = spec.strip()
    if spec == "example_1_2":
        return cached(_NAMED, (spec, "resolve"), _entry_example_1_2)
    m = _MATRIX_SPEC.fullmatch(spec)
    if m:
        return cached(_NAMED, (spec, "resolve"), lambda: _matrix_entry(spec, m.group(1), int(m.group(2))))
    m = re.fullmatch(r"tri\(([^,]+),([^,]+),([^)]+)\)", spec)
    if m:
        a = sc_from_doc(load_json(m.group(1).strip()))
        b = sc_from_doc(load_json(m.group(3).strip()))
        mod = bimodule_from_doc(load_json(m.group(2).strip()), a.dim, b.dim)
        gma = assemble(triangular_context(a, mod, b))
        return CatalogEntry(spec, gma.algebra, gma)
    m = re.fullmatch(r"m2\(([^)]+)\)", spec)
    if m:
        gma = m2_of(sc_from_doc(load_json(m.group(1).strip())))
        return CatalogEntry(spec, gma.algebra, gma)
    raise ValueError(f"unrecognized algebra spec: {brief(spec)}")
