"""Named algebras the solvers are exercised on, plus random contexts.

The twelve-dimensional non-unital algebra of 2x2 matrices over the
strictly-upper-triangular 3x3 algebra comes with its swap map phi and
the two witness elements showing phi is a Lie triple centralizer that
is neither a Lie centralizer nor proper; all of its structure constants
are integers, so everything is encoded over the rationals.
"""

from __future__ import annotations

import random
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .algebra import AlgebraElement, LinearOperator, StructureConstants, find_unit
from .errors import LieTripleError
from .gma import (
    GMA,
    Bimodule,
    MoritaContext,
    assemble,
    m2_of,
    peirce_from_idempotent,
)
from .linalg import Subspace, unit_vec, zero_vec

F = Fraction


def rationals() -> StructureConstants:
    """The one-dimensional algebra Q."""
    return StructureConstants([[[1]]], ["1"])


def dual_numbers() -> StructureConstants:
    """Q[x]/(x^2): basis 1, x with x*x = 0."""
    t = [[[0] * 2 for _ in range(2)] for _ in range(2)]
    t[0][0][0] = 1
    t[0][1][1] = 1
    t[1][0][1] = 1
    return StructureConstants(t, ["1", "x"])


def _checked_dim(n: int, dim: int) -> int:
    """dim, once n >= 1 and the dim^3 structure tensor can be indexed."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if dim**3 > sys.maxsize:
        raise ValueError(f"matrix size {n} is too large to build")
    return dim


def full_matrix(n: int) -> StructureConstants:
    """M_n(Q) on the matrix-unit basis e_ij, row-major."""
    dim = _checked_dim(n, n * n)
    idx = lambda i, j: i * n + j
    t = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        t[idx(i, j)][idx(k, l)][idx(i, l)] = F(1)
    labels = [f"e{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    return StructureConstants(t, labels)


def upper_triangular(n: int) -> StructureConstants:
    """T_n(Q) on the matrix units e_ij with i <= j, lexicographic."""
    dim = _checked_dim(n, n * (n + 1) // 2)
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    pos = {c: t for t, c in enumerate(cells)}
    t = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), a in pos.items():
        for (k, l), b in pos.items():
            if j == k:
                t[a][b][pos[(i, l)]] = F(1)
    labels = [f"e{i + 1}{j + 1}" for i, j in cells]
    return StructureConstants(t, labels)


def direct_sum(a: StructureConstants, b: StructureConstants) -> StructureConstants:
    n = a.dim + b.dim
    t = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                t[i][j][k] = a.table[i][j][k]
    for i in range(b.dim):
        for j in range(b.dim):
            for k in range(b.dim):
                t[a.dim + i][a.dim + j][a.dim + k] = b.table[i][j][k]
    labels = [f"l:{s}" for s in a.labels] + [f"r:{s}" for s in b.labels]
    return StructureConstants(t, labels)


def _corner_split_gma(alg: StructureConstants, diagonal: list[int]) -> GMA:
    """Peirce split along e = e_11 + ... + e_kk, given the basis positions of those units."""
    coords = [F(0)] * alg.dim
    for i in diagonal:
        coords[i] = F(1)
    return peirce_from_idempotent(alg, AlgebraElement(alg, coords)).gma


def full_matrix_gma(n: int, split: int = 1) -> GMA:
    """M_n(Q) as a generalized matrix algebra, split after `split` rows."""
    if not 1 <= split < n:
        raise ValueError("split must lie strictly inside the matrix")
    return _corner_split_gma(full_matrix(n), [i * n + i for i in range(split)])


def upper_triangular_gma(n: int, split: int = 1) -> GMA:
    """T_n(Q) as a triangular generalized matrix algebra (N corner zero)."""
    if not 1 <= split < n:
        raise ValueError("split must lie strictly inside the matrix")
    # e_ii opens row i, after the n - r cells of each row r < i
    return _corner_split_gma(upper_triangular(n), [i * n - i * (i - 1) // 2 for i in range(split)])


def triangular_context(a: StructureConstants, m: Bimodule, b: StructureConstants) -> MoritaContext:
    """A Morita context with N = 0 (a triangular algebra)."""
    n = Bimodule.zero(b.dim, a.dim)
    zeta = tuple(() for _ in range(m.dim))
    psi = ()
    return MoritaContext(a, b, m, n, zeta, psi)


def scalar_bimodule(left_dim: int = 1, right_dim: int = 1) -> Bimodule:
    """Q as a (Q, Q)-bimodule with both units acting as the identity."""
    return Bimodule(1, left_dim, right_dim, (((F(1),),),), (((F(1),),),))


# ---------------------------------------------------------------------------
#  The 12-dimensional motivating example
# ---------------------------------------------------------------------------


def strict_upper_3x3() -> StructureConstants:
    """Strictly upper triangular 3x3 matrices: u1 u2 = u3, all else zero."""
    t = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    t[0][1][2] = F(1)
    return StructureConstants(t, ["u1", "u2", "u3"])


@dataclass(frozen=True)
class Example12:
    """The motivating example: phi swaps the diagonal corners of M2(A)."""

    gma: GMA
    phi: LinearOperator
    a0: AlgebraElement
    b0: AlgebraElement
    expected_center: Subspace


def example_1_2() -> Example12:
    base = strict_upper_3x3()
    u = m2_of(base)
    alg = u.algebra
    n = alg.dim  # 12
    images = []
    for j in range(n):
        if j in u.block_range("A"):
            images.append(AlgebraElement(alg, unit_vec(n, j + 9)))
        elif j in u.block_range("B"):
            images.append(AlgebraElement(alg, unit_vec(n, j - 9)))
        else:
            images.append(AlgebraElement(alg, zero_vec(n)))
    phi = LinearOperator.from_images(alg, images)
    a0 = u.element_from_corners(a=(1, 1, 0), b=(2, 1, 0))
    b0 = u.element_from_corners(a=(1, 1, 0), b=(1, 2, 0))
    # Z(M2(A)) = M2(C) with C spanned by u3: one u3 in each corner.
    expected_center = Subspace(n, [unit_vec(n, i) for i in (2, 5, 8, 11)])
    return Example12(u, phi, a0, b0, expected_center)


# ---------------------------------------------------------------------------
#  Random associativity-valid Morita contexts
# ---------------------------------------------------------------------------


def _product_span(amb: StructureConstants, s: Subspace, t: Subspace) -> Subspace:
    vecs = [amb.mul_coords(x, y) for x in s.basis for y in t.basis]
    return Subspace(amb.dim, vecs)


def random_gma(
    rng: random.Random,
    max_corner_dim: int = 2,
    max_tries: int = 2000,
    require_n: bool | None = None,
) -> GMA:
    """A random unital generalized matrix algebra with small corners.

    Corners are grown as subspaces of an ambient M_{p+q}(Q) and closed
    under all products, so the assembled context is associative by
    construction; draws whose closure overflows the corner cap are
    retried.  Deterministic for a seeded rng.  ``require_n`` pins the
    N corner to be nonzero (True) or zero (False).
    """
    for _ in range(max_tries):
        p = rng.choice((1, 1, 2))
        q = rng.choice((1, 2, 2))
        amb = full_matrix(p + q)
        tot = p + q

        def cellvec(entries):
            v = [F(0)] * (tot * tot)
            for (i, j), x in entries.items():
                v[i * tot + j] = F(x)
            return tuple(v)

        def random_block(rows, cols):
            return cellvec(
                {
                    (i, j): rng.choice((-2, -1, 1, 2))
                    for i in rows
                    for j in cols
                    if rng.random() < 0.6
                }
            )

        ident_a = cellvec({(i, i): 1 for i in range(p)})
        ident_b = cellvec({(i, i): 1 for i in range(p, tot)})
        sa = Subspace(tot * tot, [ident_a] + [random_block(range(p), range(p)) for _ in range(rng.randint(0, 1))])
        sb = Subspace(tot * tot, [ident_b] + [random_block(range(p, tot), range(p, tot)) for _ in range(rng.randint(0, 1))])
        sm = Subspace(tot * tot, [random_block(range(p), range(p, tot)) for _ in range(rng.randint(1, 2))])
        want_n = rng.random() < 0.5 if require_n is None else require_n
        sn = Subspace(
            tot * tot,
            [random_block(range(p, tot), range(p)) for _ in range(rng.randint(1, 2))]
            if want_n
            else [],
        )

        ok = True
        changed = True
        while changed and ok:
            changed = False
            new_sa = sa.sum(_product_span(amb, sa, sa)).sum(_product_span(amb, sm, sn))
            new_sb = sb.sum(_product_span(amb, sb, sb)).sum(_product_span(amb, sn, sm))
            new_sm = sm.sum(_product_span(amb, new_sa, sm)).sum(_product_span(amb, sm, new_sb))
            new_sn = sn.sum(_product_span(amb, new_sb, sn)).sum(_product_span(amb, sn, new_sa))
            if (new_sa, new_sb, new_sm, new_sn) != (sa, sb, sm, sn):
                changed = True
                sa, sb, sm, sn = new_sa, new_sb, new_sm, new_sn
            if max(sa.dim, sb.dim, sm.dim, sn.dim) > max_corner_dim:
                ok = False
        if not ok or sm.dim == 0:
            continue
        if require_n is not None and (sn.dim > 0) != require_n:
            continue

        def coeffs(space: Subspace, v):
            c = space.coefficients_of(v)
            assert c is not None  # closure guarantees membership
            return c

        da, db, dm, dn = sa.dim, sb.dim, sm.dim, sn.dim
        a_tab = [[coeffs(sa, amb.mul_coords(x, y)) for y in sa.basis] for x in sa.basis]
        b_tab = [[coeffs(sb, amb.mul_coords(x, y)) for y in sb.basis] for x in sb.basis]
        m_left = [[coeffs(sm, amb.mul_coords(a, m)) for m in sm.basis] for a in sa.basis]
        m_right = [[coeffs(sm, amb.mul_coords(m, b)) for b in sb.basis] for m in sm.basis]
        n_left = [[coeffs(sn, amb.mul_coords(b, nn)) for nn in sn.basis] for b in sb.basis]
        n_right = [[coeffs(sn, amb.mul_coords(nn, a)) for a in sa.basis] for nn in sn.basis]
        zeta = [[coeffs(sa, amb.mul_coords(m, nn)) for nn in sn.basis] for m in sm.basis]
        psi = [[coeffs(sb, amb.mul_coords(nn, m)) for m in sm.basis] for nn in sn.basis]

        try:
            ctx = MoritaContext(
                StructureConstants(a_tab),
                StructureConstants(b_tab),
                Bimodule(dm, da, db, m_left, m_right),
                Bimodule(dn, db, da, n_left, n_right),
                zeta,
                psi,
            )
            u = assemble(ctx)
        except LieTripleError:  # pragma: no cover - closure should prevent this
            continue
        if find_unit(u.algebra) is None:  # pragma: no cover
            continue
        return u
    raise RuntimeError("could not draw a valid random context")


# ---------------------------------------------------------------------------
#  Named entries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    algebra: StructureConstants
    gma: GMA | None
    provenance: str
    extras: dict = field(default_factory=dict)


def standard_gmas() -> dict[str, GMA]:
    """The unital block algebras every structural audit runs over."""
    return {
        "upper_triangular(2)": upper_triangular_gma(2),
        "upper_triangular(3)": upper_triangular_gma(3),
        "full_matrix(2)": full_matrix_gma(2),
        "full_matrix(3)": full_matrix_gma(3),
    }


_NAMED: dict[str, Callable[[], CatalogEntry]] = {}


def _entry_example_1_2() -> CatalogEntry:
    ex = example_1_2()
    return CatalogEntry(
        name="example_1_2",
        algebra=ex.gma.algebra,
        gma=ex.gma,
        provenance=(
            "2x2 matrices over the strictly upper triangular 3x3 algebra; "
            "rational coefficients stand in for the complex ones since every "
            "identity involved is field-agnostic"
        ),
        extras={
            "phi": ex.phi,
            "a0": ex.a0,
            "b0": ex.b0,
            "expected_center": ex.expected_center,
        },
    )


_NAMED["example_1_2"] = _entry_example_1_2


def resolve(spec: str) -> CatalogEntry:
    """Parse a CLI algebra spec into a catalog entry.

    Accepted forms: example_1_2, upper_triangular(n), full_matrix(n),
    tri(A.json,M.json,B.json), m2(A.json).
    """
    spec = spec.strip()
    if spec in _NAMED:
        return _NAMED[spec]()
    m = re.fullmatch(r"(upper_triangular|full_matrix)\((\d+)\)", spec)
    if m:
        kind, n = m.group(1), int(m.group(2))
        if n < 1:
            raise ValueError("matrix size must be positive")
        builder = upper_triangular_gma if kind == "upper_triangular" else full_matrix_gma
        raw = upper_triangular if kind == "upper_triangular" else full_matrix
        gma = builder(n) if n >= 2 else None
        algebra = gma.algebra if gma is not None else raw(n)
        return CatalogEntry(
            name=spec,
            algebra=algebra,
            gma=gma,
            provenance=f"{n}x{n} {'upper triangular' if kind == 'upper_triangular' else 'full'} matrices over Q",
        )
    m = re.fullmatch(r"tri\(([^,]+),([^,]+),([^)]+)\)", spec)
    if m:
        from .io import bimodule_from_doc, load_json, sc_from_doc

        a = sc_from_doc(load_json(m.group(1).strip()))
        b = sc_from_doc(load_json(m.group(3).strip()))
        mod = bimodule_from_doc(load_json(m.group(2).strip()), a.dim, b.dim)
        gma = assemble(triangular_context(a, mod, b))
        return CatalogEntry(spec, gma.algebra, gma, "triangular context from documents")
    m = re.fullmatch(r"m2\(([^)]+)\)", spec)
    if m:
        from .io import load_json, sc_from_doc

        a = sc_from_doc(load_json(m.group(1).strip()))
        gma = m2_of(a)
        return CatalogEntry(spec, gma.algebra, gma, "2x2 matrices over a document algebra")
    raise ValueError(f"unrecognized algebra spec: {spec!r}")
