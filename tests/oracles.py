"""Brute-force oracles, independent of the production constraint path.

The production solver generates sparse rows from a table of basis forms
(products, brackets, Jordan products and triple brackets of basis
vectors).  The oracle here instead probes every matrix unit through
plain element arithmetic, stacks the dense residuals, and takes a dense
kernel.  Agreement between the two routes is what the dimension tests
actually certify.  ``identity_sides`` evaluates both sides of an
identity at one basis tuple the same way, to re-check a reported
witness.  ``left_mult`` and ``right_mult`` read the multiplication
maps off the table by plain loops.  ``grid_algebra`` builds an algebra
from a dense grid by listing its nonzeros, ``context_grids`` lays a
context's tensors out as dense grids from the nonzeros it holds, and
``dense_contract`` applies such a grid by a triple loop.
``algebra_doc``, ``bimodule_doc`` and ``operator_doc`` write the
documents README describes from the same nonzeros, and ``write_doc``
saves one with ``json.dumps``.  ``dense_content_hash`` renders an
algebra's content-hash payload from a dense grid with ``json.dumps``,
and ``dimension_law`` states every solution dimension on T_n and M_n as
a function of n alone.

Elimination here is a plain Fraction Gauss-Jordan that shares no code
with the package's fraction-free integer echelon; kernels come back as
canonical (reduced row-echelon) basis tuples, so they compare directly
with ``Subspace.basis``.
"""

import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

from lietriple.algebra import AlgebraElement, StructureConstants
from lietriple.errors import InvalidBlockStructure, LieTripleError
from lietriple.gma import context_of
from lietriple.linalg import Matrix, tensor_entries, zero_vec


def grid_algebra(table, labels=None) -> StructureConstants:
    """The algebra of a dense n x n x n grid, handed over as its nonzeros."""
    nonzeros = {
        (i, j, k): x for i, plane in enumerate(table) for j, row in enumerate(plane) for k, x in enumerate(row) if x != 0
    }
    return StructureConstants(len(table), nonzeros, labels)


def gauss_jordan(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place Gauss-Jordan; returns (rows, pivot column list)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def row_space_basis(rows) -> tuple:
    """The nonzero rows of the reduced row-echelon form, as tuples."""
    reduced, pivots = gauss_jordan([[Fraction(x) for x in row] for row in rows])
    return tuple(tuple(reduced[i]) for i in range(len(pivots)))


def kernel_basis(rows, ncols: int) -> tuple:
    """Canonical basis of {v : row . v = 0 for every row}."""
    reduced, pivots = gauss_jordan([[Fraction(x) for x in row] for row in rows])
    free = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        free.append(v)
    return row_space_basis(free)


def preimage_basis(maps, target_vectors, n: int) -> tuple:
    """Canonical basis of {x : m x in span(target_vectors) for every n x n grid m}.

    Each map gets its own unknowns y: the system is m x - T y = 0 with the
    target vectors as the columns of T, stacked over the maps, and the
    answer is the x-part of its kernel, by Gauss-Jordan alone.
    """
    t = len(target_vectors)
    width = n + len(maps) * t
    rows = []
    for i, m in enumerate(maps):
        for r in range(n):
            row = [Fraction(x) for x in m[r]] + [Fraction(0)] * (width - n)
            for s, b in enumerate(target_vectors):
                row[n + i * t + s] = -Fraction(b[r])
            rows.append(row)
    return row_space_basis([v[:n] for v in kernel_basis(rows, width)])


def left_mult(alg: StructureConstants, coords) -> Matrix:
    """The matrix of x -> c x: entry (l, j) is the sum over i of c_i table[i][j][l]."""
    n, t = alg.dim, alg.table
    return Matrix(
        [[sum((Fraction(c) * t[i][j][l] for i, c in enumerate(coords)), Fraction(0)) for j in range(n)] for l in range(n)]
    )


def right_mult(alg: StructureConstants, coords) -> Matrix:
    """The matrix of x -> x c: entry (l, j) is the sum over i of c_i table[j][i][l]."""
    n, t = alg.dim, alg.table
    return Matrix(
        [[sum((Fraction(c) * t[j][i][l] for i, c in enumerate(coords)), Fraction(0)) for j in range(n)] for l in range(n)]
    )


def _elem(alg, coords):
    return AlgebraElement(alg, coords)


def _apply(alg, images, x: AlgebraElement) -> AlgebraElement:
    out = zero_vec(alg.dim)
    for i, c in enumerate(x.coords):
        if c != 0:
            out = tuple(a + c * b for a, b in zip(out, images[i].coords))
    return _elem(alg, out)


def _brk(x, y):
    return x * y - y * x


def _jrd(x, y):
    return x * y + y * x


# kind -> (phi, g, *elements) -> (lhs, rhs); g is phi in every slot after the first
_IDENTITIES = {
    "lc": lambda f, g, x, y: (f(_brk(x, y)), _brk(f(x), y)),
    "jc": lambda f, g, x, y: (f(_jrd(x, y)), _jrd(f(x), y)),
    "der": lambda f, g, x, y: (f(x * y), f(x) * y + x * g(y)),
    "lieder": lambda f, g, x, y: (f(_brk(x, y)), _brk(f(x), y) + _brk(x, g(y))),
    "jder": lambda f, g, x, y: (f(_jrd(x, y)), _jrd(f(x), y) + _jrd(x, g(y))),
    "ltc": lambda f, g, x, y, z: (f(_brk(_brk(x, y), z)), _brk(_brk(f(x), y), z)),
    "ltc_middle": lambda f, g, x, y, z: (f(_brk(_brk(x, y), z)), _brk(_brk(x, f(y)), z)),
    "ltd": lambda f, g, x, y, z: (
        f(_brk(_brk(x, y), z)),
        _brk(_brk(f(x), y), z) + _brk(_brk(x, g(y)), z) + _brk(_brk(x, y), g(z)),
    ),
}


def _arity(kind: str) -> int:
    return 3 if kind.startswith("lt") else 2


def _operator(alg, op_matrix):
    images = [_elem(alg, op_matrix.col(j)) for j in range(alg.dim)]
    return lambda x: _apply(alg, images, x)


def _residual_stream(alg: StructureConstants, images, kind: str):
    f = lambda x: _apply(alg, images, x)
    for args in itertools.product(alg.basis(), repeat=_arity(kind)):
        lhs, rhs = _IDENTITIES[kind](f, f, *args)
        yield (lhs - rhs).coords


def identity_sides(alg: StructureConstants, kind: str, tag, op_matrix, slot_matrix=None):
    """Both sides of the identity at the basis tuple ``tag``, as elements.

    phi is ``op_matrix`` on the left and in the first slot; in the other
    slots it is ``slot_matrix`` when given, as xi is in the generalized
    Lie triple derivation identity with Lambda = ``op_matrix``.
    """
    f = _operator(alg, op_matrix)
    g = f if slot_matrix is None else _operator(alg, slot_matrix)
    return _IDENTITIES[kind](f, g, *(alg.basis_element(i) for i in tag))


def dense_identity_space(alg: StructureConstants, kind: str) -> tuple:
    """Canonical basis of the solution space, by probing unit operators."""
    n = alg.dim
    columns = []
    for c in range(n):
        for r in range(n):
            images = [
                _elem(alg, tuple(Fraction(1 if (i == c and l == r) else 0) for l in range(n)))
                for i in range(n)
            ]
            col = []
            for res in _residual_stream(alg, images, kind):
                col.extend(res)
            columns.append(col)
    return kernel_basis(zip(*columns), n * n)


def residual_is_zero(alg: StructureConstants, op_matrix, kind: str) -> bool:
    """Direct check that an operator satisfies the identity, element-wise."""
    images = [_elem(alg, op_matrix.col(j)) for j in range(alg.dim)]
    return all(
        all(x == 0 for x in res) for res in _residual_stream(alg, images, kind)
    )


def inverse(p) -> list[list[Fraction]]:
    """The inverse of an invertible square grid, by Gauss-Jordan on [p | 1]."""
    n = len(p)
    reduced, _ = gauss_jordan(
        [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(p)]
    )
    return [row[n:] for row in reduced]


def rebased(alg: StructureConstants, p) -> StructureConstants:
    """The algebra in the basis f_i = sum_a p[a][i] e_a, by element arithmetic."""
    n = alg.dim
    pinv = inverse(p)
    f = [tuple(Fraction(p[a][i]) for a in range(n)) for i in range(n)]
    return grid_algebra(
        [
            [
                [sum((pinv[k][c] * x for c, x in enumerate(alg.mul_coords(f[i], f[j]))), Fraction(0)) for k in range(n)]
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


# Unit-diagonal basis change whose rebased M_2 has structure constants
# with denominators 2, 3, 6 and 9.
RATIONAL_BASIS = (
    (1, Fraction(1, 2), 0, 0),
    (0, 1, 0, Fraction(-2, 3)),
    (0, 0, 1, 0),
    (0, 0, 3, 1),
)


def unit_diagonal_basis(rng, n: int, per_row: int = 2, entries=(-2, -1, 1, 2)) -> tuple:
    """An invertible integer basis change: ones on the diagonal, per_row entries off it in each row."""
    while True:
        p = [[int(i == j) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in rng.sample([j for j in range(n) if j != i], per_row):
                p[i][j] = rng.choice(entries)
        if len(gauss_jordan([[Fraction(x) for x in row] for row in p])[1]) == n:
            return tuple(map(tuple, p))


def first_nonassociative_triple(table):
    """The first (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), by a plain Fraction loop."""
    n = len(table)
    for i, j, k in itertools.product(range(n), repeat=3):
        lhs = [sum((table[i][j][m] * table[m][k][l] for m in range(n)), Fraction(0)) for l in range(n)]
        rhs = [sum((table[j][k][m] * table[i][m][l] for m in range(n)), Fraction(0)) for l in range(n)]
        if lhs != rhs:
            return i, j, k
    return None


# each context tensor, by its path in the context's document, with the
# corners of its left factor, right factor and product
BLOCK_RULES = {
    "A.table": "AAA",
    "B.table": "BBB",
    "M.left": "AMM",
    "M.right": "MBM",
    "N.left": "BNN",
    "N.right": "NAN",
    "zeta": "MNA",
    "psi": "NMB",
}


def held_grid(sp, shape) -> list:
    """The a x b x c grid of Fractions of a held tensor, its nonzeros placed by a plain loop."""
    a, b, c = shape
    grid = [[[Fraction(0)] * c for _ in range(b)] for _ in range(a)]
    for (i, j, k), x in tensor_entries(sp).items():
        grid[i][j][k] = Fraction(x)
    return grid


def context_grids(ctx) -> dict:
    """Each tensor of BLOCK_RULES as a dense grid of Fractions, laid out from the nonzeros the context holds."""
    dims = {"A": ctx.A.dim, "M": ctx.M.dim, "N": ctx.N.dim, "B": ctx.B.dim}
    held = {
        "A.table": ctx.A._sparse,
        "B.table": ctx.B._sparse,
        "M.left": ctx.M._left,
        "M.right": ctx.M._right,
        "N.left": ctx.N._left,
        "N.right": ctx.N._right,
        "zeta": ctx._zeta,
        "psi": ctx._psi,
    }
    return {path: held_grid(held[path], [dims[c] for c in corners]) for path, corners in BLOCK_RULES.items()}


def dense_contract(t, x, y, out_dim):
    """The triple loop sum over i, j of x_i y_j t[i][j][k], entry by entry."""
    return tuple(
        sum((x[i] * y[j] * t[i][j][k] for i in range(len(x)) for j in range(len(y))), Fraction(0))
        for k in range(out_dim)
    )


def _strings(grid) -> list:
    return [[[str(x) for x in row] for row in plane] for plane in grid]


def algebra_doc(alg: StructureConstants) -> dict:
    """The algebra document {"dim", "labels", "table"}, every entry a rational string."""
    n = alg.dim
    return {"dim": n, "labels": list(alg.labels), "table": _strings(held_grid(alg._sparse, (n, n, n)))}


def bimodule_doc(m) -> dict:
    """The bimodule document {"dim", "left", "right"} of ``tri(A,M,B)``."""
    return {
        "dim": m.dim,
        "left": _strings(held_grid(m._left, (m.left_dim, m.dim, m.dim))),
        "right": _strings(held_grid(m._right, (m.dim, m.right_dim, m.dim))),
    }


def operator_doc(op) -> dict:
    """The operator document {"algebra_hash", "matrix"}, column j the image of basis vector j."""
    n = op.algebra.dim
    return {"algebra_hash": op.algebra.content_hash, "matrix": [[str(x) for x in op.matrix.col(j)] for j in range(n)]}


def write_doc(path, doc) -> None:
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def block_split_outcome(alg: StructureConstants, dims) -> type | None:
    """None if alg splits as a GMA with block dims, else the LieTripleError class the split raises.

    Slices the context, rebuilds the dense block table from its eight
    tensors by plain loops, and compares it with alg's table.
    """
    try:
        ctx = context_of(alg, dims)
    except LieTripleError as exc:
        return type(exc)
    n = alg.dim
    start = dict(zip("AMNB", itertools.accumulate((0, *dims[:3]))))
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    grids = context_grids(ctx)
    for path, (x, y, z) in BLOCK_RULES.items():
        for i, plane in enumerate(grids[path]):
            for j, row in enumerate(plane):
                for k, v in enumerate(row):
                    table[start[x] + i][start[y] + j][start[z] + k] = v
    t = alg.table
    same = all(list(t[i][j]) == table[i][j] for i in range(n) for j in range(n))
    return None if same else InvalidBlockStructure


def central_vanishing_basis(center_basis, dc_basis, n: int) -> tuple:
    """Canonical basis of {chi : chi(U) in Z, chi([[U,U],U]) = 0}, flattened column-major.

    Such a chi is a sum of x -> (g . x) z with z in the center and g a
    functional vanishing on the double-commutator span, so those rank-one
    maps, over the two given bases, span the space.
    """
    killers = kernel_basis(dc_basis, n)
    return row_space_basis(
        [g[c] * z[l] for c in range(n) for l in range(n)] for g in killers for z in center_basis
    )


def center_shape_holds(u, block: str, x0) -> bool:
    """Is Z(U) = {diag(a, b) : a in Z(A), b in Z(B), diag(a, b) x0 = x0 diag(a, b)}, for x0 in block M or N?

    Both sides are dense kernels read off U's own table.  An element d of
    the A and B positions commutes with every basis vector of A and B iff
    its corners are central in A and B, since B and A multiply to zero.
    """
    t, n = u.algebra.table, u.algebra.dim
    unit = [[Fraction(int(k == j)) for j in range(n)] for k in range(n)]
    x = [Fraction(0)] * n
    for i, c in zip(u.ranges[block], x0, strict=True):
        x[i] = Fraction(c)

    def commuting(unknowns, ys) -> tuple:
        # coordinate l of d y - y d, for d the combination of the unknown positions
        rows = [
            [sum((y[j] * (t[i][j][l] - t[j][i][l]) for j in range(n)), Fraction(0)) for i in unknowns]
            for y in ys
            for l in range(n)
        ]
        out = []
        for v in kernel_basis(rows, len(unknowns)):
            w = [Fraction(0)] * n
            for i, c in zip(unknowns, v):
                w[i] = c
            out.append(tuple(w))
        return tuple(out)

    diagonal = [*u.ranges["A"], *u.ranges["B"]]
    shaped = commuting(diagonal, [unit[k] for k in diagonal] + [x])
    return shaped == commuting(range(n), unit)


def dense_content_hash(table, labels) -> str:
    """sha256 of the canonical JSON of {"dim", "labels", "table"}, every entry of the dense grid as its rational string."""
    grid = [[[str(Fraction(x)) for x in row] for row in plane] for plane in table]
    payload = json.dumps({"dim": len(table), "labels": list(labels), "table": grid}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def dimension_law(family: str, n: int, kind: str) -> int:
    """The dimension of the solution space of ``kind`` on T_n (family "T") or M_n ("M"), for n >= 2.

    Every derivation of T_n and M_n is inner (N - 1 of them, N = dim U),
    every Jordan derivation is a derivation, and every Lie-type map is
    standard: a derivation (for the derivation kinds) or a multiple of
    the identity (for the centralizers), plus a center-valued map killing
    [[U,U],U].  The center is the scalars, and [[U,U],U] spans U but the
    diagonal on T_n, so n directions remain, and all of U but one
    direction on M_n.  sjder is read on the split after the first row,
    whose pairings leave no singular Jordan derivation.
    """
    if family not in ("T", "M") or n < 2:
        raise ValueError(f"no law for {family}_{n}")
    big = n * (n + 1) // 2 if family == "T" else n * n
    outside = n if family == "T" else 1  # dim U - dim [[U,U],U]
    return {
        "lc": 1 + outside,
        "ltc": 1 + outside,
        "jc": 1,
        "der": big - 1,
        "jder": big - 1,
        "lieder": big - 1 + outside,
        "ltd": big - 1 + outside,
        "sjder": 0,
    }[kind]
