"""Brute-force oracles, independent of the production constraint path.

The production solver generates sparse rows from precomputed
multiplication operators.  The oracle here instead probes every matrix
unit through plain element arithmetic, stacks the dense residuals, and
takes a dense kernel.  Agreement between the two routes is what the
dimension tests actually certify.

Elimination here is a plain Fraction Gauss-Jordan that shares no code
with the package's fraction-free integer echelon; kernels come back as
canonical (reduced row-echelon) basis tuples, so they compare directly
with ``Subspace.basis``.
"""

from fractions import Fraction

from lietriple.algebra import AlgebraElement, StructureConstants
from lietriple.linalg import zero_vec


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


def _residual_stream(alg: StructureConstants, images, kind: str):
    basis = alg.basis()
    f = lambda x: _apply(alg, images, x)
    if kind in ("lc", "jc", "der", "lieder", "jder"):
        for x in basis:
            for y in basis:
                if kind == "lc":
                    yield (f(_brk(x, y)) - _brk(f(x), y)).coords
                elif kind == "jc":
                    yield (f(_jrd(x, y)) - _jrd(f(x), y)).coords
                elif kind == "der":
                    yield (f(x * y) - (f(x) * y + x * f(y))).coords
                elif kind == "lieder":
                    yield (f(_brk(x, y)) - (_brk(f(x), y) + _brk(x, f(y)))).coords
                else:
                    yield (f(_jrd(x, y)) - (_jrd(f(x), y) + _jrd(x, f(y)))).coords
    elif kind in ("ltc", "ltc_middle", "ltd"):
        for x in basis:
            for y in basis:
                for z in basis:
                    w = _brk(_brk(x, y), z)
                    if kind == "ltc":
                        yield (f(w) - _brk(_brk(f(x), y), z)).coords
                    elif kind == "ltc_middle":
                        yield (f(w) - _brk(_brk(x, f(y)), z)).coords
                    else:
                        yield (
                            f(w)
                            - (
                                _brk(_brk(f(x), y), z)
                                + _brk(_brk(x, f(y)), z)
                                + _brk(_brk(x, y), f(z))
                            )
                        ).coords
    else:
        raise ValueError(kind)


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
