"""Generalized matrix algebras assembled from Morita contexts.

A context (A, B, M, N, zeta, psi) assembles into the block algebra
[[A, M], [N, B]] on the fixed basis ordering [A-block, M-block,
N-block, B-block].  All bimodule and pairing axioms are validated in
one stroke: the assembled multiplication table must be associative,
and a failure reports the offending basis triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Sequence

from .algebra import (
    AlgebraElement,
    StructureConstants,
    center,
    find_unit,
    require_unit,
)
from .errors import (
    AnnihilatorConditionsFail,
    DimensionMismatch,
    InvalidBlockStructure,
    NonUniqueEta,
    NotIdempotent,
    OffDiagonalCenter,
    TrivialIdempotent,
)
from .linalg import (
    Matrix,
    Subspace,
    contract,
    is_zero_vec,
    kernel_of_rows,
    rat,
    rref,
    solve,
    sparse_tensor,
    unit_vec,
    vec,
)


class Bimodule:
    """A bimodule presented by left/right action tensors.

    ``left[i][p][q]``: basis vector i of the left-acting algebra sends
    module basis p to sum_q left[i][p][q] m_q; ``right[p][j][q]`` is the
    mirror for the right-acting algebra.  Module axioms are not checked
    here; the assembled algebra's associativity check covers them.
    """

    __slots__ = ("dim", "left_dim", "right_dim", "left", "right", "_left", "_right")

    def __init__(self, dim: int, left_dim: int, right_dim: int, left, right):
        left = tuple(tuple(vec(row) for row in plane) for plane in left)
        right = tuple(tuple(vec(row) for row in plane) for plane in right)
        if len(left) != left_dim or any(
            len(plane) != dim or any(len(row) != dim for row in plane) for plane in left
        ):
            raise DimensionMismatch("left action tensor has wrong shape")
        if len(right) != dim or any(
            len(plane) != right_dim or any(len(row) != dim for row in plane)
            for plane in right
        ):
            raise DimensionMismatch("right action tensor has wrong shape")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "left_dim", left_dim)
        object.__setattr__(self, "right_dim", right_dim)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_left", sparse_tensor(left))
        object.__setattr__(self, "_right", sparse_tensor(right))

    def __setattr__(self, *_):
        raise AttributeError("Bimodule is immutable")

    @classmethod
    def zero(cls, left_dim: int, right_dim: int) -> "Bimodule":
        return cls(0, left_dim, right_dim, ((),) * left_dim, ())

    @classmethod
    def regular(cls, alg: StructureConstants) -> "Bimodule":
        """The algebra acting on itself by multiplication on both sides."""
        n = alg.dim
        left = alg.table
        right = tuple(
            tuple(alg.table[p][j] for j in range(n)) for p in range(n)
        )
        return cls(n, n, n, left, right)

    def act_left(self, a: Sequence[Fraction], m: Sequence[Fraction]) -> tuple:
        return contract(self._left, a, m, self.dim)

    def act_right(self, m: Sequence[Fraction], b: Sequence[Fraction]) -> tuple:
        return contract(self._right, m, b, self.dim)


class MoritaContext:
    """Two algebras, two bimodules and the two pairings between them."""

    __slots__ = ("A", "B", "M", "N", "zeta", "psi", "_zeta", "_psi")

    def __init__(self, A: StructureConstants, B: StructureConstants, M: Bimodule, N: Bimodule, zeta, psi):
        if M.left_dim != A.dim or M.right_dim != B.dim:
            raise DimensionMismatch("M must be an (A, B)-bimodule")
        if N.left_dim != B.dim or N.right_dim != A.dim:
            raise DimensionMismatch("N must be a (B, A)-bimodule")
        zeta = tuple(tuple(vec(row) for row in plane) for plane in zeta)
        psi = tuple(tuple(vec(row) for row in plane) for plane in psi)
        if len(zeta) != M.dim or any(
            len(plane) != N.dim or any(len(row) != A.dim for row in plane)
            for plane in zeta
        ):
            raise DimensionMismatch("zeta tensor must be M.dim x N.dim x A.dim")
        if len(psi) != N.dim or any(
            len(plane) != M.dim or any(len(row) != B.dim for row in plane)
            for plane in psi
        ):
            raise DimensionMismatch("psi tensor must be N.dim x M.dim x B.dim")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "_zeta", sparse_tensor(zeta))
        object.__setattr__(self, "_psi", sparse_tensor(psi))

    def __setattr__(self, *_):
        raise AttributeError("MoritaContext is immutable")

    def pair_mn(self, m: Sequence[Fraction], n: Sequence[Fraction]) -> tuple:
        return contract(self._zeta, m, n, self.A.dim)

    def pair_nm(self, n: Sequence[Fraction], m: Sequence[Fraction]) -> tuple:
        return contract(self._psi, n, m, self.B.dim)


class GMA:
    """An assembled generalized matrix algebra with its block geometry."""

    __slots__ = ("algebra", "context", "dims", "ranges")

    def __init__(self, algebra: StructureConstants, context: MoritaContext):
        dims = _block_dims(context)
        if algebra.dim != sum(dims):
            raise DimensionMismatch("algebra dimension does not match block dims")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "ranges", block_ranges(dims))

    def __setattr__(self, *_):
        raise AttributeError("GMA is immutable")

    @property
    def dim_a(self) -> int:
        return self.dims[0]

    @property
    def dim_m(self) -> int:
        return self.dims[1]

    @property
    def dim_n(self) -> int:
        return self.dims[2]

    @property
    def dim_b(self) -> int:
        return self.dims[3]

    def block_range(self, block: str) -> range:
        return self.ranges[block]

    def project(self, block: str, coords: Sequence[Fraction]) -> tuple:
        return tuple(coords[i] for i in self.ranges[block])

    def element_from_corners(self, a=None, m=None, n=None, b=None) -> AlgebraElement:
        out = [Fraction(0)] * self.algebra.dim
        for block, part in zip("AMNB", (a, m, n, b)):
            if part is not None:
                positions = self.ranges[block]
                if len(part) != len(positions):
                    raise DimensionMismatch(f"{block} part needs {len(positions)} entries, got {len(part)}")
                for i, x in zip(positions, part):
                    out[i] = rat(x)
        return AlgebraElement(self.algebra, out)

    def standard_idempotent(self) -> AlgebraElement:
        one_a = require_unit(self.context.A)
        return self.element_from_corners(a=one_a.coords)

    def unit(self) -> AlgebraElement | None:
        return find_unit(self.algebra)


# The block multiplication rule: each context tensor, as an attribute
# path, with the corners of its left factor, right factor and product.
_RULES = {
    "A.table": "AAA",
    "B.table": "BBB",
    "M.left": "AMM",  # A acting on M from the left
    "M.right": "MBM",  # B acting on M from the right
    "N.left": "BNN",  # B acting on N from the left
    "N.right": "NAN",  # A acting on N from the right
    "zeta": "MNA",  # pairing M x N -> A
    "psi": "NMB",  # pairing N x M -> B
}


def _block_dims(ctx: MoritaContext) -> tuple[int, int, int, int]:
    return (ctx.A.dim, ctx.M.dim, ctx.N.dim, ctx.B.dim)


def block_ranges(dims: Sequence[int]) -> dict[str, range]:
    """Basis positions of each corner, in the basis order A, M, N, B."""
    ranges, start = {}, 0
    for block, d in zip("AMNB", dims):
        ranges[block] = range(start, start + d)
        start += d
    return ranges


def assemble(ctx: MoritaContext) -> GMA:
    """Build the block algebra of a Morita context.

    Raises NotAssociative (with the failing basis triple) when the
    context violates any bimodule or pairing axiom.
    """
    dims = _block_dims(ctx)
    ranges = block_ranges(dims)
    n = sum(dims)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for path, corners in _RULES.items():
        ri, rj, rk = (ranges[x] for x in corners)
        for i, plane in zip(ri, attrgetter(path)(ctx)):
            for j, row in zip(rj, plane):
                for k, x in zip(rk, row):
                    c[i][j][k] = x

    labels = (
        tuple(f"a:{s}" for s in ctx.A.labels)
        + tuple(f"m{p}" for p in range(ctx.M.dim))
        + tuple(f"n{q}" for q in range(ctx.N.dim))
        + tuple(f"b:{s}" for s in ctx.B.labels)
    )
    return GMA(StructureConstants(c, labels), ctx)


def context_of(algebra: StructureConstants, dims: tuple[int, int, int, int]) -> MoritaContext:
    """Slice a block algebra's table back into a Morita context."""
    if algebra.dim != sum(dims):
        raise DimensionMismatch("block dims do not sum to the algebra dimension")
    ranges = block_ranges(dims)
    t = algebra.table
    part = {}
    for path, corners in _RULES.items():
        ri, rj, rk = (ranges[x] for x in corners)
        part[path] = tuple(tuple(tuple(t[i][j][k] for k in rk) for j in rj) for i in ri)
    ra, rb = ranges["A"], ranges["B"]
    da, dm, dn, db = dims
    A = StructureConstants(part["A.table"], algebra.labels[ra.start : ra.stop])
    B = StructureConstants(part["B.table"], algebra.labels[rb.start : rb.stop])
    M = Bimodule(dm, da, db, part["M.left"], part["M.right"])
    N = Bimodule(dn, db, da, part["N.left"], part["N.right"])
    return MoritaContext(A, B, M, N, part["zeta"], part["psi"])


def gma_from_block_algebra(algebra: StructureConstants, dims: tuple[int, int, int, int]) -> GMA:
    """Wrap an existing algebra as a GMA, verifying the block rules.

    Reassembling the sliced context must reproduce the original table;
    any product leaking outside its corner shows up as a difference.
    """
    ctx = context_of(algebra, dims)
    rebuilt = assemble(ctx)
    if rebuilt.algebra.table != algebra.table:
        raise InvalidBlockStructure(
            "products do not respect the 2x2 block multiplication rules"
        )
    return GMA(algebra, ctx)


def m2_of(alg: StructureConstants) -> GMA:
    """The 2x2 matrix algebra over alg, as a GMA with four equal corners."""
    reg = Bimodule.regular(alg)
    ctx = MoritaContext(alg, alg, reg, reg, alg.table, alg.table)
    return assemble(ctx)


@dataclass(frozen=True)
class PeirceDecomposition:
    """Result of splitting a unital algebra along an idempotent."""

    gma: GMA
    new_to_old: Matrix  # columns = new basis vectors in old coordinates
    old_to_new: Matrix

    def to_new_coords(self, coords: Sequence[Fraction]) -> tuple:
        return self.old_to_new.matvec(coords)

    def to_old_coords(self, coords: Sequence[Fraction]) -> tuple:
        return self.new_to_old.matvec(coords)


def _invert(m: Matrix) -> Matrix:
    n = m.rows
    aug = Matrix([list(m.data[i]) + list(unit_vec(n, i)) for i in range(n)])
    red = rref(aug)
    for i in range(n):
        if red.data[i][i] != 1:
            raise DimensionMismatch("matrix is singular")
    return Matrix([row[n:] for row in red.data], cols=n)


def peirce_from_idempotent(alg: StructureConstants, e: AlgebraElement) -> PeirceDecomposition:
    """Re-base a unital algebra along e into [[eAe, eAf], [fAe, fAf]].

    Everything runs on nonzeros.  The corner xAy (f = 1 - e) is spanned
    by x (e_j y) over the old basis, two sparse products per basis
    vector.  Each entry of the new table is the sparse product of two
    new basis vectors, carried to new coordinates through the nonzero
    columns of old_to_new that the product meets.
    """
    one = require_unit(alg)
    if not (e * e == e):
        raise NotIdempotent("element does not square to itself")
    if e.is_zero() or e == one:
        raise TrivialIdempotent("need e distinct from 0 and 1")
    f = one - e
    n = alg.dim
    units = [unit_vec(n, j) for j in range(n)]
    corners = [
        Subspace(n, [alg.mul_coords(left.coords, alg.mul_coords(u, right.coords)) for u in units])
        for left, right in ((e, e), (e, f), (f, e), (f, f))
    ]
    dims = tuple(s.dim for s in corners)
    if sum(dims) != n:
        raise InvalidBlockStructure("Peirce corners do not span")  # unreachable for true idempotents
    new_basis = [v for s in corners for v in s.basis]
    new_to_old = Matrix.from_cols(new_basis)
    old_to_new = _invert(new_to_old)
    columns = [[(r, x) for r, x in enumerate(old_to_new.col(k)) if x != 0] for k in range(n)]

    def to_new(v: Sequence[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * n
        for k, c in enumerate(v):
            if c != 0:
                for r, t in columns[k]:
                    out[r] += c * t
        return out

    table = [[to_new(alg.mul_coords(x, y)) for y in new_basis] for x in new_basis]
    labels = []
    for t, v in enumerate(new_basis):
        support = [(i, x) for i, x in enumerate(v) if x != 0]
        if len(support) == 1 and support[0][1] == 1:
            labels.append(alg.labels[support[0][0]])
        else:
            labels.append(f"p{t}")
    sc = StructureConstants(table, labels)
    gma = gma_from_block_algebra(sc, dims)
    return PeirceDecomposition(gma, new_to_old, old_to_new)


@dataclass(frozen=True)
class AnnihilatorReport:
    """Per-side result of the annihilating-condition check.

    A side holds when the corresponding annihilator subspace is zero;
    a nonzero basis vector is a concrete witness.
    """

    a_annihilator: Subspace
    b_annihilator: Subspace

    @property
    def holds_a(self) -> bool:
        return self.a_annihilator.is_zero()

    @property
    def holds_b(self) -> bool:
        return self.b_annihilator.is_zero()

    @property
    def holds(self) -> bool:
        return self.holds_a and self.holds_b


def _diagonal_action_rows(u: GMA) -> list[tuple[tuple, tuple]]:
    """Paired rows (a-part, b-part) reading how A and B act on M and N.

    For a basis vector m_p and a coordinate q, the a-part is (a m_p)_q as
    a row over the basis of A and the b-part is (m_p b)_q as a row over
    the basis of B; the rows for N hold (n_p a)_q and (b n_p)_q.
    """
    M, N = u.context.M, u.context.N
    ra, rb = range(u.dim_a), range(u.dim_b)
    rows = [
        (tuple(M.left[i][p][q] for i in ra), tuple(M.right[p][j][q] for j in rb))
        for p in range(M.dim)
        for q in range(M.dim)
    ]
    return rows + [
        (tuple(N.right[p][i][q] for i in ra), tuple(N.left[j][p][q] for j in rb))
        for p in range(N.dim)
        for q in range(N.dim)
    ]


def check_annihilating_conditions(u: GMA) -> AnnihilatorReport:
    """Compute {a : aM = 0, Na = 0} and {b : Mb = 0, bN = 0} as kernels."""
    rows = _diagonal_action_rows(u)
    a_ann = kernel_of_rows(u.dim_a, [row_a for row_a, _ in rows])
    b_ann = kernel_of_rows(u.dim_b, [row_b for _, row_b in rows])
    return AnnihilatorReport(a_ann, b_ann)


@dataclass(frozen=True)
class CenterBlocks:
    """The center of a GMA together with its two corner projections."""

    z: Subspace
    pi_a: Subspace
    pi_b: Subspace


def center_block_description(u: GMA) -> CenterBlocks:
    """Center as diagonal pairs; requires unitality + annihilating conditions."""
    require_unit(u.algebra)
    report = check_annihilating_conditions(u)
    if not report.holds:
        raise AnnihilatorConditionsFail(
            "annihilating conditions fail; the block description does not apply"
        )
    z = center(u.algebra)
    for v in z.basis:
        if not is_zero_vec(u.project("M", v)) or not is_zero_vec(u.project("N", v)):
            raise OffDiagonalCenter("central element with off-diagonal corner")
    pi_a = Subspace(u.dim_a, [u.project("A", v) for v in z.basis])
    pi_b = Subspace(u.dim_b, [u.project("B", v) for v in z.basis])
    return CenterBlocks(z, pi_a, pi_b)


def block_center(u: GMA) -> Subspace:
    """{diag(a,b) : am = mb, na = bn for all basis m, n}, from block data.

    Independent of the raw commutation kernel; used to cross-check the
    center description on qualifying algebras.
    """
    da, db = u.dim_a, u.dim_b
    rows = [row_a + tuple(-x for x in row_b) for row_a, row_b in _diagonal_action_rows(u)]
    pairs = kernel_of_rows(da + db, rows)
    embedded = [u.element_from_corners(a=v[:da], b=v[da:]).coords for v in pairs.basis]
    return Subspace(u.algebra.dim, embedded)


class EtaMap:
    """The diagonal-corner correspondence on the center of a GMA.

    For a in pi_A(Z(U)), eta(a) is the unique b with diag(a, b) central.
    Verified at construction: single-valued, bijective, multiplicative,
    and intertwining (a m = m eta(a), n a = eta(a) n on all basis pairs).
    """

    __slots__ = ("domain", "codomain", "images", "preimages")

    def __init__(self, domain: Subspace, codomain: Subspace, images, preimages):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "images", tuple(vec(v) for v in images))
        object.__setattr__(self, "preimages", tuple(vec(v) for v in preimages))

    def __setattr__(self, *_):
        raise AttributeError("EtaMap is immutable")

    def apply(self, a: Sequence[Fraction]) -> tuple:
        return self._map(self.domain, self.images, a, "domain")

    def apply_inverse(self, b: Sequence[Fraction]) -> tuple:
        return self._map(self.codomain, self.preimages, b, "codomain")

    @staticmethod
    def _map(source: Subspace, targets: tuple, v: Sequence[Fraction], side: str) -> tuple:
        """The combination of targets with v's coefficients in source's basis."""
        coeffs = source.coefficients_of(v)
        if coeffs is None:
            raise DimensionMismatch(f"element outside the {side} of eta")
        out = [Fraction(0)] * (len(targets[0]) if targets else 0)
        for c, target in zip(coeffs, targets):
            for t, x in enumerate(target):
                out[t] += c * x
        return tuple(out)


def eta_map(u: GMA) -> EtaMap:
    blocks = center_block_description(u)
    ctx = u.context
    da, db = u.dim_a, u.dim_b
    ann_z = blocks.z.annihilator()
    a_range, b_range = u.block_range("A"), u.block_range("B")

    def partner(corner_coords, forward: bool) -> tuple:
        # unknown corner y with diag(a, y) (or diag(y, b)) in Z(U)
        fixed_range, free_range = (a_range, b_range) if forward else (b_range, a_range)
        free_dim = db if forward else da
        rows = [tuple(f[i] for i in free_range) for f in ann_z.basis]
        rhs = [
            -sum(f[i] * x for i, x in zip(fixed_range, corner_coords))
            for f in ann_z.basis
        ]
        y, hom = solve(Matrix(rows, cols=free_dim), rhs)
        if not hom.is_zero():
            raise NonUniqueEta("diagonal partner is not unique")
        return y

    images = [partner(a, True) for a in blocks.pi_a.basis]
    preimages = [partner(b, False) for b in blocks.pi_b.basis]
    eta = EtaMap(blocks.pi_a, blocks.pi_b, images, preimages)

    # eta must be a bijection between the corner projections
    if Subspace(db, images) != blocks.pi_b or Subspace(da, preimages) != blocks.pi_a:
        raise NonUniqueEta("corner correspondence is not bijective")
    for a, b in zip(blocks.pi_a.basis, images):
        if eta.apply_inverse(b) != a:
            raise NonUniqueEta("inverse does not invert eta")
    # multiplicativity on all basis pairs (pi_A(Z) is closed under products)
    for a1 in blocks.pi_a.basis:
        for a2 in blocks.pi_a.basis:
            prod_a = ctx.A.mul_coords(a1, a2)
            if not blocks.pi_a.contains_vector(prod_a):
                raise NonUniqueEta("pi_A(Z(U)) is not multiplicatively closed")
            lhs = eta.apply(prod_a)
            rhs = ctx.B.mul_coords(eta.apply(a1), eta.apply(a2))
            if lhs != rhs:
                raise NonUniqueEta("eta is not multiplicative")
    # intertwining identities on all basis pairs
    for a in blocks.pi_a.basis:
        b = eta.apply(a)
        for p in range(u.dim_m):
            m = unit_vec(u.dim_m, p)
            if ctx.M.act_left(a, m) != ctx.M.act_right(m, b):
                raise NonUniqueEta("a m != m eta(a)")
        for q in range(u.dim_n):
            nq = unit_vec(u.dim_n, q)
            if ctx.N.act_right(nq, a) != ctx.N.act_left(b, nq):
                raise NonUniqueEta("n a != eta(a) n")
    return eta
