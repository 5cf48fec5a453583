"""Generalized matrix algebras: an algebra with its basis cut into corners.

``GMA(algebra, dims)`` is the one way to build one.  It slices the
Morita context (A, B, M, N, zeta, psi) out of the nonzeros of the
algebra's table on the basis ordering [A-block, M-block, N-block,
B-block], refusing a product that breaks the 2x2 block rules.  Each
context tensor is given as its nonzeros and held in sparse form, like
an algebra's table.  ``assemble`` hands the nonzeros of a context's
block algebra [[A, M], [N, B]] to ``GMA``, so all bimodule and pairing
axioms are validated in one stroke: the assembled multiplication table
must be associative, and a failure reports the offending basis triple.

"diag(a, b) commutes with M and N" is stated once, as the rows of
``_commutation_rows``: the annihilating conditions are the kernels of
their A- and B-halves, the block center is their kernel, eta's
intertwining check evaluates them on a + eta(a), and Thm 4.1's
center-shape conditions weight them by a candidate m0 or n0.  eta is
read off the echelon of Z(U)'s basis as pairs (a, b) and (b, a); a
Peirce split reads its change of basis off the corner parts x e_j y.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Sequence

from .algebra import (
    AlgebraElement,
    StructureConstants,
    center,
    find_unit,
    memoized,
    require_unit,
)
from .errors import (
    AnnihilatorConditionsFail,
    DimensionMismatch,
    InvalidBlockStructure,
    NonUniqueEta,
    NotIdempotent,
    NotUnital,
    OffDiagonalCenter,
    TrivialIdempotent,
)
from .linalg import (
    _ZERO,
    Matrix,
    Subspace,
    checked_tensor,
    combination,
    kernel_of_rows,
    rat,
    tensor_entries,
    unit_vec,
    vec,
)
from .record import Frozen, Record


class Bimodule(Frozen):
    """A bimodule presented by the nonzeros of its left/right action tensors.

    ``left[i, p, q]``: basis vector i of the left-acting algebra sends
    module basis p to the sum over q of left[i, p, q] m_q; ``right[p, j, q]``
    is the mirror for the right-acting algebra.  Module axioms are not
    checked here; the assembled algebra's associativity check covers them.
    """

    __slots__ = ("dim", "left_dim", "right_dim", "_left", "_right")

    def __init__(self, dim: int, left_dim: int, right_dim: int, left, right):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "left_dim", left_dim)
        object.__setattr__(self, "right_dim", right_dim)
        object.__setattr__(self, "_left", checked_tensor((left_dim, dim, dim), left, "left action"))
        object.__setattr__(self, "_right", checked_tensor((dim, right_dim, dim), right, "right action"))

    def __reduce__(self):
        return Bimodule, (self.dim, self.left_dim, self.right_dim, tensor_entries(self._left), tensor_entries(self._right))

    @classmethod
    def zero(cls, left_dim: int, right_dim: int) -> "Bimodule":
        return cls(0, left_dim, right_dim, {}, {})

    @classmethod
    def regular(cls, alg: StructureConstants) -> "Bimodule":
        """The algebra acting on itself by multiplication on both sides."""
        table = tensor_entries(alg._sparse)
        return cls(alg.dim, alg.dim, alg.dim, table, table)


class MoritaContext(Frozen):
    """Two algebras, two bimodules and the nonzeros of the two pairings between them."""

    __slots__ = ("A", "B", "M", "N", "_zeta", "_psi")

    def __init__(self, A: StructureConstants, B: StructureConstants, M: Bimodule, N: Bimodule, zeta, psi):
        if M.left_dim != A.dim or M.right_dim != B.dim:
            raise DimensionMismatch("M must be an (A, B)-bimodule")
        if N.left_dim != B.dim or N.right_dim != A.dim:
            raise DimensionMismatch("N must be a (B, A)-bimodule")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "_zeta", checked_tensor((M.dim, N.dim, A.dim), zeta, "zeta"))
        object.__setattr__(self, "_psi", checked_tensor((N.dim, M.dim, B.dim), psi, "psi"))

    def __reduce__(self):
        return MoritaContext, (self.A, self.B, self.M, self.N, tensor_entries(self._zeta), tensor_entries(self._psi))


class GMA(Frozen):
    """An algebra with its basis cut into the corners A, M, N, B, in that order.

    The context is sliced out of the algebra by ``context_of``, which
    refuses a nonzero c[i][j][k] off the corner triples of ``_RULES``: the
    sliced context's block table is then the algebra's, so no second
    algebra is built.  The algebra and the dims thus fix the GMA, and
    ``content_hash``, the algebra's hash with the dims, keys its entries
    in ``algebra._CACHE``.
    """

    __slots__ = ("algebra", "context", "dims", "ranges", "content_hash")

    def __init__(self, algebra: StructureConstants, dims: tuple[int, int, int, int]):
        context = context_of(algebra, dims)
        dims = tuple(dims)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "ranges", block_ranges(dims))
        object.__setattr__(self, "content_hash", f"{algebra.content_hash}/{','.join(map(str, dims))}")

    def __reduce__(self):
        return GMA, (self.algebra, self.dims)

    def _key(self):
        return self.content_hash

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


# The block multiplication rule: each context tensor, as the attribute
# path of its held form, with the corners of its left factor, right
# factor and product.
_RULES = {
    "A._sparse": "AAA",
    "B._sparse": "BBB",
    "M._left": "AMM",  # A acting on M from the left
    "M._right": "MBM",  # B acting on M from the right
    "N._left": "BNN",  # B acting on N from the left
    "N._right": "NAN",  # A acting on N from the right
    "_zeta": "MNA",  # pairing M x N -> A
    "_psi": "NMB",  # pairing N x M -> B
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


def _block_table(ctx: MoritaContext) -> dict:
    """A context's block algebra table as nonzeros: those of its eight tensors, each at the corners ``_RULES`` gives it."""
    ranges = block_ranges(_block_dims(ctx))
    return {
        tuple(ranges[block][p] for block, p in zip(corners, key)): x
        for path, corners in _RULES.items()
        for key, x in tensor_entries(attrgetter(path)(ctx)).items()
    }


def block_labels(a_labels: Sequence[str], dim_m: int, dim_n: int, b_labels: Sequence[str]) -> tuple[str, ...]:
    """The basis labels of a block algebra in corner order: a:<label>, m<p>, n<q>, b:<label>."""
    return (
        tuple(f"a:{s}" for s in a_labels)
        + tuple(f"m{p}" for p in range(dim_m))
        + tuple(f"n{q}" for q in range(dim_n))
        + tuple(f"b:{s}" for s in b_labels)
    )


def assemble(ctx: MoritaContext) -> GMA:
    """Build the block algebra of a Morita context.

    Raises NotAssociative (with the failing basis triple) when the
    context violates any bimodule or pairing axiom.  The GMA holds the
    algebra's corner slices, which carry ctx's tensors.
    """
    labels = block_labels(ctx.A.labels, ctx.M.dim, ctx.N.dim, ctx.B.labels)
    dims = _block_dims(ctx)
    return GMA(StructureConstants(sum(dims), _block_table(ctx), labels), dims)


def context_of(algebra: StructureConstants, dims: tuple[int, int, int, int]) -> MoritaContext:
    """Slice a block algebra's table into a Morita context; dims are four ints >= 0, not bools.

    Each nonzero c[i][j][k] goes to the tensor of ``_RULES`` for the corners
    of i, j and k; one at no such corner triple raises InvalidBlockStructure
    once A and B are built (a corner that is not associative raises first).
    """
    if not (isinstance(dims, (tuple, list)) and len(dims) == 4 and all(type(d) is int and d >= 0 for d in dims)):
        raise DimensionMismatch("block dims must be four integers >= 0")
    if algebra.dim != sum(dims):
        raise DimensionMismatch("block dims do not sum to the algebra dimension")
    ranges = block_ranges(dims)
    corner = [block for block in "AMNB" for _ in ranges[block]]
    place = [i - ranges[block].start for i, block in enumerate(corner)]
    path_of = {corners: path for path, corners in _RULES.items()}
    part = {path: {} for path in _RULES}
    for (i, j, k), x in tensor_entries(algebra._sparse).items():
        # an entry at no corner triple of _RULES goes to part[None]
        part.setdefault(path_of.get(corner[i] + corner[j] + corner[k]), {})[place[i], place[j], place[k]] = x
    da, dm, dn, db = dims
    A = StructureConstants(da, part["A._sparse"], [algebra.labels[i] for i in ranges["A"]])
    B = StructureConstants(db, part["B._sparse"], [algebra.labels[i] for i in ranges["B"]])
    if None in part:
        raise InvalidBlockStructure("products do not respect the 2x2 block multiplication rules")
    M = Bimodule(dm, da, db, part["M._left"], part["M._right"])
    N = Bimodule(dn, db, da, part["N._left"], part["N._right"])
    return MoritaContext(A, B, M, N, part["_zeta"], part["_psi"])


@memoized
def m2_of(alg: StructureConstants) -> GMA:
    """The 2x2 matrix algebra over alg, as a GMA with four equal corners (memoized)."""
    reg = Bimodule.regular(alg)
    table = tensor_entries(alg._sparse)
    return assemble(MoritaContext(alg, alg, reg, reg, table, table))


class PeirceDecomposition(Record):
    """Result of splitting a unital algebra along an idempotent."""

    gma: GMA
    new_to_old: Matrix  # columns = new basis vectors in old coordinates
    old_to_new: Matrix


def peirce_from_idempotent(alg: StructureConstants, e: AlgebraElement) -> PeirceDecomposition:
    """Re-base a unital algebra along e into [[eAe, eAf], [fAe, fAf]].

    Everything runs on nonzeros.  The corner xAy (f = 1 - e) is spanned
    by the parts x (e_j y), two sparse products per old basis vector e_j;
    their coefficients in the corner bases make column j of old_to_new.
    Each entry of the new table is the sparse product of two new basis
    vectors, carried to new coordinates through the nonzero columns of
    old_to_new that the product meets.
    """
    one = require_unit(alg)
    if not (e * e == e):
        raise NotIdempotent("element does not square to itself")
    if e.is_zero() or e == one:
        raise TrivialIdempotent("need e distinct from 0 and 1")
    f = one - e
    n = alg.dim
    units = [unit_vec(n, j) for j in range(n)]
    parts = [
        [alg.mul_coords(left.coords, alg.mul_coords(u, right.coords)) for u in units]
        for left, right in ((e, e), (e, f), (f, e), (f, f))
    ]
    corners = [Subspace(n, p) for p in parts]
    dims = tuple(s.dim for s in corners)
    if sum(dims) != n:
        raise InvalidBlockStructure("Peirce corners do not span")  # unreachable for true idempotents
    new_basis = [v for s in corners for v in s.basis]
    new_coords = [[x for s, p in zip(corners, parts) for x in s.coefficients_of(p[j])] for j in range(n)]
    products = ((a, b, alg.mul_coords(x, y)) for a, x in enumerate(new_basis) for b, y in enumerate(new_basis))
    table = {(a, b, k): v for a, b, w in products for k, v in enumerate(combination(w, new_coords, n)) if v}
    labels = []
    for t, v in enumerate(new_basis):
        support = [(i, x) for i, x in enumerate(v) if x != 0]
        if len(support) == 1 and support[0][1] == 1:
            labels.append(alg.labels[support[0][0]])
        else:
            labels.append(f"p{t}")
    sc = StructureConstants(n, table, labels)
    gma = GMA(sc, dims)
    return PeirceDecomposition(gma, Matrix.from_cols(new_basis), Matrix.from_cols(new_coords))


class AnnihilatorReport(Record):
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


@memoized
def _commutation_rows(u: GMA) -> dict[str, tuple]:
    """The condition "diag(a, b) commutes with M and N", as rows over the pairs (a, b) in Q^(dim A + dim B).

    Entry [p][q] of block M reads coordinate q of a m_p - m_p b; entry
    [p][q] of block N reads coordinate q of n_p a - b n_p.
    """
    M, N = u.context.M, u.context.N
    da, width = u.dim_a, u.dim_a + u.dim_b
    rows = {block: [[[_ZERO] * width for _ in range(mod.dim)] for _ in range(mod.dim)] for block, mod in (("M", M), ("N", N))}
    # each nonzero term as (block, p, q, column, value)
    for block, p, q, col, x in (
        *(("M", p, q, i, x) for (i, p, q), x in tensor_entries(M._left).items()),
        *(("M", p, q, da + j, -x) for (p, j, q), x in tensor_entries(M._right).items()),
        *(("N", p, q, i, x) for (p, i, q), x in tensor_entries(N._right).items()),
        *(("N", p, q, da + j, -x) for (j, p, q), x in tensor_entries(N._left).items()),
    ):
        rows[block][p][q][col] = x
    return {block: tuple(tuple(map(tuple, plane)) for plane in planes) for block, planes in rows.items()}


def _all_rows(planes: dict[str, tuple]) -> list[tuple]:
    return [row for block in planes.values() for plane in block for row in plane]


@memoized
def check_annihilating_conditions(u: GMA) -> AnnihilatorReport:
    """Compute {a : aM = 0, Na = 0} and {b : Mb = 0, bN = 0} as the kernels of the commutation rows' halves."""
    da = u.dim_a
    rows = _all_rows(_commutation_rows(u))
    a_ann = kernel_of_rows(da, [row[:da] for row in rows])
    b_ann = kernel_of_rows(u.dim_b, [row[da:] for row in rows])
    return AnnihilatorReport(a_ann, b_ann)


def block_hypotheses_hold(u: GMA) -> bool:
    """Is U unital with the annihilating conditions holding, as the block-form results assume?"""
    return find_unit(u.algebra) is not None and check_annihilating_conditions(u).holds


def require_block_hypotheses(u: GMA, what: str) -> None:
    """Raise unless U is unital and the annihilating conditions hold; ``what`` names the caller."""
    if find_unit(u.algebra) is None:
        raise NotUnital(f"{what} needs a unital algebra")
    if not check_annihilating_conditions(u).holds:
        raise AnnihilatorConditionsFail("annihilating conditions do not hold")


class CenterBlocks(Record):
    """The center of a GMA together with its two corner projections."""

    z: Subspace
    pi_a: Subspace
    pi_b: Subspace


@memoized
def center_block_description(u: GMA) -> CenterBlocks:
    """Center as diagonal pairs; requires unitality + annihilating conditions."""
    require_block_hypotheses(u, "the center block description")
    z = center(u.algebra)
    for v in z.basis:
        if any(u.project("M", v)) or any(u.project("N", v)):
            raise OffDiagonalCenter("central element with off-diagonal corner")
    pi_a = Subspace(u.dim_a, [u.project("A", v) for v in z.basis])
    pi_b = Subspace(u.dim_b, [u.project("B", v) for v in z.basis])
    return CenterBlocks(z, pi_a, pi_b)


def diagonal_kernel(u: GMA, rows) -> Subspace:
    """{diag(a, b) : (a, b) kills every row}, for rows over the pairs (a, b) in Q^(dim A + dim B)."""
    da = u.dim_a
    pairs = kernel_of_rows(da + u.dim_b, rows)
    return Subspace(u.algebra.dim, [u.element_from_corners(a=v[:da], b=v[da:]).coords for v in pairs.basis])


def block_center(u: GMA) -> Subspace:
    """{diag(a,b) : am = mb, na = bn for all basis m, n}, the kernel of the commutation rows.

    Independent of the raw commutation kernel; used to cross-check the
    center description on qualifying algebras.
    """
    return diagonal_kernel(u, _all_rows(_commutation_rows(u)))


class EtaMap(Frozen):
    """The diagonal-corner correspondence on the center of a GMA.

    For a in pi_A(Z(U)), eta(a) is the unique b with diag(a, b) central.
    ``eta_map`` verifies it: single-valued, bijective, multiplicative,
    and intertwining (a m = m eta(a), n a = eta(a) n on all basis pairs).
    """

    __slots__ = ("domain", "codomain", "images", "preimages")

    def __init__(self, domain: Subspace, codomain: Subspace, images, preimages):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "images", tuple(vec(v) for v in images))
        object.__setattr__(self, "preimages", tuple(vec(v) for v in preimages))

    def __reduce__(self):
        return EtaMap, (self.domain, self.codomain, self.images, self.preimages)

    def _key(self):
        return (self.domain, self.codomain, self.images, self.preimages)

    def apply(self, a: Sequence[Fraction]) -> tuple:
        return self._map(self.domain, self.codomain, self.images, a, "domain")

    def apply_inverse(self, b: Sequence[Fraction]) -> tuple:
        return self._map(self.codomain, self.domain, self.preimages, b, "codomain")

    @staticmethod
    def _map(source: Subspace, target: Subspace, images: tuple, v: Sequence[Fraction], side: str) -> tuple:
        """The combination of images with v's coefficients in source's basis, in target's ambient."""
        coeffs = source.coefficients_of(v)
        if coeffs is None:
            raise DimensionMismatch(f"element outside the {side} of eta")
        return combination(coeffs, images, target.ambient)


def _partners(ambient: int, d: int, pairs: list[tuple]) -> list[tuple]:
    """The partner y of each canonical basis vector x of the first d coordinates, read off the rref of the pairs x + y.

    A pivot past the first d coordinates is a pair (0, y): partners are not unique.
    """
    span = Subspace(ambient, pairs)
    if span.pivots and span.pivots[-1] >= d:
        raise NonUniqueEta("diagonal partner is not unique")
    return [v[d:] for v in span.basis]


@memoized
def eta_map(u: GMA) -> EtaMap:
    """eta on the basis of pi_A(Z(U)) and its inverse on pi_B(Z(U)), read off Z(U)'s basis, then verified."""
    blocks = center_block_description(u)
    ctx = u.context
    da, db = u.dim_a, u.dim_b
    corners = [(u.project("A", v), u.project("B", v)) for v in blocks.z.basis]
    images = _partners(da + db, da, [a + b for a, b in corners])
    preimages = _partners(da + db, db, [b + a for a, b in corners])
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
    # intertwining identities: the commutation rows vanish on a + eta(a)
    planes = _commutation_rows(u)
    checks = [
        (Matrix([row for plane in planes[block] for row in plane], cols=da + db), message)
        for block, message in (("M", "a m != m eta(a)"), ("N", "n a != eta(a) n"))
    ]
    for a in blocks.pi_a.basis:
        pair = a + eta.apply(a)
        for rows, message in checks:
            if any(rows.matvec(pair)):
                raise NonUniqueEta(message)
    return eta
