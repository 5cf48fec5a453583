"""Solution spaces of functional identities on a fixed algebra.

Every identity handled here (Lie/Jordan centralizers, the derivation
family, and their triple versions) is linear in the unknown operator
phi and reads one basis form of the algebra: the product e_i e_j, the
bracket [e_i, e_j], the Jordan product e_i o e_j or the triple bracket
[[e_i, e_j], e_k].  ``_FORMS`` names, for each kind, that form and the
slots phi enters on the right-hand side; a Lie triple centralizer is
phi([[a,b],c]) = [[phi(a),b],c], a Lie triple derivation puts phi in
all three slots of the same form.  Each basis tuple then contributes
one vector equation, read off the form grouped by slot in
``algebra._slot_terms``.  ``_constraint_tuples`` is the only source of
those equations, and ``_tuple_sides`` the only evaluator of one of them
on given operators.  ``_identity_residuals`` runs the evaluator over
every tuple for a membership check.  The solver turns the tuples into
sparse rows indexed by the column-major vectorization of the operator
and feeds them, tuple by tuple, to one exact echelon.  Once a run of
``_STALL`` tuples has added no rank and the kernel K of the rows so far
has dimension at most ``_CLOSE_DIM``, it stops building rows: the
evaluator checks every remaining tuple on the basis of K, and a tuple
that fails there adds its rows and shrinks K.  The result is the kernel
of every row, with the same canonical basis.  So direct membership
checking agrees with the solved space by construction, not by accident.

Both work on ints: the basis forms are ints times a scale, and the
evaluator (like the Thm 3.1 verifier) scales its operators once by
their common denominator.  Fractions are made only for a witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence

from .algebra import (
    AlgebraElement, LinearOperator, StructureConstants, _same_algebra, _slot_terms, basis_tensor, center, find_unit,
    memoized,
)
from .errors import DimensionMismatch, NotGMA, NotUnital
from .gma import GMA, block_ranges, require_block_hypotheses
from .linalg import (
    Matrix,
    Subspace,
    _IntEchelon,
    clear_denominators,
    int_flats,
    kernel_of_rows,
    row_values,
)


class IdentityKind(Enum):
    LIE_CENTRALIZER = "lc"
    LIE_TRIPLE_CENTRALIZER = "ltc"
    JORDAN_CENTRALIZER = "jc"
    DERIVATION = "der"
    LIE_DERIVATION = "lieder"
    JORDAN_DERIVATION = "jder"
    LIE_TRIPLE_DERIVATION = "ltd"
    SINGULAR_JORDAN_DERIVATION = "sjder"


# kind -> (basis form, slots phi enters on the right-hand side); the
# singular kind adds its sparsity pattern to the Jordan derivation rows
_FORMS = {
    IdentityKind.LIE_CENTRALIZER: ("bracket", (0,)),
    IdentityKind.JORDAN_CENTRALIZER: ("jordan", (0,)),
    IdentityKind.LIE_TRIPLE_CENTRALIZER: ("triple", (0,)),
    IdentityKind.DERIVATION: ("product", (0, 1)),
    IdentityKind.LIE_DERIVATION: ("bracket", (0, 1)),
    IdentityKind.JORDAN_DERIVATION: ("jordan", (0, 1)),
    IdentityKind.SINGULAR_JORDAN_DERIVATION: ("jordan", (0, 1)),
    IdentityKind.LIE_TRIPLE_DERIVATION: ("triple", (0, 1, 2)),
}


def _constraint_tuples(alg: StructureConstants, kind: IdentityKind) -> Iterator[tuple]:
    """Yield (tag, w, terms) with the equation phi(w) = sum of the terms.

    ``tag`` runs over the basis tuples in lexicographic order and ``w``
    is the form at ``tag``, both sparse.  A term (p, i, group) is the
    form with phi(e_i) in the kind's p-th slot: the sum over (l', v) in
    ``group`` of phi[l', i] * v.  Tuples whose w and terms all vanish
    are skipped; their rows would be identically 0.  All values are the
    ints of ``basis_tensor``, so both sides carry the form's scale.
    """
    form, slots = _FORMS[kind]
    table = basis_tensor(alg, form)[1]
    groups = [_slot_terms(alg, form, s) for s in slots]
    for tag in itertools.product(range(alg.dim), repeat=3 if form == "triple" else 2):
        terms = []
        for p, s in enumerate(slots):
            group = groups[p].get(tag[:s] + tag[s + 1 :])
            if group:
                terms.append((p, tag[s], group))
        w = table.get(tag, ())
        if w or terms:
            yield tag, w, terms


def _identity_residuals(
    alg: StructureConstants,
    kind: IdentityKind,
    matrix: Matrix,
    slot_matrices: Sequence[Matrix] | None = None,
) -> Iterator[tuple[tuple, tuple, tuple]]:
    """Yield (tag, lhs, rhs) for each constraint tuple whose two sides differ on an operator.

    ``matrix`` is phi on the left-hand side.  On the right, the p-th slot
    phi enters holds ``slot_matrices[p]``, by default ``matrix`` itself.
    The operators, times their common denominator d, are int columns
    {row: int}, so both sides are int lists times s = (form scale) * d;
    only a differing pair is divided by s into Fractions.
    """
    form, slots = _FORMS[kind]
    n = alg.dim
    ops = (matrix, *(slot_matrices or (matrix,) * len(slots)))
    d, (phi, *mats) = _int_columns(n, [x for m in ops for col in zip(*m.data) for x in col])
    s = basis_tensor(alg, form)[0] * d
    for tag, w, terms in _constraint_tuples(alg, kind):
        lhs, rhs = _tuple_sides(n, w, terms, phi, mats)
        if lhs != rhs:
            yield tag, tuple(Fraction(x, s) for x in lhs), tuple(Fraction(x, s) for x in rhs)


def _int_columns(n: int, flat: Sequence) -> tuple[int, list[list[dict[int, int]]]]:
    """(d, the operators) for operators given one after another by their columns.

    Each operator is n columns of n entries in ``flat``; they come back
    as lists of n columns {row: int}, times d, the common denominator of
    every entry.
    """
    d, cols = clear_denominators(
        ((r, x) for r, x in enumerate(flat[k : k + n]) if x) for k in range(0, len(flat), n)
    )
    return d, [list(map(dict, cols[k : k + n])) for k in range(0, len(cols), n)]


def _tuple_sides(n: int, w, terms, phi: list[dict], mats: Sequence[list[dict]]) -> tuple[list[int], list[int]]:
    """Both sides of one constraint tuple, as int lists, on operators held as int columns.

    ``phi`` is the operator on the left-hand side and ``mats[p]`` the one
    in the p-th slot phi enters on the right.  This is the one evaluator
    of an identity: membership and the close of a solve both read it.
    """
    lhs, rhs = [0] * n, [0] * n
    for c, x in w:
        for r, y in phi[c].items():
            lhs[r] += x * y
    for p, i, group in terms:
        col = mats[p][i]
        for lp, v in group:
            y = col.get(lp)
            if y:
                for l, c in v:
                    rhs[l] += y * c
    return lhs, rhs


def _sparsity_rows(n: int, dims: tuple[int, int, int, int]) -> Iterator[dict[int, int]]:
    """Rows forcing zero outside the M->N and N->M corners.

    ``dims`` are the GMA's block sizes, in its basis order A, M, N, B.
    """
    ranges = block_ranges(dims)
    m_range, n_range = ranges["M"], ranges["N"]
    for c in range(n):
        for r in range(n):
            allowed = (c in m_range and r in n_range) or (c in n_range and r in m_range)
            if not allowed:
                yield {c * n + r: 1}


def _resolve(alg_or_gma, kind: IdentityKind) -> tuple[StructureConstants, GMA | None]:
    if isinstance(alg_or_gma, GMA):
        return alg_or_gma.algebra, alg_or_gma
    if kind is IdentityKind.SINGULAR_JORDAN_DERIVATION:
        raise NotGMA("singular Jordan derivations need block structure")
    return alg_or_gma, None


def solve_identity_space(alg_or_gma, kind: IdentityKind) -> Subspace:
    """Canonical basis of all operators satisfying the identity.

    The ambient space is dim^2 with column-major operator coordinates.
    """
    alg, u = _resolve(alg_or_gma, kind)
    # the singular kind's sparsity pattern depends on the block geometry
    dims = u.dims if kind is IdentityKind.SINGULAR_JORDAN_DERIVATION else None
    return _solved_space(alg, kind, dims)


# The solve stops building rows once _STALL tuples in a row have added no
# rank while the kernel of the rows so far has dimension at most
# _CLOSE_DIM; it then closes by evaluating the remaining tuples on that
# kernel's basis.  Checking a tuple on one basis vector costs roughly a
# twelfth to a twentieth of building and deduplicating its rows, so a
# larger kernel keeps building rows: closing at 16 made M4 LTD (dimension
# 16) and T4 LTC/LTD slower than building every row, at 12 no catalog
# solve got slower.
_STALL = 50
_CLOSE_DIM = 12


def _tuple_rows(n: int, w, terms) -> list[dict[int, int]]:
    """The nonzero constraint rows of one tuple, holding their nonzero ints only.

    Row l is sum_c w_c phi[l, c] - sum over terms of phi[l', i] * v_l,
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
def _solved_space(alg: StructureConstants, kind: IdentityKind, dims: tuple | None) -> Subspace:
    """The kernel of every constraint row, closed by evaluation once the rank settles.

    Rows go into one echelon tuple by tuple.  After the stop, each
    remaining tuple is evaluated on the basis of the kernel K of the rows
    so far; a tuple that fails there adds its rows and K shrinks.  Every
    tuple is then eliminated or vanishes on K, and K is the kernel of a
    subset of the rows, so K is the solution space, with its canonical basis.
    """
    n = alg.dim
    ambient = n * n
    slots = len(_FORMS[kind][1])
    ech = _IntEchelon()
    if dims is not None:
        for row in _sparsity_rows(n, dims):
            ech.add(row)
    tuples = _constraint_tuples(alg, kind)
    stall = 0
    for _tag, w, terms in tuples:
        rank = ech.rank
        for row in _tuple_rows(n, w, terms):
            ech.add(row)
        stall = stall + 1 if ech.rank == rank else 0
        if stall >= _STALL and ambient - ech.rank <= _CLOSE_DIM:
            break
    else:
        return ech.kernel(ambient)
    while True:
        space = ech.kernel(ambient)
        _, ops = _int_columns(n, [x for v in space.basis for x in v])
        for _tag, w, terms in tuples:
            if any(lhs != rhs for lhs, rhs in (_tuple_sides(n, w, terms, phi, (phi,) * slots) for phi in ops)):
                for row in _tuple_rows(n, w, terms):
                    ech.add(row)
                break
        else:
            return space


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of a direct membership check, with the first witness."""

    ok: bool
    witness: tuple | None = None  # basis tuple
    lhs: AlgebraElement | None = None
    rhs: AlgebraElement | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_identity_member(alg_or_gma, kind: IdentityKind, op: LinearOperator) -> IdentityCheck:
    """Evaluate every constraint tuple on the operator directly."""
    alg, u = _resolve(alg_or_gma, kind)
    _same_algebra(alg, op.algebra)
    n = alg.dim
    if kind is IdentityKind.SINGULAR_JORDAN_DERIVATION:
        rows = list(_sparsity_rows(n, u.dims))
        for row, x in zip(rows, row_values(rows, op.flatten())):
            if x:
                ((pos, _),) = row.items()
                c, r = divmod(pos, n)
                return IdentityCheck(
                    False, (r, c), alg.element(op.matrix.col(c)), alg.zero()
                )
    for tag, lhs, rhs in _identity_residuals(alg, kind, op.matrix):
        return IdentityCheck(False, tag, alg.element(lhs), alg.element(rhs))
    return IdentityCheck(True)


# ---------------------------------------------------------------------------
#  Block form of operators on a generalized matrix algebra
# ---------------------------------------------------------------------------


# corner map name -> (target corner, source corner), generated from the
# index convention of BlockDecomposition in the order of its fields
CORNERS = {
    f"{prefix}{k}": (target, source)
    for prefix, source in (("alpha", "A"), ("beta", "B"), ("tau", "M"), ("gamma", "N"))
    for k, target in enumerate("AMNB", 1)
}


def _corner_shapes(u: GMA) -> dict[str, tuple[int, int]]:
    return {
        name: (len(u.block_range(target)), len(u.block_range(source)))
        for name, (target, source) in CORNERS.items()
    }


@dataclass(frozen=True)
class BlockDecomposition:
    """The sixteen corner maps of an operator on a block algebra.

    Index convention: suffix 1 targets A, 2 targets M, 3 targets N and
    4 targets B; alpha maps come from A, beta from B, tau from M and
    gamma from N.  ``CORNERS`` holds each map's (target, source) pair.
    """

    gma: GMA
    alpha1: Matrix
    alpha2: Matrix
    alpha3: Matrix
    alpha4: Matrix
    beta1: Matrix
    beta2: Matrix
    beta3: Matrix
    beta4: Matrix
    tau1: Matrix
    tau2: Matrix
    tau3: Matrix
    tau4: Matrix
    gamma1: Matrix
    gamma2: Matrix
    gamma3: Matrix
    gamma4: Matrix

    def __post_init__(self):
        for name, shape in _corner_shapes(self.gma).items():
            mat = getattr(self, name)
            if (mat.rows, mat.cols) != shape:
                raise DimensionMismatch(f"corner {name} is {mat.rows}x{mat.cols}, expected {shape[0]}x{shape[1]}")

    def reassemble(self) -> LinearOperator:
        u = self.gma
        n = u.algebra.dim
        rows = [[Fraction(0)] * n for _ in range(n)]
        for name, (target, source) in CORNERS.items():
            sr = u.block_range(source)
            for r, row in zip(u.block_range(target), getattr(self, name).data):
                rows[r][sr.start : sr.stop] = row
        return LinearOperator(u.algebra, Matrix(rows, cols=n))

    def ranges_inside(self, a_side: Subspace, b_side: Subspace) -> tuple[bool, bool]:
        """(every column of alpha4 lies in b_side, every column of beta1 in a_side): one verdict per side."""
        return tuple(
            all(target.contains_vector(corner.col(i)) for i in range(corner.cols))
            for corner, target in ((self.alpha4, b_side), (self.beta1, a_side))
        )


def _same_gma(u: GMA, d: BlockDecomposition) -> None:
    """Raise unless d slices an operator on u: the same algebra, cut into blocks of the same dims."""
    _same_algebra(u.algebra, d.gma.algebra)
    if d.gma.dims != u.dims:
        raise DimensionMismatch(f"a decomposition into blocks of dims {d.gma.dims} on a GMA with blocks {u.dims}")


def block_decompose(u: GMA, op: LinearOperator) -> BlockDecomposition:
    """Slice an operator into its sixteen corner maps (exact reassembly)."""
    _same_algebra(u.algebra, op.algebra)
    data = op.matrix.data
    corners = {}
    for name, (target, source) in CORNERS.items():
        sr = u.block_range(source)
        corners[name] = Matrix(
            [data[r][sr.start : sr.stop] for r in u.block_range(target)], cols=len(sr)
        )
    return BlockDecomposition(gma=u, **corners)


def build_from_blocks(
    u: GMA,
    alpha1: Matrix,
    beta1: Matrix,
    tau2: Matrix,
    gamma3: Matrix,
    alpha4: Matrix,
    beta4: Matrix,
) -> LinearOperator:
    """Assemble the six-map block form into an operator on the GMA."""
    given = dict(alpha1=alpha1, beta1=beta1, tau2=tau2, gamma3=gamma3, alpha4=alpha4, beta4=beta4)
    corners = {
        name: given[name] if name in given else Matrix.zeros(*shape)
        for name, shape in _corner_shapes(u).items()
    }
    return BlockDecomposition(gma=u, **corners).reassemble()


# ---------------------------------------------------------------------------
#  The structure conditions for Lie triple centralizers in block form
# ---------------------------------------------------------------------------

_SIX_MAP_FIELDS = ("alpha1", "beta1", "tau2", "gamma3", "alpha4", "beta4")


def six_map_shapes(u: GMA) -> dict[str, tuple[int, int]]:
    shapes = _corner_shapes(u)
    return {name: shapes[name] for name in _SIX_MAP_FIELDS}


def _condition_rows(u: GMA) -> Iterator[tuple[str, tuple, list[dict]]]:
    """Yield (label, tag, rows): the block-form conditions as constraint rows.

    A row is one residual coordinate, sparse over the six maps in the
    layout of ``six_maps_from_flat``; a condition holds iff its rows vanish
    on the flattened maps.  Each term of a residual is sign * post(f(pre))
    for a map f: ``pre`` is sparse over f's source, ``post`` pairs (r, image
    of f's output coordinate r), None for the identity.  Both are int
    slices of the basis forms or of the context's scaled sparse tensors.

    The two pairing conditions are implemented in the domain-corrected
    orientation: the second reads beta4(nm) - alpha4(mn) = n tau2(m)
    = gamma3(n) m, which is what expanding the triple bracket of the
    standard idempotent against an M and an N element actually gives.
    """
    ctx = u.context
    A, B, M, N = ctx.A, ctx.B, ctx.M, ctx.N
    # the context's tensors as ints, times their common denominator: each
    # row is linear in them, so its kernel and its vanishing are unchanged
    tensors = (ctx._zeta, ctx._psi, M._left, M._right, N._left, N._right)
    ints = iter(clear_denominators(row for t in tensors for plane in t for row in plane)[1])
    zeta, psi, m_left, m_right, n_left, n_right = [[[next(ints) for _ in p] for p in t] for t in tensors]
    layout, pos = {}, 0
    for name, (r, c) in six_map_shapes(u).items():
        layout[name] = (pos, tuple((i, ((i, 1),)) for i in range(r)))
        pos += r * c

    def rows(*terms) -> list[dict]:
        out: dict[int, dict] = {}
        for sign, name, pre, post in terms:
            start, identity = layout[name]
            post = identity if post is None else tuple(post)
            for k, x in pre:
                col = start + k * len(identity)
                for r, v in post:
                    for l, c in v:
                        row = out.setdefault(l, {})
                        row[col + r] = row.get(col + r, 0) + sign * x * c
        return list(out.values())

    def unit(i: int) -> tuple:
        return ((i, 1),)

    # alpha1 and beta4 satisfy the triple identity on their own corners
    for label, name, alg in (
        ("alpha1 triple identity on A", "alpha1", A),
        ("beta4 triple identity on B", "beta4", B),
    ):
        for tag, w, terms in _constraint_tuples(alg, IdentityKind.LIE_TRIPLE_CENTRALIZER):
            slots = ((-1, name, unit(i), group) for _p, i, group in terms)
            yield label, tag, rows((1, name, w, None), *slots)

    # alpha4 lands in the double commutant of B; beta1 in that of A
    for label, name, source, target in (
        ("[[alpha4(a),b1],b2] = 0", "alpha4", A, B),
        ("[[beta1(b),a1],a2] = 0", "beta1", B, A),
    ):
        groups = sorted(_slot_terms(target, "triple", 0).items())
        for i in range(source.dim):
            for rest, group in groups:
                yield label, (i, *rest), rows((1, name, unit(i), group))

    # alpha4 and beta1 kill second commutators of their source corners
    for label, name, source in (
        ("alpha4 kills [[A,A],A]", "alpha4", A),
        ("beta1 kills [[B,B],B]", "beta1", B),
    ):
        for tag, w in basis_tensor(source, "triple")[1].items():
            yield label, tag, rows((1, name, w, None))

    # pairing conditions over all basis m, n
    for p in range(M.dim):
        for q in range(N.dim):
            mn, nm = zeta[p][q], psi[q][p]
            lead_a = ((1, "alpha1", mn, None), (-1, "beta1", nm, None))
            lead_b = ((1, "beta4", nm, None), (-1, "alpha4", mn, None))
            for label, lead, name, i, post in (
                ("alpha1(mn) - beta1(nm) = tau2(m) n", lead_a, "tau2", p, [t[q] for t in zeta]),
                ("alpha1(mn) - beta1(nm) = m gamma3(n)", lead_a, "gamma3", q, zeta[p]),
                ("beta4(nm) - alpha4(mn) = n tau2(m)", lead_b, "tau2", p, psi[q]),
                ("beta4(nm) - alpha4(mn) = gamma3(n) m", lead_b, "gamma3", q, [t[p] for t in psi]),
            ):
                yield label, (p, q), rows(*lead, (-1, name, unit(i), enumerate(post)))

    # module conditions of t = tau2 on M and t = gamma3 on N: for x in the
    # source corner acting on the given side, t(x.m) = x.t(m) and t(x.m)
    # = same(x).m - m.cross(x), the cross term acting from the other side;
    # each action tensor is indexed [x][m], the right actions transposed
    m_right, n_right = tuple(zip(*m_right)), tuple(zip(*n_right))
    for t, act, cross_act, same, cross, label_x, label_same in (
        ("tau2", m_left, m_right, "alpha1", "alpha4",
         "tau2(am) = a tau2(m)", "tau2(am) = alpha1(a)m - m alpha4(a)"),
        ("tau2", m_right, m_left, "beta4", "beta1",
         "tau2(mb) = tau2(m) b", "tau2(mb) = m beta4(b) - beta1(b)m"),
        ("gamma3", n_right, n_left, "alpha1", "alpha4",
         "gamma3(na) = gamma3(n) a", "gamma3(na) = n alpha1(a) - alpha4(a)n"),
        ("gamma3", n_left, n_right, "beta4", "beta1",
         "gamma3(bn) = b gamma3(n)", "gamma3(bn) = beta4(b)n - n beta1(b)"),
    ):
        for i, x_acts in enumerate(act):
            for p, xm in enumerate(x_acts):
                t_xm = (1, t, xm, None)
                yield label_x, (i, p), rows(t_xm, (-1, t, unit(p), enumerate(x_acts)))
                yield label_same, (i, p), rows(
                    t_xm,
                    (-1, same, unit(i), enumerate(y[p] for y in act)),
                    (1, cross, unit(i), enumerate(y[p] for y in cross_act)),
                )


@dataclass(frozen=True)
class Thm31Report:
    """Outcome of the block-form verification, with named failures."""

    passed: bool
    failures: tuple[tuple[str, tuple], ...]

    def __bool__(self) -> bool:
        return self.passed


_VANISHING_CORNERS = tuple(name for name in CORNERS if name not in _SIX_MAP_FIELDS)


def verify_thm31_conditions(u: GMA, d: BlockDecomposition) -> Thm31Report:
    """Check the sixteen-corner shape and all structure conditions.

    A condition fails when one of its ``_condition_rows`` does not vanish
    on the six maps, flattened column-major and scaled to ints.
    """
    _same_gma(u, d)
    if find_unit(u.algebra) is None:
        raise NotUnital("block-form conditions need a unital algebra")
    failures = [
        (f"corner {name} must vanish", ()) for name in _VANISHING_CORNERS if not getattr(d, name).is_zero()
    ]
    (flat,) = int_flats([x for name in _SIX_MAP_FIELDS for col in zip(*getattr(d, name).data) for x in col])
    for label, tag, rows in _condition_rows(u):
        if any(row_values(rows, flat)):
            failures.append((label, tag))
    return Thm31Report(not failures, tuple(failures))


def six_map_solution_space(u: GMA) -> Subspace:
    """All six-map tuples satisfying the structure conditions, as a subspace.

    Unknowns are the six matrices in the fixed field order, each
    column-major.  The rows are ``_condition_rows``, the ones the
    verifier evaluates, so both read one statement of the conditions.
    """
    total = sum(r * c for r, c in six_map_shapes(u).values())
    return kernel_of_rows(total, (row for _label, _tag, rows in _condition_rows(u) for row in rows))


def six_maps_from_flat(u: GMA, flat: Sequence[Fraction]) -> dict[str, Matrix]:
    """Split a flat vector into the six maps, each read column-major."""
    shapes = six_map_shapes(u)
    total = sum(r * c for r, c in shapes.values())
    if len(flat) != total:
        raise DimensionMismatch(f"six-map vector has {len(flat)} entries, expected {total}")
    out, pos = {}, 0
    for fname, (r, c) in shapes.items():
        out[fname] = Matrix([[flat[pos + j * r + i] for j in range(c)] for i in range(r)], cols=c)
        pos += r * c
    return out


@dataclass(frozen=True)
class Cor32Report:
    """Strengthened range conditions under the annihilating hypotheses."""

    alpha4_into_center_b: bool
    beta1_into_center_a: bool

    @property
    def passed(self) -> bool:
        return self.alpha4_into_center_b and self.beta1_into_center_a

    def __bool__(self) -> bool:
        return self.passed


def corollary32_strengthen(u: GMA, d: BlockDecomposition) -> Cor32Report:
    """range(alpha4) inside Z(B) and range(beta1) inside Z(A)."""
    _same_gma(u, d)
    require_block_hypotheses(u, "the strengthened range check")
    return Cor32Report(*d.ranges_inside(center(u.context.A), center(u.context.B)))
