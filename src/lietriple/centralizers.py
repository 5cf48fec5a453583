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
those equations (``symmetry.triple_tuple`` reads one tuple's off the
bracket form), and ``_tuple_sides`` the only evaluator of one of them on
given operators.  ``_identity_residuals`` finds the tuples that fail on
given operators with ``algebra._failing_tags``, one packed pass per prefix
of the tuples, and evaluates those alone.  For lieder, jder, sjder and
ltd, phi fills both mirrored arguments of a form symmetric (Jordan) or
antisymmetric (bracket, triple) in them, so the tuple (j, i, ...) only
repeats or negates (i, j, ...), and the tuples with i > j are skipped;
for bracket and triple, (i, i, ...) vanishes identically and is skipped
too.  The first failing tuple keeps i <= j, so a witness is unchanged.
The skip needs the same operator in every slot: ``_identity_residuals``
with ``slot_flats`` (the direct route of the generalized Lie triple
derivation check) reads every tuple.  The solver turns the tuples into
sparse rows indexed by the column-major vectorization of the operator
and feeds them, tuple by tuple, to one exact echelon.  The basis of the
kernel K of the rows so far can be packed into one int operator by
Kronecker substitution (D. Harvey, J. Symbolic Comput. 44, 2009), so one
call of the evaluator checks a tuple on all of K.  Once a pack exists,
every tuple is evaluated on it before any row is built, and only a
tuple that fails there adds its rows.  A pack made before later rows
came in is the kernel of fewer rows, so it contains K, and a tuple
vanishing there vanishes on K too.  A failing tuple that adds no rank
was eliminated for nothing, and when that lost work reaches the least a
pack costs, K is packed again.  The result is the kernel of every row,
with the same canonical basis.  On the matrix units of M_m, in any basis
order, the two triple kinds stop before the walk: the rows of one tuple
per orbit of the algebra's symmetry group, read off the bracket form
and closed under the group's generators, already span every row, which
``symmetry`` proves.  ``is_identity_member`` reads "holds" off a solved
space the fact table already holds, and walks the tuples otherwise or
for a non-member.  The re-checks of the solver's own output go through
``_walked_membership``, the one cached walk, so they stay an independent
check of the solver.  ``_verdict`` builds every check from its first
failing residual, and ``_require_member`` is the one refusal of a phi
off a triple identity.

Both work on ints: the basis forms are ints times a scale, and the
evaluator scales its operators once by their common denominator.  So
does the Thm 3.1 verifier, on the six maps: it reads the rows of
``_condition_rows``, built once per GMA and held in its fact table as
(column, int) pairs, which ``six_map_solution_space`` solves.
Fractions are made only for a witness.
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .algebra import (
    AlgebraElement, LinearOperator, StructureConstants, _digit_shift, _failing_tags, _packed, _same_algebra,
    _slot_terms, _tuple_rows, basis_tensor, cached, center, find_unit, held, memoized,
)
from .errors import DimensionMismatch, NotGMA, NotLTC, NotLTD, NotUnital
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
from .record import Record
from .symmetry import symmetric_space


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


def _tags(n: int, form: str, slots: tuple, every: bool) -> Iterator[tuple]:
    """The basis tuples of a form in lexicographic order; unless ``every``, less the mirrored ones.

    With phi in slots 0 and 1 of the Jordan form, only i <= j is kept;
    of the bracket or the triple form, only i < j (module docstring).
    """
    if every or form == "product" or slots[:2] != (0, 1):
        return itertools.product(range(n), repeat=3 if form == "triple" else 2)
    pairs = (itertools.combinations_with_replacement if form == "jordan" else itertools.combinations)(range(n), 2)
    return ((i, j, k) for i, j in pairs for k in range(n)) if form == "triple" else pairs


def _constraint_tuples(alg: StructureConstants, kind: IdentityKind, tags: Iterable[tuple] | None = None) -> Iterator[tuple]:
    """Yield (tag, w, terms) with the equation phi(w) = sum of the terms.

    ``tag`` runs over ``tags``, by default the basis tuples of ``_tags``
    less the mirrored ones, in lexicographic order, and ``w`` is the form
    at ``tag``, both sparse.  A term (p, i, group) is the form with
    phi(e_i) in the kind's p-th slot: the sum over (l', v) in ``group`` of
    phi[l', i] * v.  Tuples whose w and terms all vanish are skipped;
    their rows would be identically 0.  All values are the ints of
    ``basis_tensor``, so both sides carry the form's scale.
    """
    form, slots = _FORMS[kind]
    table = basis_tensor(alg, form)[1]
    if not table:  # the form vanishes identically, and so does every tuple
        return
    groups = [_slot_terms(alg, form, s) for s in slots]
    for tag in _tags(alg.dim, form, slots, False) if tags is None else tags:
        terms = []
        for p, s in enumerate(slots):
            group = groups[p].get(tag[:s] + tag[s + 1 :])
            if group:
                terms.append((p, tag[s], group))
        w = table.get(tag, ())
        if w or terms:
            yield tag, w, terms


def _identity_residuals(
    alg: StructureConstants, kind: IdentityKind, flat: Sequence, slot_flats: Sequence[Sequence] | None = None
) -> Iterator[tuple[tuple, tuple, tuple]]:
    """Yield (tag, lhs, rhs) for each constraint tuple whose two sides differ on an operator.

    ``flat`` is phi on the left-hand side, column-major.  On the right,
    the p-th slot phi enters holds ``slot_flats[p]``, by default ``flat``
    itself.  The operators, times their common denominator d, are int
    columns {row: int}.  ``algebra._failing_tags`` finds the failing tuples,
    one packed pass per prefix, and ``_tuple_sides`` evaluates each: both
    sides are int lists times s = (form scale) * d, divided by s into
    Fractions.
    """
    form, slots = _FORMS[kind]
    n = alg.dim
    d, ints = clear_denominators(((k, x) for k, x in enumerate(op) if x) for op in (flat, *(slot_flats or ())))
    phi, *mats = (_columns(n, (v,), 0) for v in ints)
    mats = mats or (phi,) * len(slots)
    scale, table = basis_tensor(alg, form)
    if not table:  # the form vanishes identically, and so does every tuple
        return
    # a mirrored tuple is a copy of its twin only when every slot holds phi
    for tag in _failing_tags(alg, form, slots, _tags(n, form, slots, slot_flats is not None), phi, mats):
        ((_, w, terms),) = _constraint_tuples(alg, kind, (tag,))
        lhs, rhs = _tuple_sides(n, w, terms, phi, mats)
        yield tag, tuple(Fraction(x, scale * d) for x in lhs), tuple(Fraction(x, scale * d) for x in rhs)


def _columns(n: int, vectors: Iterable[Iterable[tuple[int, int]]], shift: int) -> list[dict[int, int]]:
    """The n int columns {r: int} of sum_b v_b * 2^(shift*b), each int vector v_b as pairs (c*n + r, x).

    One vector at shift 0 gives its own operator; several give a pack.
    """
    cols = [{} for _ in range(n)]
    for k, x in _packed(enumerate(vectors), shift).items():
        cols[k // n][k % n] = x
    return cols


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


def _resolve(alg_or_gma, kind: IdentityKind) -> tuple[StructureConstants, tuple | None]:
    """(algebra, dims), the one gate of what a kind reads: only the singular kind reads a GMA's block dims, and needs one."""
    sjder = kind is IdentityKind.SINGULAR_JORDAN_DERIVATION
    if isinstance(alg_or_gma, GMA):
        return alg_or_gma.algebra, alg_or_gma.dims if sjder else None
    if sjder:
        raise NotGMA("singular Jordan derivations need a block algebra")
    return alg_or_gma, None


def solve_identity_space(alg_or_gma, kind: IdentityKind) -> Subspace:
    """Canonical basis of all operators satisfying the identity.

    The ambient space is dim^2 with column-major operator coordinates.
    """
    alg, dims = _resolve(alg_or_gma, kind)
    return _solved_space(alg, kind, dims)


def _packed_kernel(alg: StructureConstants, kind: IdentityKind, vectors: list[dict[int, int]]) -> list[dict[int, int]]:
    """Int kernel vectors k_b, sparse over operator coordinates, as one operator sum_b k_b * 2^(B*b) in int columns.

    This is Kronecker substitution.  The evaluator is linear, so each
    coordinate of lhs - rhs on the packed operator is sum_b r_b * 2^(B*b),
    with r_b that coordinate on k_b.  For m the largest |entry| of the
    k_b, ``algebra._digit_shift`` gives B with |r_b| < 2^(B-1); balanced
    digits that small are unique, so the packed sides agree iff they
    agree on every k_b.
    """
    m = max((abs(x) for v in vectors for x in v.values()), default=0)
    return _columns(alg.dim, (v.items() for v in vectors), _digit_shift(alg, *_FORMS[kind], m))


@memoized
def _solved_space(alg: StructureConstants, kind: IdentityKind, dims: tuple | None) -> Subspace:
    """The kernel of every constraint row, each tuple evaluated on a packed kernel before its rows are built.

    A triple kind on the matrix units of M_m, in any basis order, returns
    before the walk with ``symmetry.symmetric_space``: the echelon takes
    the rows of one tuple per orbit and then, until none raises the rank,
    the image under every generator of each row that did.  Its kernel is
    the solution space, with the same canonical basis (``symmetry`` holds
    the proof), and no other tuple is read.

    Otherwise rows go into one echelon tuple by tuple.  Once the kernel K
    of the rows so far is packed, every later tuple is evaluated on the pack
    first: one that vanishes there is skipped, and only one that fails
    adds its rows.  The pack may be stale, the kernel K' of fewer rows,
    but K' contains K, so a tuple vanishing on K' vanishes on K.  A tuple
    whose rows add no rank (a miss) was eliminated for nothing: the work
    lost is counted as the entries of each of its rows, once plus once
    per pivot column the row holds (one elimination each), even when
    ``add`` settles the row on unit pivots, so the packs fall where the
    rows alone put them.  When the work lost since the last pack reaches
    n^2, the least a pack costs (it reads or writes every coordinate
    once), K is packed again; before
    that, every tuple is eliminated.  Every tuple is then eliminated or
    vanishes on K, and K is the kernel of a subset of the rows, so K is
    the solution space, with its canonical basis.
    """
    form, slots = _FORMS[kind]
    space = symmetric_space(alg, slots) if form == "triple" else None
    if space is not None:
        return space
    n = alg.dim
    ambient = n * n
    ech = _IntEchelon()
    if dims is not None:
        for row in _sparsity_rows(n, dims):
            ech.add(row)
    packed, lost = None, 0
    for _tag, w, terms in _constraint_tuples(alg, kind):
        if packed is not None:
            lhs, rhs = _tuple_sides(n, w, terms, packed, (packed,) * len(slots))
            if lhs == rhs:
                continue
        rows = _tuple_rows(n, w, terms)
        if not any([ech.add(row) for row in rows]):  # a list, so every row goes in
            # a miss leaves the echelon as it was: each row met the pivots it holds
            lost += sum(len(row) * (1 + sum(c in ech.rows for c in row)) for row in rows)
            if lost >= ambient:
                packed = None  # free the stale pack first: the new one is built while the old is still bound
                packed, lost = _packed_kernel(alg, kind, ech.kernel_vectors(ambient)), 0
    return ech.kernel(ambient)


class IdentityCheck(Record):
    """Outcome of a direct membership check, with the first witness."""

    ok: bool
    witness: tuple | None = None  # basis tuple
    lhs: AlgebraElement | None = None
    rhs: AlgebraElement | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_identity_member(alg_or_gma, kind: IdentityKind, op: LinearOperator) -> IdentityCheck:
    """Decide whether the operator satisfies the identity.

    A member of the solved space the fact table already holds for the
    kind and block dims (``sjder`` only) is answered off that space.
    Otherwise ``_walked_membership`` walks the tuples, and a non-member's
    witness is the first failing one.
    """
    alg, dims = _resolve(alg_or_gma, kind)
    _same_algebra(alg, op.algebra)
    space = held(_solved_space, alg, kind, dims)
    if space is not None and space.contains_vector(op.coords):
        return IdentityCheck(True)
    return _walked_membership(alg_or_gma, kind, op)


def _require_member(alg_or_gma, kind: IdentityKind, op: LinearOperator) -> None:
    """Refuse an operator off a triple identity: raise ``NotLTC`` or ``NotLTD`` with the witness of ``is_identity_member``."""
    chk = is_identity_member(alg_or_gma, kind, op)
    if not chk:
        raise (NotLTC if kind is IdentityKind.LIE_TRIPLE_CENTRALIZER else NotLTD)(chk.witness)


def _verdict(alg: StructureConstants, residual: tuple | None) -> IdentityCheck:
    """The check that holds when no tuple fails, else the one failing at the first residual (tag, lhs, rhs)."""
    if residual is None:
        return IdentityCheck(True)
    tag, lhs, rhs = residual
    return IdentityCheck(False, tag, alg.element(lhs), alg.element(rhs))


def _walked_membership(alg_or_gma, kind: IdentityKind, op: LinearOperator) -> IdentityCheck:
    """The verdict of walking every constraint tuple on the operator: the re-checks of a solver's output read this alone.

    For ``sjder``, a nonzero off the M->N and N->M corners, the first in
    column-major order, fails first, at (row, column), its column against
    0.  The verdict, witness included, is computed once per live algebra
    for each kind, block dims and operator, keyed by its exact nonzero
    coordinates as (index, numerator, denominator) ints: they hash
    without ``Fraction`` and hold no copy of its zeros.
    """
    alg, dims = _resolve(alg_or_gma, kind)
    _same_algebra(alg, op.algebra)
    n, flat = alg.dim, op.coords
    key = ("is_identity_member", kind, dims, tuple((k, x.numerator, x.denominator) for k, x in enumerate(flat) if x))

    def residuals() -> Iterator[tuple]:
        for row in _sparsity_rows(n, dims) if dims is not None else ():
            ((pos, _),) = row.items()
            if flat[pos]:
                c, r = divmod(pos, n)
                yield (r, c), flat[c * n : (c + 1) * n], alg.zero().coords
        yield from _identity_residuals(alg, kind, flat)

    return cached(alg._facts, key, lambda: _verdict(alg, next(residuals(), None)))


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


@memoized
def _corner_shapes(u: GMA) -> dict[str, tuple[int, int]]:
    return {
        name: (len(u.block_range(target)), len(u.block_range(source)))
        for name, (target, source) in CORNERS.items()
    }


class BlockDecomposition(Record):
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
        """The operator whose column c, in the source of a corner, holds that corner's column at its target's rows."""
        u = self.gma
        n = u.algebra.dim
        flat = [Fraction(0)] * (n * n)
        for name, (target, source) in CORNERS.items():
            tr, corner = u.block_range(target), getattr(self, name)
            for j, c in enumerate(u.block_range(source)):
                flat[c * n + tr.start : c * n + tr.stop] = corner.col(j)
        return LinearOperator(u.algebra, flat)

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
    n, flat = u.algebra.dim, op.coords
    corners = {}
    for name, (target, source) in CORNERS.items():
        tr, sr = u.block_range(target), u.block_range(source)
        corners[name] = Matrix(len(tr), len(sr), [x for c in sr for x in flat[c * n + tr.start : c * n + tr.stop]])
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


def _six_map_layout(u: GMA) -> tuple[int, dict[str, tuple[int, int]]]:
    """(n, {map: (start, rows)}): the six maps' coords fill Q^n in field order; map entry (r, k) is start + k * rows + r."""
    shapes, layout, pos = _corner_shapes(u), {}, 0
    for name in _SIX_MAP_FIELDS:
        rows, cols = shapes[name]
        layout[name] = (pos, rows)
        pos += rows * cols
    return pos, layout


@memoized
def _condition_rows(u: GMA) -> tuple[tuple[str, tuple, tuple[tuple[tuple[int, int], ...], ...]], ...]:
    """(label, tag, rows) for each block-form condition, built once per GMA and held.

    A row is one residual coordinate, held as its nonzero (column, int)
    pairs over the six maps in the layout of ``_six_map_layout``; a
    condition holds iff its rows vanish on the flattened maps.  Each term
    of a residual is sign * post(f(pre)) for a map f: ``pre`` is sparse
    over f's source, ``post`` pairs (r, image of f's output coordinate r),
    None for the identity.  Both are int slices of the basis forms or of
    the context's scaled sparse tensors.

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
    layout, conditions, shared = _six_map_layout(u)[1], [], {}  # one held copy of equal pairs and rows
    identity = {name: tuple((i, ((i, 1),)) for i in range(height)) for name, (_, height) in layout.items()}

    def rows(*terms) -> tuple:
        out: dict[int, dict] = {}
        for sign, name, pre, post in terms:
            (start, height), post = layout[name], identity[name] if post is None else tuple(post)
            for k, x in pre:
                for r, v in post:
                    col = start + k * height + r
                    for l, c in v:
                        row = out.setdefault(l, {})
                        row[col] = row.get(col, 0) + sign * x * c
        held = (tuple([shared.setdefault(p, p) for p in row.items() if p[1]]) for row in out.values())
        return tuple([shared.setdefault(row, row) for row in held if row])

    def unit(i: int) -> tuple:
        return ((i, 1),)

    # alpha1 and beta4 satisfy the triple identity on their own corners
    for label, name, alg in (
        ("alpha1 triple identity on A", "alpha1", A),
        ("beta4 triple identity on B", "beta4", B),
    ):
        for tag, w, terms in _constraint_tuples(alg, IdentityKind.LIE_TRIPLE_CENTRALIZER):
            slots = ((-1, name, unit(i), group) for _p, i, group in terms)
            conditions.append((label, tag, rows((1, name, w, None), *slots)))

    # alpha4 lands in the double commutant of B; beta1 in that of A
    for label, name, source, target in (
        ("[[alpha4(a),b1],b2] = 0", "alpha4", A, B),
        ("[[beta1(b),a1],a2] = 0", "beta1", B, A),
    ):
        groups = sorted(_slot_terms(target, "triple", 0).items())
        for i in range(source.dim):
            for rest, group in groups:
                conditions.append((label, (i, *rest), rows((1, name, unit(i), group))))

    # alpha4 and beta1 kill second commutators of their source corners
    for label, name, source in (
        ("alpha4 kills [[A,A],A]", "alpha4", A),
        ("beta1 kills [[B,B],B]", "beta1", B),
    ):
        for tag, w in basis_tensor(source, "triple")[1].items():
            conditions.append((label, tag, rows((1, name, w, None))))

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
                conditions.append((label, (p, q), rows(*lead, (-1, name, unit(i), enumerate(post)))))

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
                conditions.append((label_x, (i, p), rows(t_xm, (-1, t, unit(p), enumerate(x_acts)))))
                conditions.append((label_same, (i, p), rows(
                    t_xm,
                    (-1, same, unit(i), enumerate(y[p] for y in act)),
                    (1, cross, unit(i), enumerate(y[p] for y in cross_act)),
                )))
    return tuple(conditions)


class Thm31Report(Record):
    """Outcome of the block-form verification, with named failures."""

    passed: bool
    failures: tuple[tuple[str, tuple], ...]

    def __bool__(self) -> bool:
        return self.passed


_VANISHING_CORNERS = tuple(name for name in CORNERS if name not in _SIX_MAP_FIELDS)


def verify_thm31_conditions(u: GMA, d: BlockDecomposition) -> Thm31Report:
    """Check the sixteen-corner shape and all structure conditions.

    A condition fails when one of its ``_condition_rows`` does not vanish
    on the six maps' coords in field order, scaled to ints.
    """
    _same_gma(u, d)
    if find_unit(u.algebra) is None:
        raise NotUnital("block-form conditions need a unital algebra")
    failures = [
        (f"corner {name} must vanish", ()) for name in _VANISHING_CORNERS if not getattr(d, name).is_zero()
    ]
    (flat,) = int_flats([x for name in _SIX_MAP_FIELDS for x in getattr(d, name).coords])
    for label, tag, rows in _condition_rows(u):
        if any(row_values(rows, flat)):
            failures.append((label, tag))
    return Thm31Report(not failures, tuple(failures))


def six_map_solution_space(u: GMA) -> Subspace:
    """All six-map tuples satisfying the structure conditions, as a subspace.

    Unknowns are the six matrices, laid out by ``_six_map_layout``.  The
    rows are ``_condition_rows``, the ones the verifier evaluates, so both
    read one statement of the conditions.
    """
    return kernel_of_rows(_six_map_layout(u)[0], (dict(row) for _label, _tag, rows in _condition_rows(u) for row in rows))


def six_maps_from_flat(u: GMA, flat: Sequence[Fraction]) -> dict[str, Matrix]:
    """Split a flat vector into the six maps, laid out by ``_six_map_layout``: each map's coords are a slice."""
    (total, layout), shapes = _six_map_layout(u), _corner_shapes(u)
    if len(flat) != total:
        raise DimensionMismatch(f"six-map vector has {len(flat)} entries, expected {total}")
    return {name: Matrix(*shapes[name], flat[start : start + rows * shapes[name][1]]) for name, (start, rows) in layout.items()}


class Cor32Report(Record):
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
