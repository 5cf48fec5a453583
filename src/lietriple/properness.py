"""Deciding when a Lie triple centralizer splits as lambda*X + chi(X).

Two independent routes are provided.  The block-form route follows the
equivalence chain through the corner maps at the units and constructs
the certificate from the center correspondence; the direct route sets
up the feasibility problem in the center coordinates alone and needs
neither unitality nor the annihilating conditions, which is exactly
what the twelve-dimensional counterexample requires.
The condition on chi is stated once, as the int rows of
``central_vanishing_rows``: the direct route evaluates them on phi and on
multiplication by the center basis, and every certificate on chi; their
kernel, ``central_vanishing_space`` (CV), is built once per algebra.
``_certificate`` is the one builder of a ``PropernessCertificate``, for
both routes: it re-checks the transcript and refuses a failing one.  The
Thm 3.3 corner tests are each stated once too: ``_unit_failure`` (alpha4
and beta1 at the units) and ``BlockDecomposition.ranges_inside`` (their
whole ranges, which Cor 3.2 also reads with the corner centers as
targets), read by the block-form route.  ``equivalence_audit`` decides
the direct, range and unit criteria as subspaces of the LTC space, each
cut out by linear rows, and the three agree iff the subspaces are equal.
``build_from_blocks`` assembles the block-form chi from alpha4, beta1 and
their images under eta^-1, eta.  Both routes refuse a phi off the triple
centralizers first, through ``centralizers._require_member``.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import (
    AlgebraElement,
    LinearOperator,
    StructureConstants,
    center,
    double_commutator_span,
    memoized,
    multiplication_operator,
    require_unit,
)
from .centralizers import (
    BlockDecomposition,
    IdentityKind,
    _require_member,
    block_decompose,
    build_from_blocks,
    solve_identity_space,
)
from .errors import LieTripleError
from .gma import GMA, center_block_description, eta_map
from .linalg import (
    Matrix,
    Subspace,
    clear_denominators,
    combination,
    int_flats,
    kernel_of_rows,
    row_values,
    solve,
)
from .record import Record


class PropernessCertificate(Record):
    """A verified splitting phi(X) = lambda X + chi(X).

    ``transcript`` lists every invariant that was re-checked, so the
    certificate can be audited without re-running the solver.
    ``alpha_bar``/``beta_bar`` are only present on the block-form route.
    """

    lam: AlgebraElement
    chi: LinearOperator
    alpha_bar: Matrix | None
    beta_bar: Matrix | None
    transcript: tuple[tuple[str, bool], ...]

    @property
    def verified(self) -> bool:
        return all(ok for _, ok in self.transcript)


class PropernessFailure(Record):
    """Corner-map witness that the unit-membership test fails on one side."""

    side: str  # "A": alpha4(1_A) outside pi_B(Z);  "B": beta1(1_B) outside pi_A(Z)
    witness: tuple
    target: Subspace

    def sound(self) -> bool:
        return not self.target.contains_vector(self.witness)


class Infeasible(Record):
    """No central lambda makes the residual a center-valued triple killer."""

    reason: str
    witness_element: AlgebraElement | None = None
    witness_image: AlgebraElement | None = None


@memoized
def central_vanishing_rows(alg: StructureConstants) -> tuple[tuple[tuple, ...], tuple[tuple, ...]]:
    """The condition on chi, as two groups of sparse int rows over its column-major coordinates.

    Each row is held as (column, int) pairs.  chi maps into Z(U) iff the
    first group vanishes on it: (c*n + l, f_l) for each column c and each
    f in ann(Z(U)).  chi kills [[U,U],U] iff the second does: (c*n + l,
    w_c) for each w in the double-commutator basis and each l.  The f and
    the w are each scaled once to ints.  Built once per algebra; every
    caller only reads the rows.
    """
    n = alg.dim
    ann, dc = (
        clear_denominators(((k, x) for k, x in enumerate(v) if x) for v in space.basis)[1]
        for space in (center(alg).annihilator(), double_commutator_span(alg))
    )
    return (
        tuple(tuple([(c * n + l, x) for l, x in f]) for c in range(n) for f in ann),
        tuple(tuple([(c * n + l, x) for c, x in w]) for w in dc for l in range(n)),
    )


@memoized
def central_vanishing_space(alg: StructureConstants) -> Subspace:
    """CV: the operators with range in the center that kill all double commutators, the kernel of ``central_vanishing_rows``."""
    return kernel_of_rows(alg.dim * alg.dim, (dict(row) for rows in central_vanishing_rows(alg) for row in rows))


def central_vanishing_verdicts(alg: StructureConstants, op: LinearOperator) -> tuple[bool, bool]:
    """(op maps into the center, op kills the double commutators), on the shared rows."""
    (flat,) = int_flats(op.coords)
    return tuple(not any(row_values(rows, flat)) for rows in central_vanishing_rows(alg))


def _certificate(
    alg: StructureConstants,
    phi: LinearOperator,
    lam_coords: tuple,
    chi: LinearOperator,
    alpha_bar: Matrix | None = None,
    beta_bar: Matrix | None = None,
    extra: tuple[tuple[str, bool], ...] = (),
) -> PropernessCertificate:
    """The certificate of phi = lambda X + chi(X), once its transcript is re-checked; LieTripleError if any line fails."""
    into_center, kills_dc = central_vanishing_verdicts(alg, chi)
    transcript = (
        ("lambda is central", center(alg).contains_vector(lam_coords)),
        ("phi(X) = lambda X + chi(X) on every basis vector",
         multiplication_operator(alg, lam_coords) + chi == phi),
        ("chi maps every basis vector into the center", into_center),
        ("chi vanishes on all double commutators", kills_dc),
    ) + extra
    if not all(ok for _, ok in transcript):
        raise LieTripleError(f"certificate failed re-verification: {transcript}")
    return PropernessCertificate(AlgebraElement(alg, lam_coords), chi, alpha_bar, beta_bar, transcript)


def _solve_lambda(rows, mults, phi_flat):
    """The echelon solution c of sum_t c_t R(z_t .) = R(phi) over the rows R, or None."""
    lhs = [row_values(rows, m) for m in mults]
    return solve(len(mults), [[v[r] for v in lhs] for r in range(len(rows))], row_values(rows, phi_flat))


def is_proper_direct(
    alg: StructureConstants,
    phi: LinearOperator,
    probes: Sequence[AlgebraElement] = (),
) -> PropernessCertificate | Infeasible:
    """Feasibility in the center coordinates only.

    Searches for a central lambda = sum of c_t z_t whose residual chi =
    phi - lambda*(.) satisfies ``central_vanishing_rows``: a row R reads
    sum_t c_t R(z_t .) = R(phi), in ints.  Works on non-unital algebras.
    """
    _require_member(alg, IdentityKind.LIE_TRIPLE_CENTRALIZER, phi)
    into_center, kills_dc = central_vanishing_rows(alg)
    *mults, phi_flat = int_flats(*_center_multiplications(alg), phi.coords)
    coeffs = _solve_lambda(into_center + kills_dc, mults, phi_flat)
    if coeffs is None:
        x = _singleton_witness(alg, into_center, mults, phi_flat, probes)
        if x is None:
            return Infeasible("the joint feasibility system is inconsistent")
        return Infeasible(
            "no central lambda leaves a center-valued residual; "
            "the witness element's residual escapes the center for every choice",
            witness_element=x,
            witness_image=phi(x),
        )
    lam_coords = combination(coeffs, center(alg).basis, alg.dim)
    return _certificate(alg, phi, lam_coords, phi - multiplication_operator(alg, lam_coords))


@memoized
def _center_multiplications(alg: StructureConstants) -> tuple[tuple, ...]:
    """The column-major flats of x -> z_t x over the basis z_t of the center."""
    return tuple(multiplication_operator(alg, zt).coords for zt in center(alg).basis)


def _singleton_witness(alg, into_center, mults, phi_flat, probes):
    """An element x with phi(x) - lambda x outside the center for all lambda.

    The into-center rows of each column c, weighted by x_c, say it is central.
    """
    per_col = len(into_center) // alg.dim
    for x in (*probes, *alg.basis()):
        at_x = [
            [(k, xc * v) for c, xc in enumerate(x.coords) if xc for k, v in into_center[c * per_col + i]]
            for i in range(per_col)
        ]
        if _solve_lambda(at_x, mults, phi_flat) is None:
            return x
    return None


def _unit_failure(u: GMA, d: BlockDecomposition, pi_a: Subspace, pi_b: Subspace) -> PropernessFailure | None:
    """The Thm 3.3 unit test: the first of alpha4(1_A) in pi_B(Z(U)), beta1(1_B) in pi_A(Z(U)) to fail, or None."""
    for side, corner, one, target in (
        ("A", d.alpha4, require_unit(u.context.A), pi_b),
        ("B", d.beta1, require_unit(u.context.B), pi_a),
    ):
        value = corner.matvec(one.coords)
        if not target.contains_vector(value):
            return PropernessFailure(side, value, target)
    return None


def is_proper_thm33(u: GMA, phi: LinearOperator) -> PropernessCertificate | PropernessFailure:
    """The unit-membership test first, then the explicit construction.

    On success the certificate is built from the corner maps through
    the center correspondence and exhaustively re-verified; on failure
    the offending corner value and the subspace it misses are returned,
    once ``PropernessFailure.sound`` has re-checked that it misses it.
    Range membership for the full corners is re-derived and enforced.
    """
    alg = u.algebra
    eta = eta_map(u)
    _require_member(alg, IdentityKind.LIE_TRIPLE_CENTRALIZER, phi)
    d = block_decompose(u, phi)
    failure = _unit_failure(u, d, eta.domain, eta.codomain)
    if failure is not None:
        if not failure.sound():
            raise LieTripleError(f"the side {failure.side} corner witness lies in its target after all")
        return failure
    # membership at the units forces the whole ranges into the projections
    if not all(d.ranges_inside(eta.domain, eta.codomain)):
        raise LieTripleError(
            "unit membership held but a corner range escapes pi_A(Z(U)) or pi_B(Z(U)); "
            "this contradicts the equivalence chain"
        )

    eta_inv_alpha4, eta_beta1 = (
        Matrix(m.cols, m.cols, [x for i in range(m.cols) for x in f(m.col(i))])
        for f, m in ((eta.apply_inverse, d.alpha4), (eta.apply, d.beta1))
    )
    alpha_bar, beta_bar = (
        Matrix(m.rows, m.cols, combination((1, -1), (m.coords, e.coords), len(m.coords)))
        for m, e in ((d.alpha1, eta_inv_alpha4), (d.beta4, eta_beta1))
    )
    a0 = alpha_bar.matvec(require_unit(u.context.A).coords)
    b0 = beta_bar.matvec(require_unit(u.context.B).coords)
    lam_coords = tuple(u.element_from_corners(a=a0, b=b0).coords)
    chi = build_from_blocks(
        u, alpha1=eta_inv_alpha4, beta1=d.beta1, tau2=Matrix.zeros(u.dim_m, u.dim_m),
        gamma3=Matrix.zeros(u.dim_n, u.dim_n), alpha4=d.alpha4, beta4=eta_beta1,
    )

    extra = (
        ("lambda equals diag(alpha_bar(1_A), beta_bar(1_B))", True),
        ("eta(alpha_bar(1_A)) = beta_bar(1_B)", eta.apply(a0) == b0),
    )
    return _certificate(alg, phi, lam_coords, chi, alpha_bar, beta_bar, extra)


class Cor36Report(Record):
    """Which sufficient disjunct holds on each side, if any."""

    pi_b_equals_center_b: bool
    triple_span_a_full: bool
    pi_a_equals_center_a: bool
    triple_span_b_full: bool

    @property
    def side_one(self) -> bool:
        return self.pi_b_equals_center_b or self.triple_span_a_full

    @property
    def side_two(self) -> bool:
        return self.pi_a_equals_center_a or self.triple_span_b_full

    @property
    def satisfied(self) -> bool:
        return self.side_one and self.side_two


def check_cor36_hypotheses(u: GMA) -> Cor36Report:
    """Evaluate the four subspace equalities behind the sufficiency test."""
    blocks = center_block_description(u)
    a, b = u.context.A, u.context.B
    return Cor36Report(
        pi_b_equals_center_b=blocks.pi_b == center(b),
        triple_span_a_full=double_commutator_span(a).is_full(),
        pi_a_equals_center_a=blocks.pi_a == center(a),
        triple_span_b_full=double_commutator_span(b).is_full(),
    )


class EquivalenceReport(Record):
    """The LTC space and, inside it, the subspace each properness criterion accepts."""

    ltc: Subspace
    direct: Subspace
    ranges: Subspace
    units: Subspace

    @property
    def all_consistent(self) -> bool:
        return self.direct == self.ranges == self.units

    @property
    def improper_codimension(self) -> int:
        return self.ltc.dim - self.direct.dim


def equivalence_audit(u: GMA) -> EquivalenceReport:
    """Decide the three properness criteria on the whole LTC space.

    Each criterion is linear in phi, so each is a subspace, and they agree
    iff the subspaces are equal.  Direct is L(Z) + CV, multiplication by a
    central element plus a map in ``central_vanishing_space``, and must
    lie in the LTC space.  Ranges and units are the LTCs on which the rows
    {c*n + r: f_l} vanish, f over the annihilator of the target (pi_B(Z)
    for the columns c of alpha4, pi_A(Z) for those of beta1): every row,
    or per f the sum of its rows weighted by the source corner's unit.
    Each is solved on the coefficients of the LTC basis, dim LTC unknowns.
    That basis is 1 at each pivot, its least column, and 0 at the others,
    so it maps the kernel's canonical basis to a canonical one.
    """
    alg, n = u.algebra, u.algebra.dim
    blocks = center_block_description(u)
    ltc = solve_identity_space(alg, IdentityKind.LIE_TRIPLE_CENTRALIZER)
    direct = central_vanishing_space(alg).sum(Subspace(n * n, _center_multiplications(alg)))
    if not ltc.contains(direct):
        raise LieTripleError("a map in L(Z) + CV is not a Lie triple centralizer")
    ranges, units = [], []
    for source, target, pi in (("A", "B", blocks.pi_b), ("B", "A", blocks.pi_a)):
        one = require_unit(getattr(u.context, source)).coords
        into = u.block_range(target)
        for f in int_flats(*pi.annihilator().basis):
            cols = [[(c * n + into[l], x) for l, x in f.items() if x] for c in u.block_range(source)]
            ranges += cols
            units.append([(k, w * x) for w, col in zip(one, cols) if w for k, x in col])
    basis = int_flats(*ltc.basis)

    def inside(rows: list[list[tuple]]) -> Subspace:
        kernel = kernel_of_rows(ltc.dim, zip(*(row_values(rows, v) for v in basis)))
        vectors = (dict(enumerate(combination(c, ltc.basis, n * n))) for c in kernel.basis)
        return Subspace._reduced(n * n, vectors, [ltc.pivots[q] for q in kernel.pivots])

    return EquivalenceReport(ltc, direct, inside(ranges), inside(units))
