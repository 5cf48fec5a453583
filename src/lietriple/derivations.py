"""Triple-derivation identities and decomposition of their generalized form.

The decomposition results are consumed as exact linear membership
problems: the derivation space, the singular Jordan space and the
center-valued triple-killing space are each solved once, and a target
operator is split by solving against the stacked bases; the last is
``properness.central_vanishing_space``, the kernel of the rows of
``properness.central_vanishing_rows``, which also check gamma and psi.
Splittings are not unique; the echelon particular solution keeps them
deterministic, and every returned component re-verifies its own
defining identity before anything is handed back.  A membership verdict
is evaluated once per process for each exact operator, so a component
checked twice (by ``decompose_ltd`` and again in the transcript of
``decompose_generalized_ltd``) is evaluated once and read back the
second time; the two checks are the same exact check.  An xi off the
triple derivations is refused by ``centralizers._require_member``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .algebra import (
    AlgebraElement,
    LinearOperator,
    StructureConstants,
    _slot_terms,
    center,
    largest_central_ideal,
    multiplication_operator,
)
from .centralizers import (
    IdentityCheck,
    IdentityKind,
    _identity_residuals,
    _require_member,
    _verdict,
    _walked_membership,
    is_identity_member,
    solve_identity_space,
)
from .errors import DimensionMismatch, LieTripleError, NotGLTD
from .gma import GMA, _commutation_rows, block_hypotheses_hold, diagonal_kernel
from .linalg import combination, preimage, solve, unit_vec
from .properness import (
    Infeasible,
    PropernessCertificate,
    central_vanishing_space,
    central_vanishing_verdicts,
    check_cor36_hypotheses,
    is_proper_direct,
    is_proper_thm33,
)
from .record import Record


def check_gltd_correspondence(
    alg: StructureConstants, lam_op: LinearOperator, xi: LinearOperator
) -> IdentityCheck:
    """Is Lambda a generalized triple derivation associated with xi?

    Decides it both ways: through membership of Lambda - xi in the
    triple-centralizer space, and by evaluating the defining identity,
    Lambda in the first slot and xi in the other two, directly on every
    basis triple.  The verdicts must agree.  A failure carries the
    first failing triple and the two sides of the identity there.  An
    xi off the triple derivations raises ``NotLTD`` with its witness.
    """
    ltd = IdentityKind.LIE_TRIPLE_DERIVATION
    _require_member(alg, ltd, xi)
    via_difference = bool(is_identity_member(alg, IdentityKind.LIE_TRIPLE_CENTRALIZER, lam_op - xi))
    lam_flat, xi_flat = lam_op.coords, xi.coords
    residual = next(_identity_residuals(alg, ltd, lam_flat, (lam_flat, xi_flat, xi_flat)), None)
    if via_difference != (residual is None):
        raise LieTripleError(
            "difference-route and direct-route verdicts disagree; "
            "this contradicts the centralizer correspondence"
        )
    return _verdict(alg, residual)


# ---------------------------------------------------------------------------
#  Hypothesis battery for the triple-derivation decomposition
# ---------------------------------------------------------------------------


class Thm41HypothesisReport(Record):
    """Verdicts for the structural conditions (i)-(iv) and (a)-(d).

    The center-shape conditions (c)/(d) are existential over elements
    of M and N; candidates are tested one by one, so ``None`` means
    "not established by any tested candidate", never "false".
    """

    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    cond_iv: bool
    cond_a: bool
    cond_b: bool
    cond_c_established_by: tuple | None
    cond_d_established_by: tuple | None
    two_torsion_free: bool = True  # automatic over the rationals

    @property
    def structural_ok(self) -> bool:
        return self.cond_i or self.cond_ii or self.cond_iii or self.cond_iv

    @property
    def ideal_ok(self) -> bool:
        return (
            self.cond_a
            or self.cond_b
            or self.cond_c_established_by is not None
            or self.cond_d_established_by is not None
        )

    @property
    def satisfied(self) -> bool:
        return self.structural_ok and self.ideal_ok


def _commutator_into_center_forces_central(alg: StructureConstants) -> bool:
    """Does [x, alg] inside Z(alg) already force x central?"""
    z = center(alg)
    return preimage(_slot_terms(alg, "bracket", 0).values(), z) == z


def check_thm41_hypotheses(
    u: GMA,
    candidates_m0: Sequence[Sequence[Fraction]] | None = None,
    candidates_n0: Sequence[Sequence[Fraction]] | None = None,
) -> Thm41HypothesisReport:
    """Evaluate the hypothesis battery gating the decomposition."""
    for block, candidates, dim in (("M", candidates_m0, u.dim_m), ("N", candidates_n0, u.dim_n)):
        for v in candidates or ():
            if len(v) != dim:
                raise DimensionMismatch(
                    f"a candidate in {block} has length {len(v)}, dim {block} is {dim}"
                )
    ctx = u.context
    cor = check_cor36_hypotheses(u)
    forces = _commutator_into_center_forces_central(
        ctx.A
    ) or _commutator_into_center_forces_central(ctx.B)

    # (c)/(d): Z(U) == {diag(a, b) : a, b central, diag(a, b) x0 = x0 diag(a, b)}
    da, width = u.dim_a, u.dim_a + u.dim_b
    central = [dict(enumerate(f)) for f in center(ctx.A).annihilator().basis]
    central += [{da + j: x for j, x in enumerate(f)} for f in center(ctx.B).annihilator().basis]
    planes = _commutation_rows(u)
    z = center(u.algebra)

    def established_by(block: str, candidates, dim: int) -> tuple | None:
        if candidates is None:
            candidates = [unit_vec(dim, p) for p in range(dim)]
        for x0 in candidates:
            rows = [combination(x0, [plane[q] for plane in planes[block]], width) for q in range(dim)]
            if diagonal_kernel(u, central + rows) == z:
                return tuple(x0)
        return None

    return Thm41HypothesisReport(
        cond_i=cor.triple_span_a_full and cor.triple_span_b_full,
        cond_ii=cor.pi_a_equals_center_a and cor.triple_span_a_full,
        cond_iii=cor.pi_b_equals_center_b and cor.triple_span_b_full,
        cond_iv=cor.pi_a_equals_center_a and cor.pi_b_equals_center_b and forces,
        cond_a=largest_central_ideal(ctx.A).is_zero(),
        cond_b=largest_central_ideal(ctx.B).is_zero(),
        cond_c_established_by=established_by("M", candidates_m0, u.dim_m),
        cond_d_established_by=established_by("N", candidates_n0, u.dim_n),
    )


# ---------------------------------------------------------------------------
#  Decompositions
# ---------------------------------------------------------------------------


class LTDDecomposition(Record):
    """A triple derivation split as derivation + singular + central."""

    delta: LinearOperator
    singular: LinearOperator
    gamma: LinearOperator


def decompose_ltd(u: GMA, xi: LinearOperator) -> LTDDecomposition | Infeasible:
    """Split a Lie triple derivation per the three-part membership problem."""
    alg = u.algebra
    _require_member(alg, IdentityKind.LIE_TRIPLE_DERIVATION, xi)
    der = solve_identity_space(alg, IdentityKind.DERIVATION)
    sjd = solve_identity_space(u, IdentityKind.SINGULAR_JORDAN_DERIVATION)
    cv = central_vanishing_space(alg)
    cols = list(der.basis) + list(sjd.basis) + list(cv.basis)
    n = alg.dim * alg.dim
    coeffs = solve(len(cols), [[c[r] for c in cols] for r in range(n)], xi.coords)
    if coeffs is None:
        return Infeasible("xi is outside derivations + singular + central-vanishing")

    d1, d2 = len(der.basis), len(der.basis) + len(sjd.basis)
    delta, singular, gamma = (
        LinearOperator(alg, combination(c, space.basis, n))
        for c, space in ((coeffs[:d1], der), (coeffs[d1:d2], sjd), (coeffs[d2:], cv))
    )
    if not _walked_membership(alg, IdentityKind.DERIVATION, delta):
        raise LieTripleError("derivation part failed its identity")
    if not _walked_membership(u, IdentityKind.SINGULAR_JORDAN_DERIVATION, singular):
        raise LieTripleError("singular part failed its identity")
    if not all(central_vanishing_verdicts(alg, gamma)):
        raise LieTripleError("central part escaped its space")
    if delta + singular + gamma != xi:
        raise LieTripleError("components do not sum back to xi")
    return LTDDecomposition(delta, singular, gamma)


class GLTDDecomposition(Record):
    """Lambda(X) = delta(X) + singular(X) + psi(X) + lam * X, verified."""

    delta: LinearOperator
    singular: LinearOperator
    psi: LinearOperator
    lam: AlgebraElement
    certified_hypotheses: bool
    transcript: tuple[tuple[str, bool], ...]

    @property
    def verified(self) -> bool:
        return all(ok for _, ok in self.transcript)


def decompose_generalized_ltd(
    u: GMA, lam_op: LinearOperator, xi: LinearOperator
) -> GLTDDecomposition | Infeasible:
    """Full decomposition of a generalized Lie triple derivation.

    The difference Lambda - xi is split off as a proper centralizer
    (lambda, chi); xi is decomposed into derivation + singular +
    central parts; psi collects the two center-valued pieces.  When the
    sufficiency hypotheses are not established the decomposition is
    still attempted but flagged as outside the certified regime.
    """
    alg = u.algebra
    corr = check_gltd_correspondence(alg, lam_op, xi)
    if not corr:
        raise NotGLTD(corr.witness)
    block_form = block_hypotheses_hold(u)
    certified = block_form and check_cor36_hypotheses(u).satisfied

    phi = lam_op - xi
    proper: PropernessCertificate | None = None
    if block_form:
        res = is_proper_thm33(u, phi)
        if isinstance(res, PropernessCertificate):
            proper = res
    if proper is None:
        res = is_proper_direct(alg, phi)
        if isinstance(res, Infeasible):
            return res
        proper = res

    split = decompose_ltd(u, xi)
    if isinstance(split, Infeasible):
        return split
    psi = proper.chi + split.gamma
    lam = proper.lam

    into_center, kills_dc = central_vanishing_verdicts(alg, psi)
    total = split.delta + split.singular + psi + multiplication_operator(alg, lam.coords)
    transcript = (
        ("delta is a derivation", bool(_walked_membership(alg, IdentityKind.DERIVATION, split.delta))),
        ("singular part is a singular Jordan derivation",
         bool(_walked_membership(u, IdentityKind.SINGULAR_JORDAN_DERIVATION, split.singular))),
        ("psi maps into the center", into_center),
        ("psi kills the double-commutator span", kills_dc),
        ("lambda is central", center(alg).contains_vector(lam.coords)),
        ("components sum to Lambda exactly", total == lam_op),
    )
    if not all(ok for _, ok in transcript):
        raise LieTripleError(f"decomposition failed re-verification: {transcript}")
    return GLTDDecomposition(split.delta, split.singular, psi, lam, certified, transcript)
