import functools
import random
from fractions import Fraction

import pytest

import lietriple.algebra
import lietriple.derivations
import lietriple.properness
from lietriple.algebra import LinearOperator, center, double_commutator_span, find_unit
from lietriple.catalog import (
    direct_sum,
    example_1_2,
    full_matrix_gma,
    random_gma,
    rationals,
    resolve,
    standard_gmas,
    triangular_context,
    upper_triangular_gma,
)
from lietriple.centralizers import (
    IdentityCheck,
    IdentityKind,
    _identity_residuals,
    is_identity_member,
    solve_identity_space,
)
from lietriple.derivations import (
    GLTDDecomposition,
    LTDDecomposition,
    central_vanishing_space,
    check_gltd_correspondence,
    check_thm41_hypotheses,
    decompose_generalized_ltd,
    decompose_ltd,
)
from lietriple.errors import NotLTC, NotLTD
from lietriple.gma import Bimodule, MoritaContext, assemble, block_hypotheses_hold
from lietriple.properness import equivalence_audit, is_proper_direct, is_proper_thm33

from oracles import (
    center_shape_holds,
    central_vanishing_basis,
    identity_sides,
    left_mult,
    matrix,
    matrix_of,
    operator_of,
    right_mult,
    zero_operator,
)

F = Fraction
K = IdentityKind


@pytest.fixture(scope="module")
def t2g():
    return upper_triangular_gma(2)


@pytest.fixture(scope="module")
def m2g():
    return full_matrix_gma(2)


def inner_derivation(alg, coords):
    return operator_of(alg, left_mult(alg, coords)) - operator_of(alg, right_mult(alg, coords))


def rand_member(space, alg, rng):
    flat = (F(0),) * space.ambient
    for bv in space.basis:
        c = F(rng.randint(-3, 3), rng.choice((1, 2)))
        flat = tuple(a + c * b for a, b in zip(flat, bv))
    return LinearOperator.from_flat(alg, flat)


class TestCorrespondence:
    def test_lambda_equals_xi(self, t2g):
        alg = t2g.algebra
        xi = inner_derivation(alg, alg.basis_element(0).coords)
        assert check_gltd_correspondence(alg, xi, xi) == IdentityCheck(True)

    def test_lambda_xi_plus_identity(self, t2g):
        alg = t2g.algebra
        xi = inner_derivation(alg, alg.basis_element(0).coords)
        assert check_gltd_correspondence(alg, xi + LinearOperator.identity(alg), xi)

    def test_swap_perturbation_fails_with_witness(self, m2g):
        alg = m2g.algebra
        xi = inner_derivation(alg, alg.basis_element(1).coords)
        swap = operator_of(
            alg,
            matrix([(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)]),
        )
        lam = xi + swap
        chk = check_gltd_correspondence(alg, lam, xi)
        assert not chk and chk.witness is not None
        lhs, rhs = identity_sides(alg, "ltd", chk.witness, matrix_of(lam), matrix_of(xi))
        assert lhs != rhs and (chk.lhs, chk.rhs) == (lhs, rhs)

    def test_rejects_non_ltd_xi(self, m2g):
        alg = m2g.algebra
        swap = operator_of(
            alg,
            matrix([(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)]),
        )
        with pytest.raises(NotLTD):
            check_gltd_correspondence(alg, swap, swap)

    def test_space_level_coset_characterization(self, t2g):
        # Members of xi + LTC satisfy the generalized identity; operators
        # off that coset do not.
        alg = t2g.algebra
        rng = random.Random(12)
        ltd = solve_identity_space(alg, K.LIE_TRIPLE_DERIVATION)
        ltc = solve_identity_space(alg, K.LIE_TRIPLE_CENTRALIZER)
        xi = rand_member(ltd, alg, rng)
        for _ in range(50):
            lam = xi + rand_member(ltc, alg, rng)
            assert check_gltd_correspondence(alg, lam, xi)
        full_dim = ltc.ambient
        misses = 0
        while misses < 50:
            flat = tuple(F(rng.randint(-3, 3)) for _ in range(full_dim))
            if ltc.contains_vector(
                tuple(a - b for a, b in zip(flat, xi.flatten()))
            ):
                continue
            misses += 1
            lam = LinearOperator.from_flat(alg, flat)
            assert not check_gltd_correspondence(alg, lam, xi)

    def test_slot_denominators_are_cleared(self, m2g):
        # xi = ad(e12 + 2 e21) / 7 and phi = id/3 + 2 tr/3, a triple
        # centralizer: Lambda = phi + xi passes.  The failing operator
        # phi + swap has denominators 3 only, so the evaluator must clear
        # the 7s of xi in the other two slots, not only those of Lambda
        alg = m2g.algebra
        xi = F(1, 7) * inner_derivation(alg, (0, 1, 2, 0))
        trace = operator_of(
            alg, matrix([(1, 0, 0, 1), (0,) * 4, (0,) * 4, (1, 0, 0, 1)])
        )
        phi = F(1, 3) * LinearOperator.identity(alg) + F(2, 3) * trace
        assert {x.denominator for x in phi.flatten()} == {1, 3}
        assert {x.denominator for x in xi.flatten()} == {1, 7}
        assert check_gltd_correspondence(alg, phi + xi, xi)
        swap = operator_of(
            alg,
            matrix([(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)]),
        )
        bad = phi + swap
        chk = check_gltd_correspondence(alg, bad, xi)
        assert not chk
        slots = (bad.flatten(), xi.flatten(), xi.flatten())
        tag, lhs, rhs = next(_identity_residuals(alg, K.LIE_TRIPLE_DERIVATION, bad.flatten(), slots))
        assert tag == chk.witness
        sides = identity_sides(alg, "ltd", tag, matrix_of(bad), matrix_of(xi))
        assert sides[0] != sides[1] and sides == (alg.element(lhs), alg.element(rhs))
        assert (chk.lhs, chk.rhs) == sides


class TestDerivationLattice:
    def test_inclusions_on_catalog(self, t2g, m2g):
        ex = example_1_2()
        algebras = [
            t2g.algebra,
            upper_triangular_gma(3).algebra,
            m2g.algebra,
            full_matrix_gma(3).algebra,
            ex.gma.algebra,
        ]
        for alg in algebras:
            der = solve_identity_space(alg, K.DERIVATION)
            jder = solve_identity_space(alg, K.JORDAN_DERIVATION)
            lieder = solve_identity_space(alg, K.LIE_DERIVATION)
            ltd = solve_identity_space(alg, K.LIE_TRIPLE_DERIVATION)
            assert jder.contains(der)
            assert lieder.contains(der)
            assert ltd.contains(lieder)
            assert ltd.contains(jder)

    def test_example_ltd_is_everything(self):
        ex = example_1_2()
        assert solve_identity_space(ex.gma.algebra, K.LIE_TRIPLE_DERIVATION).is_full()


class TestThm41Hypotheses:
    def test_t2_report(self, t2g):
        rep = check_thm41_hypotheses(t2g)
        assert not rep.cond_i and not rep.cond_ii and not rep.cond_iii
        assert rep.cond_iv
        assert not rep.cond_a and not rep.cond_b  # Q is a central ideal of itself
        assert rep.cond_c_established_by == (F(1),)
        assert rep.two_torsion_free
        assert rep.satisfied

    def test_m2_report(self, m2g):
        rep = check_thm41_hypotheses(m2g)
        assert rep.cond_iv
        assert not rep.cond_a and not rep.cond_b
        assert rep.cond_c_established_by is not None
        assert rep.satisfied

    def test_existential_not_established_is_not_false(self, t2g):
        rep = check_thm41_hypotheses(t2g, candidates_m0=[], candidates_n0=[])
        assert rep.cond_c_established_by is None
        assert rep.cond_d_established_by is None
        # still satisfied through (iv) + nothing? no: ideal side is open now
        assert rep.structural_ok and not rep.ideal_ok and not rep.satisfied


@pytest.fixture(scope="module")
def shape_draws():
    """The draws random_gma(Random(s), require_n=True), s < 40, where the block hypotheses hold."""
    return [u for u in (random_gma(random.Random(s), require_n=True) for s in range(40)) if block_hypotheses_hold(u)]


class TestCenterShapeConditions:
    """(c) and (d) against the dense oracle, with candidates other than unit vectors."""

    @staticmethod
    def _candidates(dim):
        return [(0,) * dim, (1,) * dim, (2, -1)[:dim]]

    @staticmethod
    def _first_holding(u, block, candidates):
        return next((tuple(F(x) for x in v) for v in candidates if center_shape_holds(u, block, v)), None)

    def test_both_blocks_match_the_oracle(self, shape_draws):
        seen = set()
        for u in shape_draws:
            cm, cn = self._candidates(u.dim_m), self._candidates(u.dim_n)
            # each candidate alone, then the whole list, where the first that holds is reported
            for m0s, n0s in [*(([v], [w]) for v, w in zip(cm, cn)), (cm, cn)]:
                rep = check_thm41_hypotheses(u, candidates_m0=m0s, candidates_n0=n0s)
                assert rep.cond_c_established_by == self._first_holding(u, "M", m0s)
                assert rep.cond_d_established_by == self._first_holding(u, "N", n0s)
                seen.update({("c", rep.cond_c_established_by is None), ("d", rep.cond_d_established_by is None)})
        assert len(shape_draws) >= 5
        assert seen == {("c", False), ("c", True), ("d", False), ("d", True)}

    @staticmethod
    def _acting_on(block, coordinate_of):
        """Q x Q acting on block M (or N) of dim len(coordinate_of), e_i on coordinate p iff coordinate_of[p] == i; the other corner Q acts by scalars."""
        q, q2 = rationals(), direct_sum(rationals(), rationals())
        dim = len(coordinate_of)
        left = {(coordinate_of[p], p, p): 1 for p in range(dim)}
        scalar = {(p, 0, p): 1 for p in range(dim)}
        module = Bimodule(dim, 2, 1, left, scalar)
        if block == "M":
            u = assemble(triangular_context(q2, module, q))
        else:
            u = assemble(MoritaContext(q, q2, Bimodule.zero(1, 2), module, {}, {}))
        assert block_hypotheses_hold(u)
        return u

    @staticmethod
    def _verdicts(u, block, candidates):
        """Whether (c) (or (d), for N) is established by each candidate alone, checked against the oracle."""
        verdicts = []
        for x0 in candidates:
            rep = check_thm41_hypotheses(u, **{"candidates_" + block.lower() + "0": [x0]})
            found = rep.cond_c_established_by if block == "M" else rep.cond_d_established_by
            assert (found is not None) == center_shape_holds(u, block, x0)
            verdicts.append(found is not None)
        return verdicts

    @pytest.mark.parametrize("block", ["M", "N"])
    def test_a_nonzero_candidate_can_fail(self, block):
        # A = Q x Q (or B, for N) acts on the two coordinates of a two-dimensional block one each:
        # x0 = (1, 0) leaves the second corner coordinate free, (1, 1) ties both to the other corner
        u = self._acting_on(block, (0, 1))
        verdicts = self._verdicts(u, block, [(1, 0), (0, 1), (1, 1), (2, -1), (0, 0)])
        assert verdicts == [False, False, True, True, False]

    @pytest.mark.parametrize("block", ["M", "N"])
    def test_a_candidate_and_its_reversal_differ(self, block):
        # e1 acts on coordinates 0 and 1 of a three-dimensional block, e2 on coordinate 2, so
        # Z(U) is the scalars: (0, 1, 1) ties both idempotents to the other corner, its
        # reversal (1, 1, 0) and every unit vector tie only one
        u = self._acting_on(block, (0, 0, 1))
        assert center(u.algebra).dim == 1
        verdicts = self._verdicts(u, block, [(0, 1, 1), (1, 1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert verdicts == [True, False, False, False, False]
        rep = check_thm41_hypotheses(u)
        assert (rep.cond_c_established_by if block == "M" else rep.cond_d_established_by) is None

    def test_default_candidates_are_the_unit_vectors(self, shape_draws):
        for u in shape_draws:
            rep = check_thm41_hypotheses(u)
            for found, block, dim in ((rep.cond_c_established_by, "M", u.dim_m), (rep.cond_d_established_by, "N", u.dim_n)):
                units = [tuple(int(i == p) for i in range(dim)) for p in range(dim)]
                assert found == self._first_holding(u, block, units)


# each refusal: (call on a GMA u and the refused operator op, kind op fails, error, the kind's name in the message)
_REFUSALS = {
    "is_proper_direct": (lambda u, op: is_proper_direct(u.algebra, op), K.LIE_TRIPLE_CENTRALIZER, NotLTC, "centralizer"),
    "is_proper_thm33": (is_proper_thm33, K.LIE_TRIPLE_CENTRALIZER, NotLTC, "centralizer"),
    "decompose_ltd": (decompose_ltd, K.LIE_TRIPLE_DERIVATION, NotLTD, "derivation"),
    "check_gltd_correspondence": (
        lambda u, op: check_gltd_correspondence(u.algebra, LinearOperator.identity(u.algebra), op),
        K.LIE_TRIPLE_DERIVATION, NotLTD, "derivation",
    ),
}


@pytest.mark.parametrize("refusal", sorted(_REFUSALS))
@pytest.mark.parametrize("spec", ["upper_triangular(3)", "full_matrix(2)"])
def test_a_refusal_carries_the_membership_verdicts_witness(refusal, spec):
    """A non-member is refused with the witness and message of ``is_identity_member``'s verdict on it."""
    call, kind, error, name = _REFUSALS[refusal]
    u = resolve(spec).gma
    rng = random.Random(f"refusal-{spec}")
    for _ in range(3):
        flat = [F(rng.randint(-2, 2), rng.choice((1, 3))) for _ in range(u.algebra.dim**2)]
        op = LinearOperator.from_flat(u.algebra, flat)
        chk = is_identity_member(u.algebra, kind, op)
        assert not chk and chk.witness is not None
        with pytest.raises(error) as exc:
            call(u, op)
        assert exc.value.witness == chk.witness
        assert str(exc.value) == f"operator fails the Lie triple {name} identity: {chk.witness}"


def test_generalized_decomposition_tests_the_hypotheses_once(annihilator_checks):
    # the block-form test, Cor 3.6 and Thm 3.3 all read one computation, and a warm cache none
    u = upper_triangular_gma(2)
    for _ in range(2):
        decompose_generalized_ltd(u, LinearOperator.identity(u.algebra), zero_operator(u.algebra))
        assert annihilator_checks == [u]


def test_the_audit_and_the_split_build_the_central_vanishing_space_once(cold_cache, monkeypatch):
    # counted like the annihilating conditions: a memoized counting body under the real one's name,
    # bound where properness defines it and where derivations imports it
    calls = []
    body = lietriple.properness.central_vanishing_space.__wrapped__

    @functools.wraps(body)
    def counting(alg):
        calls.append(alg)
        return body(alg)

    counted = lietriple.algebra.memoized(counting)
    for module in (lietriple.properness, lietriple.derivations):
        monkeypatch.setattr(module, "central_vanishing_space", counted)
    u = upper_triangular_gma(3)
    equivalence_audit(u)
    assert calls == [u.algebra]
    xi = LinearOperator.from_flat(u.algebra, solve_identity_space(u.algebra, K.LIE_TRIPLE_DERIVATION).basis[-1])
    assert isinstance(decompose_ltd(u, xi), LTDDecomposition)
    assert calls == [u.algebra]



@pytest.mark.parametrize("name", [*standard_gmas(), "example_1_2"])
def test_central_vanishing_space_matches_oracle(name):
    """The space read off the shared rows equals the span of x -> (g . x) z."""
    alg = resolve(name).algebra
    expected = central_vanishing_basis(center(alg).basis, double_commutator_span(alg).basis, alg.dim)
    assert central_vanishing_space(alg).basis == expected


class TestDecomposeLtd:
    def test_inner_derivation_trivial_split(self, t2g):
        alg = t2g.algebra
        ad = inner_derivation(alg, alg.basis_element(0).coords)
        res = decompose_ltd(t2g, ad)
        assert isinstance(res, LTDDecomposition)
        assert matrix_of(res.delta + res.singular + res.gamma) == matrix_of(ad)

    def test_with_central_offset(self, t2g):
        alg = t2g.algebra
        ad = inner_derivation(alg, alg.basis_element(0).coords)
        one = find_unit(alg).coords
        cmap = operator_of(
            alg, matrix(zip(*[one, (0, 0, 0), tuple(-x for x in one)]))
        )
        assert central_vanishing_space(alg).contains_vector(cmap.flatten())
        xi = ad + cmap
        assert is_identity_member(alg, K.LIE_TRIPLE_DERIVATION, xi)
        res = decompose_ltd(t2g, xi)
        assert isinstance(res, LTDDecomposition)
        assert matrix_of(res.delta + res.singular + res.gamma) == matrix_of(xi)
        assert is_identity_member(alg, K.DERIVATION, res.delta)

    def test_whole_basis_never_infeasible(self, t2g, m2g):
        for u in (t2g, m2g):
            assert check_thm41_hypotheses(u).satisfied
            space = solve_identity_space(u.algebra, K.LIE_TRIPLE_DERIVATION)
            for v in space.basis:
                res = decompose_ltd(u, LinearOperator.from_flat(u.algebra, v))
                assert isinstance(res, LTDDecomposition)

    def test_rejects_non_ltd(self, m2g):
        swap = operator_of(
            m2g.algebra,
            matrix([(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)]),
        )
        with pytest.raises(NotLTD):
            decompose_ltd(m2g, swap)

    def test_singular_part_genuinely_needed(self):
        # With zero pairings the off-diagonal swap is a Jordan (hence Lie
        # triple) derivation that is neither a derivation nor central.
        from lietriple.catalog import rationals
        from lietriple.gma import Bimodule, MoritaContext, assemble

        q = rationals()
        reg = Bimodule.regular(q)
        u = assemble(MoritaContext(q, q, reg, reg, {}, {}))
        alg = u.algebra
        swap = operator_of(
            alg, matrix([(0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 0)])
        )
        assert is_identity_member(alg, K.LIE_TRIPLE_DERIVATION, swap)
        res = decompose_ltd(u, swap)
        assert isinstance(res, LTDDecomposition)
        assert not res.singular.is_zero()
        assert matrix_of(res.delta + res.singular + res.gamma) == matrix_of(swap)


class TestDecomposeGeneralized:
    def test_lambda_equals_xi(self, t2g):
        alg = t2g.algebra
        xi = inner_derivation(alg, alg.basis_element(0).coords)
        res = decompose_generalized_ltd(t2g, xi, xi)
        assert isinstance(res, GLTDDecomposition)
        assert all(x == 0 for x in res.lam.coords)
        assert res.verified and res.certified_hypotheses

    def test_t2_ad_plus_identity(self, t2g):
        alg = t2g.algebra
        ad = inner_derivation(alg, alg.basis_element(0).coords)
        lam_op = ad + LinearOperator.identity(alg)
        res = decompose_generalized_ltd(t2g, lam_op, ad)
        assert isinstance(res, GLTDDecomposition)
        assert res.lam.coords == find_unit(alg).coords
        assert res.singular.is_zero()  # N = 0 leaves no singular corner
        total = res.delta + res.singular + res.psi + operator_of(alg, left_mult(alg, res.lam.coords))
        assert total == lam_op

    def test_m2_trace_shift(self, m2g):
        alg = m2g.algebra
        xi = inner_derivation(alg, alg.basis_element(1).coords)
        one = find_unit(alg).coords
        n = alg.dim
        cols = [
            one if j in m2g.block_range("A") or j in m2g.block_range("B") else (F(0),) * n
            for j in range(n)
        ]
        trace = operator_of(alg, matrix(zip(*cols)))
        lam_op = xi + trace
        res = decompose_generalized_ltd(m2g, lam_op, xi)
        assert isinstance(res, GLTDDecomposition)
        assert all(x == 0 for x in res.lam.coords)
        z = center(alg)
        for j in range(n):
            assert z.contains_vector(matrix_of(res.psi).col(j))
        for w in double_commutator_span(alg).basis:
            assert all(x == 0 for x in matrix_of(res.psi).matvec(w))

    def test_random_pairs(self, t2g, m2g):
        rng = random.Random(31)
        for u in (t2g, m2g):
            alg = u.algebra
            ltd = solve_identity_space(alg, K.LIE_TRIPLE_DERIVATION)
            ltc = solve_identity_space(alg, K.LIE_TRIPLE_CENTRALIZER)
            for _ in range(5):
                xi = rand_member(ltd, alg, rng)
                lam_op = xi + rand_member(ltc, alg, rng)
                res = decompose_generalized_ltd(u, lam_op, xi)
                assert isinstance(res, GLTDDecomposition)
                assert res.verified
