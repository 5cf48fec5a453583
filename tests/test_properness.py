import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from lietriple.algebra import LinearOperator, StructureConstants, center, find_unit
from lietriple.catalog import (
    _matrix_units,
    dual_numbers,
    example_1_2,
    full_matrix_gma,
    random_gma,
    rationals,
    resolve,
    standard_gmas,
    triangular_context,
    upper_triangular_gma,
)
from lietriple import properness
from lietriple.centralizers import IdentityKind, block_decompose, solve_identity_space
from lietriple.cli import main
from lietriple.derivations import check_thm41_hypotheses
from lietriple.errors import AnnihilatorConditionsFail, LieTripleError, NotLTC, NotUnital
from lietriple.gma import (
    GMA,
    Bimodule,
    CenterBlocks,
    assemble,
    block_hypotheses_hold,
    center_block_description,
    eta_map,
)
from lietriple.linalg import Subspace, combination
from oracles import (
    algebra_doc,
    bimodule_doc,
    matrix,
    matrix_of,
    operator_doc,
    operator_of,
    row_space_basis,
    rows_of,
    write_doc,
    zero_operator,
)
from lietriple.properness import (
    Infeasible,
    PropernessCertificate,
    PropernessFailure,
    _unit_failure,
    check_cor36_hypotheses,
    equivalence_audit,
    is_proper_direct,
    is_proper_thm33,
)

F = Fraction
K = IdentityKind


@pytest.fixture(scope="module")
def gmas():
    return {
        "T2": upper_triangular_gma(2),
        "T3": upper_triangular_gma(3),
        "M2": full_matrix_gma(2),
        "M3": full_matrix_gma(3),
    }


@pytest.fixture(scope="module")
def ex12():
    return example_1_2()


def trace_map(u):
    """X -> tr(X) * 1 on a GMA whose A and B corners are scalar lines."""
    alg = u.algebra
    one = find_unit(alg).coords
    n = alg.dim
    cols = []
    for j in range(n):
        if j in u.block_range("A") or j in u.block_range("B"):
            cols.append(one)
        else:
            cols.append((F(0),) * n)
    return operator_of(alg, matrix(zip(*cols)))


def faithful_dual_number_triangular():
    """Tri(A, A, Q) with A = Q[x]/(x^2) acting regularly on itself."""
    dn = dual_numbers()
    regular = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}  # dn's own table
    mod = Bimodule(2, 2, 1, regular, {(p, 0, p): 1 for p in range(2)})
    return assemble(triangular_context(dn, mod, rationals()))


class TestThm33:
    def test_identity_on_m2(self, gmas):
        res = is_proper_thm33(gmas["M2"], LinearOperator.identity(gmas["M2"].algebra))
        assert isinstance(res, PropernessCertificate)
        assert res.lam.coords == find_unit(gmas["M2"].algebra).coords
        assert res.chi.is_zero()
        assert res.verified

    def test_every_t2_basis_solution_is_proper(self, gmas):
        u = gmas["T2"]
        space = solve_identity_space(u.algebra, K.LIE_TRIPLE_CENTRALIZER)
        for v in space.basis:
            res = is_proper_thm33(u, LinearOperator.from_flat(u.algebra, v))
            assert isinstance(res, PropernessCertificate)

    def test_trace_map_certificate(self, gmas):
        u = gmas["M2"]
        phi = trace_map(u)
        res = is_proper_thm33(u, phi)
        assert isinstance(res, PropernessCertificate)
        assert all(x == 0 for x in res.lam.coords)
        assert res.chi == phi
        z = center(u.algebra)
        for j in range(4):
            assert z.contains_vector(matrix_of(res.chi).col(j))

    def test_rejects_non_ltc(self, gmas):
        u = gmas["M2"]
        swap = operator_of(
            u.algebra,
            matrix([(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)]),
        )
        with pytest.raises(NotLTC):
            is_proper_thm33(u, swap)

    def test_requires_unit(self, ex12):
        with pytest.raises(NotUnital):
            is_proper_thm33(ex12.gma, ex12.phi)


class TestDirect:
    def test_zero_operator(self, gmas):
        res = is_proper_direct(gmas["T2"].algebra, zero_operator(gmas["T2"].algebra))
        assert isinstance(res, PropernessCertificate)
        assert all(x == 0 for x in res.lam.coords)
        assert res.chi.is_zero()

    def test_central_scaling(self, gmas):
        for u in gmas.values():
            res = is_proper_direct(u.algebra, 7 * LinearOperator.identity(u.algebra))
            assert isinstance(res, PropernessCertificate)
            assert res.chi.is_zero()

    def test_example_is_infeasible_with_probe_witness(self, ex12):
        alg = ex12.gma.algebra
        res = is_proper_direct(alg, ex12.phi, probes=[ex12.a0])
        assert isinstance(res, Infeasible)
        assert res.witness_element.coords == ex12.a0.coords
        # the image is exactly phi(A0) and it escapes the center
        assert res.witness_image == ex12.phi(ex12.a0)
        assert not center(alg).contains_vector(res.witness_image.coords)

    def test_example_infeasible_without_probes_too(self, ex12):
        res = is_proper_direct(ex12.gma.algebra, ex12.phi)
        assert isinstance(res, Infeasible)

    def test_zero_center_leaves_no_lambda(self):
        # e_i e_j = e_j on Q^2: the center is 0 and there is no unit, so
        # lambda has no coordinates and the solve has zero unknowns.  The
        # identity is a Lie triple centralizer, and e0 is its own residual,
        # outside the zero center.
        alg = StructureConstants(2, {(i, j, j): 1 for i in range(2) for j in range(2)})
        assert center(alg).is_zero() and find_unit(alg) is None
        (v,) = solve_identity_space(alg, K.LIE_TRIPLE_CENTRALIZER).basis
        phi = LinearOperator.from_flat(alg, v)
        assert phi == LinearOperator.identity(alg)
        res = is_proper_direct(alg, phi)
        assert isinstance(res, Infeasible)
        assert res.witness_element == alg.basis_element(0)
        assert res.witness_image == alg.basis_element(0)

    def test_trace_map_agrees_with_block_route(self, gmas):
        u = gmas["M2"]
        phi = trace_map(u)
        res = is_proper_direct(u.algebra, phi)
        assert isinstance(res, PropernessCertificate)
        assert all(x == 0 for x in res.lam.coords)
        assert res.chi == phi


class TestCertificates:
    def test_transcripts_complete(self, gmas):
        u = gmas["M2"]
        res = is_proper_thm33(u, LinearOperator.identity(u.algebra))
        names = [name for name, _ in res.transcript]
        assert "lambda is central" in names
        assert "chi vanishes on all double commutators" in names
        assert res.verified

    def test_additivity_along_the_construction(self, gmas):
        rng = random.Random(2)
        u = gmas["T2"]
        space = solve_identity_space(u.algebra, K.LIE_TRIPLE_CENTRALIZER)

        def sample():
            flat = (F(0),) * space.ambient
            for bv in space.basis:
                c = F(rng.randint(-3, 3))
                flat = tuple(a + c * b for a, b in zip(flat, bv))
            return LinearOperator.from_flat(u.algebra, flat)

        for routes in (is_proper_thm33, None):
            phi1, phi2 = sample(), sample()
            if routes is None:
                r1 = is_proper_direct(u.algebra, phi1)
                r2 = is_proper_direct(u.algebra, phi2)
                r12 = is_proper_direct(u.algebra, phi1 + phi2)
            else:
                r1, r2, r12 = (is_proper_thm33(u, p) for p in (phi1, phi2, phi1 + phi2))
            assert rows_of(matrix_of(phi1 + phi2)) == tuple(
                tuple(a + b for a, b in zip(r, s)) for r, s in zip(rows_of(matrix_of(phi1)), rows_of(matrix_of(phi2)))
            )
            assert r12.lam.coords == tuple(
                a + b for a, b in zip(r1.lam.coords, r2.lam.coords)
            )
            assert r12.chi == r1.chi + r2.chi


    @pytest.mark.parametrize(
        "route", [lambda u, phi: is_proper_direct(u.algebra, phi), is_proper_thm33], ids=["direct", "thm33"]
    )
    def test_a_certificate_that_fails_its_recheck_is_refused(self, gmas, monkeypatch, route):
        # the identity of T3 is proper on both routes; once the re-check
        # finds chi off the center, no certificate may be returned
        monkeypatch.setattr(properness, "central_vanishing_verdicts", lambda alg, op: (False, True))
        u = gmas["T3"]
        with pytest.raises(LieTripleError, match="^certificate failed re-verification: "):
            route(u, LinearOperator.identity(u.algebra))


class TestCor36:
    def test_m2_and_t2_satisfied_via_centers(self, gmas):
        for name in ("T2", "T3", "M2", "M3"):
            rep = check_cor36_hypotheses(gmas[name])
            assert rep.pi_b_equals_center_b and rep.pi_a_equals_center_a
            assert rep.satisfied

    def test_dual_number_context_not_satisfied(self):
        # pi_A(Z(U)) is the scalar line but Z(A) is two-dimensional, and
        # [[B,B],B] = 0, so side (ii) has no true disjunct.
        u = faithful_dual_number_triangular()
        rep = check_cor36_hypotheses(u)
        assert rep.pi_b_equals_center_b
        assert not rep.pi_a_equals_center_a
        assert not rep.triple_span_b_full
        assert not rep.satisfied

    def test_hypotheses_are_tested_once(self, gmas, annihilator_checks):
        # once on a cold cache, not at all on a warm one
        for _ in range(2):
            check_cor36_hypotheses(gmas["T2"])
            assert annihilator_checks == [gmas["T2"]]

    def test_thm33_tests_the_hypotheses_once(self, gmas, annihilator_checks):
        for _ in range(2):
            is_proper_thm33(gmas["T3"], LinearOperator.identity(gmas["T3"].algebra))
            assert annihilator_checks == [gmas["T3"]]


def _audited_gmas():
    return {
        **standard_gmas(),
        "dual numbers": faithful_dual_number_triangular(),
        "R1": random_gma(random.Random(1)),
    }


def _operators(rep, rng):
    """Every LTC basis vector, then three seeded random combinations of the LTC basis and three of the direct basis."""
    flats = list(rep.ltc.basis)
    for space in (rep.ltc, rep.direct) * 3:
        coeffs = [F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in space.basis]
        flats.append(combination(coeffs, space.basis, space.ambient))
    return flats


class TestEquivalence:
    def test_catalog_audits_consistent(self, gmas):
        for u in gmas.values():
            rep = equivalence_audit(u)
            assert rep.all_consistent
            assert rep.improper_codimension == 0 and rep.direct == rep.ltc

    def test_improper_exists_on_dual_number_context(self):
        rep = equivalence_audit(faithful_dual_number_triangular())
        assert rep.all_consistent
        assert (rep.ltc.dim, rep.direct.dim, rep.improper_codimension) == (5, 4, 1)

    def test_unit_rows_weight_every_column_of_the_source_unit(self):
        # the incidence algebra of the poset 1<4, 2<3, 2<4, split after point 2: A = Q x Q, whose
        # unit e11 + e22 is no basis vector, so rows reading one column of A would accept 7 maps
        cells = [(0, 0), (1, 1), (0, 3), (1, 2), (1, 3), (2, 2), (3, 3)]
        u = GMA(_matrix_units(cells), (2, 3, 0, 2))
        assert u.content_hash.startswith("8d33ac24")
        rep = equivalence_audit(u)
        assert rep.ltc.dim == 7
        assert rep.direct == rep.ranges == rep.units and rep.units.dim == 5
        assert rep.improper_codimension == 2

    @pytest.mark.parametrize("name", sorted(_audited_gmas()))
    def test_each_per_operator_route_agrees_with_the_audit(self, name):
        # the routes read the corner maps and the certificates, the audit its own rows
        u = _audited_gmas()[name]
        rep = equivalence_audit(u)
        blocks = center_block_description(u)
        for v in _operators(rep, random.Random(name)):
            phi = LinearOperator.from_flat(u.algebra, v)
            d = block_decompose(u, phi)
            direct = isinstance(is_proper_direct(u.algebra, phi), PropernessCertificate)
            assert direct == rep.direct.contains_vector(v)
            assert (_unit_failure(u, d, blocks.pi_a, blocks.pi_b) is None) == rep.units.contains_vector(v)
            assert all(d.ranges_inside(blocks.pi_a, blocks.pi_b)) == rep.ranges.contains_vector(v)
            assert isinstance(is_proper_thm33(u, phi), PropernessCertificate) == rep.units.contains_vector(v)

    def test_a_wrong_target_projection_shows_as_inconsistent(self, monkeypatch):
        # with pi_B(Z) taken as 0, alpha4 = 0 is demanded: ranges and units shrink, direct does not
        u = upper_triangular_gma(2)
        blocks = center_block_description(u)
        wrong = CenterBlocks(blocks.z, blocks.pi_a, Subspace.zero(blocks.pi_b.ambient))
        monkeypatch.setattr(properness, "center_block_description", lambda _u: wrong)
        rep = equivalence_audit(u)
        assert not rep.all_consistent
        assert rep.units.dim == rep.ranges.dim < rep.direct.dim == rep.ltc.dim

    def test_a_proper_map_outside_the_ltc_space_is_refused(self, monkeypatch):
        u = full_matrix_gma(2)
        monkeypatch.setattr(properness, "solve_identity_space", lambda alg, kind: Subspace.zero(alg.dim**2))
        with pytest.raises(LieTripleError, match="L\\(Z\\) \\+ CV"):
            equivalence_audit(u)

    def test_failure_witness_is_sound(self):
        u = faithful_dual_number_triangular()
        space = solve_identity_space(u.algebra, K.LIE_TRIPLE_CENTRALIZER)
        failures = []
        for v in space.basis:
            phi = LinearOperator.from_flat(u.algebra, v)
            res = is_proper_thm33(u, phi)
            if isinstance(res, PropernessFailure):
                failures.append(res)
                # independent rank test: the witness really is outside
                assert res.sound()
                span = row_space_basis(res.target.basis)
                assert len(row_space_basis(span + (res.witness,))) == len(span) + 1
                # and the direct route agrees this operator is improper
                assert isinstance(is_proper_direct(u.algebra, phi), Infeasible)
        assert failures


# The census of ROADMAP item 4: the catalog GMAs and random_gma(Random(s),
# require_n=r) for s in 0..39 and r in (None, True).  These draws have
# improper codimension 1 and meet the block hypotheses; 28 draws fail them.
_IMPROPER_DRAWS = {(s, None) for s in (1, 4, 6, 8, 12, 17, 21, 27, 29, 31, 38)}


def test_census_of_catalog_and_random_draws_is_pinned():
    draws = {(s, r): random_gma(random.Random(s), require_n=r) for s in range(40) for r in (None, True)}
    outcomes = Counter()
    for name, u in {**standard_gmas(), **draws}.items():
        try:
            rep = equivalence_audit(u)
        except AnnihilatorConditionsFail:
            outcomes["fails the block hypotheses"] += 1
            continue
        assert rep.all_consistent, name
        assert rep.improper_codimension == (name in _IMPROPER_DRAWS), name
        outcomes[rep.improper_codimension] += 1
    assert outcomes == {0: 45, 1: 11, "fails the block hypotheses": 28}


# sha256 of the stdout of ``proper`` on the improper draw below, recorded
# before ``proper`` re-checked a failure through ``PropernessFailure.sound``
_IMPROPER_DRAW_DIGESTS = {
    "text": "bf8f15f7bc3ede67a725da3e90418f5349108926549f247b0c786bf890fa9cdd",
    "json": "47aab5ec110a67cfdb713d4ff15c8f2b5fc032238ccc1c413c09bf0b9a05070b",
}


@pytest.fixture
def improper_draw(tmp_path, monkeypatch):
    """``proper``'s arguments for random_gma(Random(1)) as tri(A,M,B) documents and its improper LTC basis vector 2.

    The draw's improper codimension is 1: its other four LTC basis
    vectors are proper, and the proper ones form a subspace.
    """
    monkeypatch.chdir(tmp_path)
    u = random_gma(random.Random(1))
    ctx = u.context
    # unlabelled corners, so tri(...) labels the blocks as random_gma does
    write_doc("A.json", {"table": algebra_doc(ctx.A)["table"]})
    write_doc("M.json", bimodule_doc(ctx.M))
    write_doc("B.json", {"table": algebra_doc(ctx.B)["table"]})
    spec = "tri(A.json,M.json,B.json)"
    assert resolve(spec).gma == u and equivalence_audit(u).improper_codimension == 1
    phi = LinearOperator.from_flat(u.algebra, solve_identity_space(u.algebra, K.LIE_TRIPLE_CENTRALIZER).basis[2])
    assert isinstance(is_proper_thm33(u, phi), PropernessFailure)
    write_doc("phi.json", operator_doc(phi))
    return ["proper", spec, "phi.json"]


def test_proper_rechecks_a_failure_and_keeps_its_bytes(improper_draw, monkeypatch, capsys):
    sound, verdicts = PropernessFailure.sound, []
    monkeypatch.setattr(PropernessFailure, "sound", lambda self: verdicts.append(sound(self)) or verdicts[-1])
    for fmt, digest in _IMPROPER_DRAW_DIGESTS.items():
        code = main([*improper_draw, "--format", fmt])
        out = capsys.readouterr()
        assert code == 0 and out.err == ""
        assert hashlib.sha256(out.out.encode()).hexdigest() == digest
    assert verdicts == [True, True]


def test_proper_refuses_a_failure_that_is_not_sound(improper_draw, monkeypatch, capsys):
    monkeypatch.setattr(PropernessFailure, "sound", lambda self: False)
    code = main(improper_draw)
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert len(out.err.splitlines()) == 1 and out.err.startswith("mathematical check failed: ")


# sha256 over is_proper_direct on every LTC basis vector of the draws
# random_gma(Random(s)), s = 0..39: verdict, lambda, chi, transcript,
# reason and witness.  Recorded before the central-vanishing condition
# was stated once as shared integer rows.
_PINNED_DIRECT_RANDOM = "38a0bab9cb251a1bd6b4c5f7c2cb1c6b7de4c2108593cd26f2456e192ba112ec"


def test_direct_route_on_random_draws_is_pinned():
    h = hashlib.sha256()
    verdicts = []
    for s in range(40):
        alg = random_gma(random.Random(s)).algebra
        for v in solve_identity_space(alg, K.LIE_TRIPLE_CENTRALIZER).basis:
            res = is_proper_direct(alg, LinearOperator.from_flat(alg, v))
            if isinstance(res, PropernessCertificate):
                verdicts.append("proper")
                h.update(repr(("proper", res.lam.coords, rows_of(matrix_of(res.chi)), res.transcript)).encode())
            else:
                wit = res.witness_element is not None
                verdicts.append("witnessed" if wit else "infeasible")
                h.update(repr(("infeasible", res.reason,
                               wit and res.witness_element.coords, wit and res.witness_image.coords)).encode())
    assert (verdicts.count("proper"), verdicts.count("witnessed"), len(verdicts)) == (156, 12, 168)
    assert h.hexdigest() == _PINNED_DIRECT_RANDOM


# sha256 over the block-form route on the four standard GMAs and on the
# draws random_gma(Random(s)), s = 0..39, where the block hypotheses hold:
# eta's images and preimages, the Thm 4.1 report, and is_proper_thm33 on
# every LTC basis vector (lambda, the rows of chi, alpha_bar and beta_bar, and the
# transcript, or the failure's side, witness and target basis).  Recorded
# while eta was still found by a linear solve per basis vector and chi
# was assembled column by column.
_PINNED_BLOCK_ROUTE = "84dc67ed95658d89df8ccbffe31685ffb8f1677bb9109a7c4e08a2f32f5d4180"


def test_block_route_on_random_draws_is_pinned():
    draws = [u for u in (random_gma(random.Random(s)) for s in range(40)) if block_hypotheses_hold(u)]
    h = hashlib.sha256()
    verdicts = []
    for u in [*standard_gmas().values(), *draws]:
        eta = eta_map(u)
        h.update(repr((eta.images, eta.preimages)).encode())
        h.update(repr(check_thm41_hypotheses(u)).encode())
        for v in solve_identity_space(u.algebra, K.LIE_TRIPLE_CENTRALIZER).basis:
            res = is_proper_thm33(u, LinearOperator.from_flat(u.algebra, v))
            if isinstance(res, PropernessCertificate):
                verdicts.append("proper")
                h.update(repr((res.lam.coords, rows_of(matrix_of(res.chi)), rows_of(res.alpha_bar),
                               rows_of(res.beta_bar), res.transcript)).encode())
            else:
                verdicts.append("failure")
                h.update(repr((res.side, res.witness, res.target.basis)).encode())
    # the standard four add 11 certificates to the draws' 112
    assert (len(draws), verdicts.count("proper"), verdicts.count("failure")) == (33, 11 + 112, 12)
    assert h.hexdigest() == _PINNED_BLOCK_ROUTE
