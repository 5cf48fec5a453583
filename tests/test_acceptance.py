"""Acceptance suite: every criterion checked exactly, zero tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL
line per criterion.
"""

import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from lietriple.algebra import LinearOperator, center
from lietriple.catalog import (
    example_1_2,
    full_matrix_gma,
    random_gma,
    upper_triangular_gma,
)
from lietriple.centralizers import (
    IdentityKind,
    block_decompose,
    build_from_blocks,
    is_identity_member,
    six_map_solution_space,
    six_maps_from_flat,
    solve_identity_space,
    verify_thm31_conditions,
)
from lietriple.gma import block_center, check_annihilating_conditions, eta_map
from lietriple.derivations import (
    GLTDDecomposition,
    check_gltd_correspondence,
    decompose_generalized_ltd,
)
from lietriple.linalg import unit_vec
from lietriple.properness import (
    Infeasible,
    PropernessCertificate,
    check_cor36_hypotheses,
    equivalence_audit,
    is_proper_direct,
    is_proper_thm33,
)

from oracles import context_grids, dense_contract, dense_identity_space, left_mult

F = Fraction
K = IdentityKind


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def catalog_gmas():
    return {
        "T2": upper_triangular_gma(2),
        "T3": upper_triangular_gma(3),
        "M2": full_matrix_gma(2),
        "M3": full_matrix_gma(3),
    }


def random_combination(space, rng, denoms=(1, 2)):
    flat = (F(0),) * space.ambient
    for bv in space.basis:
        c = F(rng.randint(-3, 3), rng.choice(denoms))
        flat = tuple(a + c * b for a, b in zip(flat, bv))
    return flat


def test_criterion_1_example_reproduction():
    with criterion(1, "motivating example reproduced exactly in under 10 s"):
        start = time.monotonic()
        ex = example_1_2()
        alg = ex.gma.algebra
        n = alg.dim

        # (a) all 1728 double commutators vanish
        checked = 0
        for i in range(n):
            for j in range(n):
                ei, ej = alg.basis_element(i), alg.basis_element(j)
                br = ei * ej - ej * ei
                for k in range(n):
                    ek = alg.basis_element(k)
                    assert (br * ek - ek * br).is_zero()
                    checked += 1
        assert checked == 1728

        # (b) the swap map satisfies the triple identity on all basis triples
        assert is_identity_member(alg, K.LIE_TRIPLE_CENTRALIZER, ex.phi)

        # (c) it is not a Lie centralizer at the catalog witness pair
        lhs = ex.phi(ex.a0 * ex.b0 - ex.b0 * ex.a0)
        rhs = ex.phi(ex.a0) * ex.b0 - ex.b0 * ex.phi(ex.a0)
        assert lhs != rhs

        # (d) the center is the corner grid of dimension 4
        assert center(alg) == ex.expected_center
        assert ex.expected_center.dim == 4

        # (e) no proper splitting, witnessed by the image of A0
        res = is_proper_direct(alg, ex.phi, probes=[ex.a0])
        assert isinstance(res, Infeasible)
        assert res.witness_element.coords == ex.a0.coords
        assert res.witness_image == ex.phi(ex.a0)
        assert not center(alg).contains_vector(res.witness_image.coords)

        assert time.monotonic() - start < 10.0


def test_criterion_2_block_form_round_trip():
    with criterion(2, "block-form round trip on catalog and 20 random contexts in under 2 min"):
        start = time.monotonic()
        units = dict(catalog_gmas())
        for s in range(20):
            u = random_gma(random.Random(5000 + s), require_n=(s % 2 == 0))
            units[f"random{s}"] = u
            assert max(u.dims[0], u.dims[3]) <= 2 and u.dims[1] <= 2 and u.dims[2] <= 2

        rng = random.Random(77)
        tuples_checked = 0
        for name, u in units.items():
            space = solve_identity_space(u.algebra, K.LIE_TRIPLE_CENTRALIZER)
            for v in space.basis:
                op = LinearOperator.from_flat(u.algebra, v)
                rep = verify_thm31_conditions(u, block_decompose(u, op))
                assert rep.passed, (name, rep.failures)
            tuple_space = six_map_solution_space(u)
            assert tuple_space.dim == space.dim, name
            for _ in range(9):
                maps = six_maps_from_flat(u, random_combination(tuple_space, rng))
                op = build_from_blocks(
                    u, maps["alpha1"], maps["beta1"], maps["tau2"],
                    maps["gamma3"], maps["alpha4"], maps["beta4"],
                )
                assert space.contains_vector(op.flatten()), name
                tuples_checked += 1
        assert tuples_checked >= 200
        assert time.monotonic() - start < 120.0


def test_criterion_3_center_description_audit():
    with criterion(3, "center description: raw kernel equals block constraints, eta an isomorphism"):
        for name, u in catalog_gmas().items():
            assert check_annihilating_conditions(u).holds, name
            assert block_center(u) == center(u.algebra), name
            eta = eta_map(u)  # constructor re-verifies multiplicativity
            grids = context_grids(u.context)
            for a in eta.domain.basis:
                b = eta.apply(a)
                for p in range(u.dim_m):
                    m = unit_vec(u.dim_m, p)
                    assert dense_contract(grids["M.left"], a, m, u.dim_m) == dense_contract(grids["M.right"], m, b, u.dim_m)
                for q in range(u.dim_n):
                    nv = unit_vec(u.dim_n, q)
                    assert dense_contract(grids["N.right"], nv, a, u.dim_n) == dense_contract(grids["N.left"], b, nv, u.dim_n)


def test_criterion_4_properness_equivalence():
    with criterion(4, "direct, range and unit properness criteria coincide (basis + 50 random each)"):
        for name, u in catalog_gmas().items():
            rep = equivalence_audit(u, extra_random=50, seed=13)
            assert rep.all_consistent, name


def test_criterion_5_sufficiency_and_oracle_dimensions():
    with criterion(5, "sufficiency hypotheses hold and every solution splits; dims match the dense oracle"):
        for name, u in catalog_gmas().items():
            assert check_cor36_hypotheses(u).satisfied, name
            space = solve_identity_space(u.algebra, K.LIE_TRIPLE_CENTRALIZER)
            for v in space.basis:
                phi = LinearOperator.from_flat(u.algebra, v)
                res = is_proper_thm33(u, phi)
                assert isinstance(res, PropernessCertificate), name
                # exact residual: phi(X) - lambda X - chi(X) = 0 entrywise
                residual = phi - LinearOperator(u.algebra, left_mult(u.algebra, res.lam.coords)) - res.chi
                assert residual.is_zero()
        t2, m2 = catalog_gmas()["T2"].algebra, catalog_gmas()["M2"].algebra
        oracle_t2 = dense_identity_space(t2, "ltc")
        oracle_m2 = dense_identity_space(m2, "ltc")
        assert len(oracle_t2) == 3 and len(oracle_m2) == 2
        assert solve_identity_space(t2, K.LIE_TRIPLE_CENTRALIZER).basis == oracle_t2
        assert solve_identity_space(m2, K.LIE_TRIPLE_CENTRALIZER).basis == oracle_m2


def test_criterion_6_generalized_decomposition():
    with criterion(6, "25 random generalized pairs decompose with exact residual"):
        rng = random.Random(99)
        pairs_done = 0
        for u in (catalog_gmas()["T2"], catalog_gmas()["M2"]):
            alg = u.algebra
            ltd = solve_identity_space(alg, K.LIE_TRIPLE_DERIVATION)
            ltc = solve_identity_space(alg, K.LIE_TRIPLE_CENTRALIZER)
            for _ in range(13):
                xi = LinearOperator.from_flat(alg, random_combination(ltd, rng))
                phi = LinearOperator.from_flat(alg, random_combination(ltc, rng))
                lam_op = xi + phi
                assert check_gltd_correspondence(alg, lam_op, xi)
                res = decompose_generalized_ltd(u, lam_op, xi)
                assert isinstance(res, GLTDDecomposition)
                total = res.delta + res.singular + res.psi + LinearOperator(alg, left_mult(alg, res.lam.coords))
                assert total == lam_op
                assert res.verified
                pairs_done += 1
        assert pairs_done >= 25


def test_criterion_7_inclusion_lattice():
    with criterion(7, "centralizer inclusions on the catalog; strict gap on the motivating example"):
        ex = example_1_2()
        algebras = [u.algebra for u in catalog_gmas().values()] + [ex.gma.algebra]
        for alg in algebras:
            ltc = solve_identity_space(alg, K.LIE_TRIPLE_CENTRALIZER)
            assert ltc.contains(solve_identity_space(alg, K.LIE_CENTRALIZER))
            assert ltc.contains(solve_identity_space(alg, K.JORDAN_CENTRALIZER))
        ltc = solve_identity_space(ex.gma.algebra, K.LIE_TRIPLE_CENTRALIZER)
        lc = solve_identity_space(ex.gma.algebra, K.LIE_CENTRALIZER)
        assert ltc.dim == 144
        gap = ltc.dim - lc.dim
        assert gap > 0
        print(f"  strictness gap on the motivating example: {gap} (144 vs {lc.dim})")


def test_criterion_8_reproduction_command_deterministic():
    with criterion(8, "verify-paper exits 0 with byte-identical reports"):
        cmd = [sys.executable, "-m", "lietriple.cli", "verify-paper"]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert b"all checks passed" in first.stdout
