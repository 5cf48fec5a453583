"""The cache of per-GMA facts, per-algebra rows and membership verdicts.

A GMA's facts live in the table found by its algebra's content hash and
its block dims, an algebra's in the one found by its content hash, a
membership verdict under the kind and the operator's exact nonzero
coordinates in its algebra's table.  A value read warm must be the value
computed cold, and two GMAs on one algebra must not share a table.  A
GMA holds its algebra's corner slices, so the hash and the dims fix it;
a split the slices do not fit raises before anything is cached.
"""

import gc
import random
import tracemalloc
from fractions import Fraction
from operator import attrgetter

import pytest

import lietriple.algebra
import lietriple.centralizers
from lietriple.algebra import LinearOperator, basis_tensor
from lietriple.catalog import (
    direct_sum,
    example_1_2,
    full_matrix,
    full_matrix_gma,
    rationals,
    scalar_bimodule,
    standard_gmas,
    strict_upper_3x3,
    triangular_context,
    upper_triangular,
    upper_triangular_gma,
)
from lietriple.centralizers import IdentityKind, is_identity_member, solve_identity_space
from lietriple.derivations import check_thm41_hypotheses
from lietriple.errors import (
    AlgebraMismatch,
    DimensionMismatch,
    InvalidBlockStructure,
    LieTripleError,
    NotAssociative,
    NotGMA,
    NotUnital,
)
from lietriple.gma import (
    GMA,
    _RULES,
    Bimodule,
    MoritaContext,
    _commutation_rows,
    assemble,
    block_center,
    center_block_description,
    check_annihilating_conditions,
    eta_map,
    m2_of,
)
from lietriple.linalg import tensor_entries
from lietriple.properness import (
    _center_multiplications,
    central_vanishing_rows,
    central_vanishing_space,
    check_cor36_hypotheses,
    equivalence_audit,
)
from oracles import rebased, unit_diagonal_basis, zero_operator
from test_gma import MALFORMED_DIMS

LTC = IdentityKind.LIE_TRIPLE_CENTRALIZER
SJDER = IdentityKind.SINGULAR_JORDAN_DERIVATION

GMA_FACTS = (check_annihilating_conditions, _commutation_rows, center_block_description, eta_map)
ALGEBRA_FACTS = (central_vanishing_rows, central_vanishing_space, _center_multiplications)


def _m2_plus_q(dims):
    """M2(Q) + Q in the basis e11, e12, e21, e22, f: one algebra, split as (1, 1, 1, 2) or as (4, 0, 0, 1)."""
    return GMA(direct_sum(full_matrix(2), rationals()), dims)


def _gmas():
    return {
        **standard_gmas(),
        "example_1_2": example_1_2().gma,
        "m2(upper_triangular(2))": m2_of(upper_triangular(2)),
        "full_matrix(3) split 1": full_matrix_gma(3, 1),
        "full_matrix(3) split 2": full_matrix_gma(3, 2),
        "M2(Q)+Q split 1": _m2_plus_q((1, 1, 1, 2)),
        "M2(Q)+Q split 4": _m2_plus_q((4, 0, 0, 1)),
    }


def _outcome(fn, x):
    """fn(x) in a comparable form, or the type and message of the error it raised."""
    try:
        value = fn(x)
    except LieTripleError as exc:
        return type(exc), str(exc)
    if fn is eta_map:
        return value.domain, value.codomain, value.images, value.preimages
    return value


def _facts(u):
    return [_outcome(fn, u) for fn in GMA_FACTS] + [_outcome(fn, u.algebra) for fn in ALGEBRA_FACTS]


def _read_the_facts(u):
    """Run the certificate code that reads the cached facts; none of it may change them."""
    for fn in (equivalence_audit, check_thm41_hypotheses, block_center, check_cor36_hypotheses):
        _outcome(fn, u)


def test_warm_facts_equal_cold_ones(cold_cache):
    # cold: each GMA on a cache of its own; warm: all of them in one cache,
    # read before and after the code that reads them has run
    gmas = _gmas()
    cold = {}
    for name, u in gmas.items():
        cold_cache()
        cold[name] = _facts(u)
    cold_cache()
    for name, u in gmas.items():
        assert _facts(u) == cold[name], name
        _read_the_facts(u)
    for name, u in gmas.items():
        assert _facts(u) == cold[name], name


def test_two_splits_of_one_algebra_keep_separate_entries(cold_cache):
    split1, split4 = _m2_plus_q((1, 1, 1, 2)), _m2_plus_q((4, 0, 0, 1))
    assert split1.algebra.content_hash == split4.algebra.content_hash
    assert split1.content_hash != split4.content_hash
    assert check_annihilating_conditions(split1).holds_a and not check_annihilating_conditions(split4).holds_a
    assert _commutation_rows(split1) != _commutation_rows(split4)
    name = check_annihilating_conditions.__wrapped__.__qualname__
    assert split1._facts is not split4._facts
    holders = [h for h, table in lietriple.algebra._CACHE.items() if (name,) in table]
    assert sorted(holders) == sorted([split1.content_hash, split4.content_hash])


@pytest.mark.parametrize(
    "algebra, dims, error",
    [
        (lambda: full_matrix_gma(3).algebra, (4, 2, 2, 1), NotAssociative),
        (lambda: upper_triangular_gma(3).algebra, (2, 1, 0, 3), InvalidBlockStructure),
        *((lambda: direct_sum(full_matrix(2), rationals()), dims, DimensionMismatch) for dims in MALFORMED_DIMS),
    ],
    ids=["M3-4221", "T3-2103", "negative", "five", "float", "bool"],
)
def test_a_failing_split_stores_nothing(cold_cache, algebra, dims, error):
    # a GMA holds its algebra's corner slices, so a split the slices do not
    # fit raises before any fact can be cached under the algebra's hash
    alg = algebra()
    cold_cache()
    with pytest.raises(error):
        GMA(alg, dims)
    assert alg._facts == {} and not any(lietriple.algebra._CACHE.values())


def _m2_context(alg):
    """The context m2_of builds: alg in all four corners, acting on itself, paired by its product."""
    reg = Bimodule.regular(alg)
    table = tensor_entries(alg._sparse)
    return MoritaContext(alg, alg, reg, reg, table, table)


@pytest.mark.parametrize(
    "context, built",
    [
        (lambda: _m2_context(upper_triangular(2)), lambda: m2_of(upper_triangular(2))),
        (lambda: _m2_context(strict_upper_3x3()), lambda: example_1_2().gma),
        (lambda: triangular_context(rationals(), scalar_bimodule(), rationals()), None),
    ],
    ids=["m2(T2)", "example_1_2", "tri(Q,Q,Q)"],
)
def test_an_assembled_gma_holds_the_context_it_was_given(context, built):
    # tensors, not hashes: the sliced A and B carry the block labels a:... and b:...
    ctx = context()
    gmas = [assemble(ctx)] + ([built()] if built else [])
    for u in gmas:
        assert u.dims == (ctx.A.dim, ctx.M.dim, ctx.N.dim, ctx.B.dim)
        for path in _RULES:
            assert attrgetter(path)(u.context) == attrgetter(path)(ctx), path


def test_a_failing_call_stores_nothing_and_raises_again(cold_cache):
    u = example_1_2().gma  # not unital
    for _ in range(2):
        for fn in (center_block_description, eta_map):
            with pytest.raises(NotUnital):
                fn(u)
    names = {fn.__wrapped__.__qualname__ for fn in (center_block_description, eta_map)}
    assert not [key for key in u._facts if key[0] in names]
    with pytest.raises(NotGMA):
        is_identity_member(u.algebra, SJDER, zero_operator(u.algebra))


def _evaluations(monkeypatch):
    """The operators the identity evaluator is run on, from now on."""
    calls = []
    real = lietriple.centralizers._identity_residuals

    def counting(alg, kind, flat, slot_flats=None):
        calls.append(flat)
        return real(alg, kind, flat, slot_flats)

    monkeypatch.setattr(lietriple.centralizers, "_identity_residuals", counting)
    return calls


def _e11_to_e12(alg):
    """The operator e11 -> e12, every other basis vector -> 0."""
    i, j = alg.labels.index("e11"), alg.labels.index("e12")
    return LinearOperator.from_images(alg, [alg.basis_element(j) if k == i else alg.zero() for k in range(alg.dim)])


def test_a_membership_verdict_is_computed_once(cold_cache, monkeypatch):
    evaluations = _evaluations(monkeypatch)
    alg = upper_triangular_gma(3).algebra
    cold = is_identity_member(alg, LTC, _e11_to_e12(alg))
    assert not cold and cold.witness == (0, 0, 0)
    assert len(evaluations) == 1
    # an equal operator, built anew on an equal algebra, is answered from the cache
    again = upper_triangular_gma(3).algebra
    warm = is_identity_member(again, LTC, LinearOperator.from_flat(again, _e11_to_e12(again).flatten()))
    assert len(evaluations) == 1
    assert (warm.ok, warm.witness, warm.lhs, warm.rhs) == (cold.ok, cold.witness, cold.lhs, cold.rhs)
    # another kind or another operator is evaluated
    is_identity_member(alg, IdentityKind.LIE_CENTRALIZER, _e11_to_e12(alg))
    is_identity_member(alg, LTC, 2 * _e11_to_e12(alg))
    assert len(evaluations) == 3


def test_a_warm_membership_check_still_rejects_another_algebra(cold_cache):
    alg, other = upper_triangular_gma(3).algebra, upper_triangular_gma(3, 2).algebra
    assert alg.dim == other.dim and alg != other
    for a, b in ((alg, alg), (other, other)):
        is_identity_member(a, LTC, _e11_to_e12(b))
    for a, b in ((alg, other), (other, alg)):
        with pytest.raises(AlgebraMismatch):
            is_identity_member(a, LTC, _e11_to_e12(b))


def test_singular_verdicts_of_two_splits_do_not_share_an_entry(cold_cache):
    split1, split4 = _m2_plus_q((1, 1, 1, 2)), _m2_plus_q((4, 0, 0, 1))
    alg = split1.algebra
    e12, e21 = alg.labels.index("l:e12"), alg.labels.index("l:e21")
    # e12 -> e21 maps M into N for the first split and stays inside A for the second
    op = LinearOperator.from_images(alg, [alg.basis_element(e21) if k == e12 else alg.zero() for k in range(alg.dim)])
    cold = {}
    for name, u in (("1", split1), ("4", split4)):
        cold_cache()
        cold[name] = is_identity_member(u, SJDER, op)
    assert cold["4"].witness == (e21, e12) and cold["1"].witness != cold["4"].witness
    cold_cache()
    for _ in range(2):
        for name, u in (("1", split1), ("4", split4)):
            assert is_identity_member(u, SJDER, op) == cold[name]
    assert cold["4"].lhs == alg.element([Fraction(int(k == e21)) for k in range(alg.dim)])


def _first_unit_operator(alg):
    """e_0 -> e_0, every other basis vector -> 0: not a Lie triple centralizer of a rebased T3."""
    return LinearOperator.from_flat(alg, [1] + [0] * (alg.dim**2 - 1))


def _solve_and_check(alg):
    """Solve ltc on alg and check one non-member, whose witness elements point back at alg."""
    solve_identity_space(alg, LTC)
    assert not is_identity_member(alg, LTC, _first_unit_operator(alg))
    return alg.content_hash


# what a session of 20 document solves and one m2 split may still trace once
# all of it is dropped: a few KiB of interpreter state; the facts of one
# rebased T3 alone take about 170 KiB
FREED_MARGIN = 32 * 1024


def test_a_session_keeps_no_facts_of_the_algebras_it_dropped():
    t3, t2 = upper_triangular(3), upper_triangular(2)
    rng = random.Random(42)
    bases = [unit_diagonal_basis(rng, 6) for _ in range(21)]
    tracemalloc.start()
    try:
        _solve_and_check(rebased(t3, bases[0]))  # first-call state, outside the measure
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        hashes = [_solve_and_check(rebased(t3, p)) for p in bases[1:]]
        # the split lives in its source algebra's table, and its facts in its own
        u = m2_of(rebased(t2, unit_diagonal_basis(rng, 3)))
        assert check_annihilating_conditions(u).holds_a
        hashes += [u.content_hash, u.algebra.content_hash]
        del u
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(set(hashes)) == 22
    assert [h for h in hashes if h in lietriple.algebra._CACHE] == []
    assert after - before < FREED_MARGIN


def test_equal_algebras_share_one_table_and_a_rebuilt_one_recomputes_equal_facts():
    t3, basis = upper_triangular(3), unit_diagonal_basis(random.Random(7), 6)

    def facts(alg):
        """A solved space, a basis form and a member's and a non-member's verdict, none holding alg."""
        space = solve_identity_space(alg, LTC)
        ops = LinearOperator.from_flat(alg, space.basis[-1]), _first_unit_operator(alg)
        member, other = (is_identity_member(alg, LTC, op) for op in ops)
        verdicts = [(v.ok, v.witness, v.lhs and v.lhs.coords, v.rhs and v.rhs.coords) for v in (member, other)]
        return space, basis_tensor(alg, "bracket"), verdicts

    u, v = _m2_plus_q((1, 1, 1, 2)), _m2_plus_q((1, 1, 1, 2))
    assert u is not v and u._facts is v._facts and u._facts is not u.algebra._facts
    first, second = rebased(t3, basis), rebased(t3, basis)
    assert first is not second and first._facts is second._facts
    cold = facts(first)
    assert facts(second)[0] is cold[0]  # read from the shared table
    assert cold[2][0][0] and not cold[2][1][0] and cold[2][1][1] is not None
    h = first.content_hash
    del first, second
    gc.collect()
    assert h not in lietriple.algebra._CACHE
    rebuilt = rebased(t3, basis)
    assert rebuilt._facts == {}
    warm = facts(rebuilt)
    assert warm == cold and warm[0] is not cold[0]
