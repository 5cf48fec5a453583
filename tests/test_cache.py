"""The process-wide cache of per-GMA facts, per-algebra rows and membership verdicts.

A GMA's entries are keyed by its algebra's content hash and its block
dims, an algebra's by its content hash, a membership verdict also by the
kind and the operator's exact nonzero coordinates.  A value read warm must be the
value computed cold, and two GMAs on one algebra must not share entries.
A GMA holds its algebra's corner slices, so the hash and the dims fix it;
a split the slices do not fit raises before anything is cached.
"""

from fractions import Fraction
from operator import attrgetter

import pytest

import lietriple.algebra
import lietriple.centralizers
from lietriple.algebra import LinearOperator
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
from lietriple.centralizers import IdentityKind, is_identity_member
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
from oracles import zero_operator
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


def test_warm_facts_equal_cold_ones(monkeypatch):
    # cold: each GMA on a cache of its own; warm: all of them in one cache,
    # read before and after the code that reads them has run
    gmas = _gmas()
    cold = {}
    for name, u in gmas.items():
        monkeypatch.setattr(lietriple.algebra, "_CACHE", {})
        cold[name] = _facts(u)
    monkeypatch.setattr(lietriple.algebra, "_CACHE", {})
    for name, u in gmas.items():
        assert _facts(u) == cold[name], name
        _read_the_facts(u)
    for name, u in gmas.items():
        assert _facts(u) == cold[name], name


def test_two_splits_of_one_algebra_keep_separate_entries(monkeypatch):
    monkeypatch.setattr(lietriple.algebra, "_CACHE", {})
    split1, split4 = _m2_plus_q((1, 1, 1, 2)), _m2_plus_q((4, 0, 0, 1))
    assert split1.algebra.content_hash == split4.algebra.content_hash
    assert split1.content_hash != split4.content_hash
    assert check_annihilating_conditions(split1).holds_a and not check_annihilating_conditions(split4).holds_a
    assert _commutation_rows(split1) != _commutation_rows(split4)
    name = check_annihilating_conditions.__wrapped__.__qualname__
    keys = [key for key in lietriple.algebra._CACHE if key[1] == name]
    assert sorted(keys) == sorted([(split1.content_hash, name), (split4.content_hash, name)])


@pytest.mark.parametrize(
    "algebra, dims, error",
    [
        (lambda: full_matrix_gma(3).algebra, (4, 2, 2, 1), NotAssociative),
        (lambda: upper_triangular_gma(3).algebra, (2, 1, 0, 3), InvalidBlockStructure),
        *((lambda: direct_sum(full_matrix(2), rationals()), dims, DimensionMismatch) for dims in MALFORMED_DIMS),
    ],
    ids=["M3-4221", "T3-2103", "negative", "five", "float", "bool"],
)
def test_a_failing_split_stores_nothing(monkeypatch, algebra, dims, error):
    # a GMA holds its algebra's corner slices, so a split the slices do not
    # fit raises before any fact can be cached under the algebra's hash
    alg = algebra()
    monkeypatch.setattr(lietriple.algebra, "_CACHE", {})
    with pytest.raises(error):
        GMA(alg, dims)
    assert lietriple.algebra._CACHE == {}


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


def test_a_failing_call_stores_nothing_and_raises_again(monkeypatch):
    monkeypatch.setattr(lietriple.algebra, "_CACHE", {})
    u = example_1_2().gma  # not unital
    for _ in range(2):
        for fn in (center_block_description, eta_map):
            with pytest.raises(NotUnital):
                fn(u)
    names = {fn.__wrapped__.__qualname__ for fn in (center_block_description, eta_map)}
    assert not [key for key in lietriple.algebra._CACHE if key[1] in names]
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


def test_a_membership_verdict_is_computed_once(monkeypatch):
    monkeypatch.setattr(lietriple.algebra, "_CACHE", {})
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


def test_a_warm_membership_check_still_rejects_another_algebra(monkeypatch):
    monkeypatch.setattr(lietriple.algebra, "_CACHE", {})
    alg, other = upper_triangular_gma(3).algebra, upper_triangular_gma(3, 2).algebra
    assert alg.dim == other.dim and alg != other
    for a, b in ((alg, alg), (other, other)):
        is_identity_member(a, LTC, _e11_to_e12(b))
    for a, b in ((alg, other), (other, alg)):
        with pytest.raises(AlgebraMismatch):
            is_identity_member(a, LTC, _e11_to_e12(b))


def test_singular_verdicts_of_two_splits_do_not_share_an_entry(monkeypatch):
    split1, split4 = _m2_plus_q((1, 1, 1, 2)), _m2_plus_q((4, 0, 0, 1))
    alg = split1.algebra
    e12, e21 = alg.labels.index("l:e12"), alg.labels.index("l:e21")
    # e12 -> e21 maps M into N for the first split and stays inside A for the second
    op = LinearOperator.from_images(alg, [alg.basis_element(e21) if k == e12 else alg.zero() for k in range(alg.dim)])
    cold = {}
    for name, u in (("1", split1), ("4", split4)):
        monkeypatch.setattr(lietriple.algebra, "_CACHE", {})
        cold[name] = is_identity_member(u, SJDER, op)
    assert cold["4"].witness == (e21, e12) and cold["1"].witness != cold["4"].witness
    monkeypatch.setattr(lietriple.algebra, "_CACHE", {})
    for _ in range(2):
        for name, u in (("1", split1), ("4", split4)):
            assert is_identity_member(u, SJDER, op) == cold[name]
    assert cold["4"].lhs == alg.element([Fraction(int(k == e21)) for k in range(alg.dim)])
