"""The packed membership walk against a per-tuple oracle, and verdicts read off a held solved space.

``_identity_residuals`` finds the failing tuples of an identity one packed
pass per prefix (``algebra._failing_tags``) and evaluates those alone.  Its whole
stream, every failing tuple with its two sides, must equal the oracle's:
``oracles.identity_sides`` at every tuple the walk reads, stated here apart
from the package (lexicographic, less the mirrored ones).  A membership
check may read "holds" off a solved space its algebra's fact table already
holds; the walk-only path must reach the space's verdict by itself, and
the re-checks of a solver's output must still walk.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import lietriple.centralizers
import lietriple.derivations
from lietriple.algebra import LinearOperator, StructureConstants
from lietriple.catalog import (
    dual_numbers,
    example_1_2,
    full_matrix,
    full_matrix_gma,
    rationals,
    strict_upper_3x3,
    upper_triangular,
    upper_triangular_gma,
)
from lietriple.centralizers import (
    IdentityKind,
    _identity_residuals,
    _walked_membership,
    is_identity_member,
    solve_identity_space,
)
from lietriple.derivations import decompose_generalized_ltd, decompose_ltd
from lietriple.linalg import Subspace
from lietriple.properness import equivalence_audit, is_proper_direct
from lietriple.symmetry import matrix_unit_symmetry

from oracles import identity_sides, matrix_of, rebased, unit_diagonal_basis

F = Fraction
K = IdentityKind

# the mirrored kinds read only i <= j (Jordan) or i < j (bracket, triple) of their first two indices
_MIRRORED = {"lieder": "<", "jder": "<=", "sjder": "<=", "ltd": "<"}
_TRIPLE = ("ltc", "ltd")
_TWO_SLOT = ("lc", "jc", "der", "lieder", "jder", "sjder")
_SLOTS = {"lc": 1, "jc": 1, "ltc": 1, "der": 2, "lieder": 2, "jder": 2, "sjder": 2, "ltd": 3}


def _read_tuples(n: int, kind: str, every: bool):
    """The tuples the walk reads, in lexicographic order: every one, or the mirrored skip."""
    for tag in itertools.product(range(n), repeat=3 if kind in _TRIPLE else 2):
        skip = _MIRRORED.get(kind) if not every else None
        if skip == "<" and tag[0] >= tag[1] or skip == "<=" and tag[0] > tag[1]:
            continue
        yield tag


def _oracle_stream(alg, kind: str, flat, slot_flats=None) -> list:
    """(tag, lhs, rhs) at each read tuple whose two sides differ, by plain element arithmetic."""
    n = alg.dim
    lhs_matrix = matrix_of(LinearOperator.from_flat(alg, flat))
    slots = None if slot_flats is None else tuple(matrix_of(LinearOperator.from_flat(alg, f)) for f in slot_flats)
    out = []
    # the singular kind's sparsity is checked before the walk, which reads the Jordan derivation identity
    oracle_kind = "jder" if kind == "sjder" else kind
    for tag in _read_tuples(n, kind, slot_flats is not None):
        lhs, rhs = identity_sides(alg, oracle_kind, tag, lhs_matrix, slots)
        if lhs != rhs:
            out.append((tag, lhs.coords, rhs.coords))
    return out


def _walk_stream(alg, kind: str, flat, slot_flats=None) -> list:
    return list(_identity_residuals(alg, K(kind), flat, slot_flats))


def _rational_basis(n: int) -> tuple:
    return unit_diagonal_basis(random.Random(n), n, entries=(F(-1, 2), F(1, 3), F(2, 3)))


_ALGEBRAS = {
    "T3": lambda: upper_triangular(3),
    "T4": lambda: upper_triangular(4),
    "M3": lambda: full_matrix(3),
    "example_1_2": lambda: example_1_2().gma.algebra,
    # rational bases: the tables' common denominators are 2268 and 34920
    "T3q": lambda: rebased(upper_triangular(3), _rational_basis(6)),
    "M3q": lambda: rebased(full_matrix(3), _rational_basis(9)),
}
# the oracle reads every tuple by element arithmetic: the triple kinds run
# on T3, T3q and M3q, T4 and M3 on non-members only (the triple bracket of
# example_1_2 vanishes: no tuple is read)
_CASES = [(a, k, member) for a in _ALGEBRAS for k in _TWO_SLOT for member in (True, False)]
_CASES += [(a, k, member) for a in ("T3", "T3q", "M3q") for k in _TRIPLE for member in (True, False)]
_CASES += [("T4", "ltd", False), ("M3", "ltc", False)]


def _operator(alg, kind: str, member: bool, rng) -> list:
    """A seeded member of the solved space, or an operator with entries in -2..2 outside it.

    For the singular kind, whose space needs block dims, the Jordan
    derivation space stands in: the walk reads the same identity.
    """
    space = solve_identity_space(alg, K("jder" if kind == "sjder" else kind))
    if not member:
        assert not space.is_full()
        while True:
            stranger = [F(rng.randint(-2, 2)) if rng.random() < 0.5 else F(0) for _ in range(space.ambient)]
            if not space.contains_vector(stranger):
                return stranger
    flat = [F(0)] * space.ambient
    for v in space.basis:
        c = F(rng.randint(-3, 3), rng.choice((1, 2, 3)))
        flat = [a + c * x for a, x in zip(flat, v)]
    return flat


@pytest.mark.parametrize("name, kind, member", _CASES)
def test_the_packed_stream_equals_the_per_tuple_oracle(name, kind, member):
    alg = _ALGEBRAS[name]()
    assert name[-1] != "q" or alg._int_table[0] > 1
    flat = _operator(alg, kind, member, random.Random(f"{name}-{kind}"))
    expected = _oracle_stream(alg, kind, flat)
    assert _walk_stream(alg, kind, flat) == expected
    assert (expected == []) is member


@pytest.mark.parametrize("name, kind", [("T3", "ltd"), ("T3q", "ltd"), ("M3", "der"), ("M3q", "lieder"), ("T4", "jder")])
def test_the_direct_route_stream_with_a_different_map_in_each_slot(name, kind):
    """Every tuple is read, mirrored ones too, with phi on the left and another map in each slot."""
    alg = _ALGEBRAS[name]()
    rng = random.Random(f"slots-{name}-{kind}")
    n2 = alg.dim**2
    flat, *slot_flats = ([F(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(n2)] for _ in range(1 + _SLOTS[kind]))
    assert len({tuple(f) for f in (flat, *slot_flats)}) == 1 + _SLOTS[kind]
    expected = _oracle_stream(alg, kind, flat, slot_flats)
    assert expected and any(tag[0] > tag[1] for tag, _lhs, _rhs in expected)
    assert _walk_stream(alg, kind, flat, slot_flats) == expected


_SMALL = {
    "Q": rationals,
    "dual": dual_numbers,
    "T2": lambda: upper_triangular(2),
    "U3": strict_upper_3x3,
    "M2": lambda: full_matrix(2),
}


def _extreme_maps(rng, n2: int, count: int, entries) -> tuple[list, list | None]:
    """``count`` maps with entries drawn from ``entries``, the first holding +m somewhere and the last -m."""
    m = max(entries)
    ops = [[rng.choice(entries) for _ in range(n2)] for _ in range(count)]
    ops[0][rng.randrange(n2)] = m
    ops[-1][rng.randrange(n2)] = -m
    flat, *slot_flats = ([F(x) for x in op] for op in ops)
    return flat, slot_flats or None


_MAGNITUDES = st.sampled_from((1, 2, 3, 7, 2**40 + 1))
# the entries come from a generator hypothesis seeds, so they spread over the whole range
_RANDOMS = st.randoms(use_true_random=False)


@given(st.sampled_from(sorted(_SMALL)), st.sampled_from(sorted(_SLOTS)), _MAGNITUDES, st.booleans(), _RANDOMS)
def test_the_stream_holds_with_entries_at_both_signs(name, kind, m, slot_maps, rng):
    """Entries at +m and -m, one map in every slot or none, on algebras of dim 1 to 4."""
    alg = _SMALL[name]()
    entries = (-m, 0, m, m // 2, -m // 2)
    flat, slot_flats = _extreme_maps(rng, alg.dim**2, 1 + _SLOTS[kind] * slot_maps, entries)
    assert _walk_stream(alg, kind, flat, slot_flats) == _oracle_stream(alg, kind, flat, slot_flats)


@given(st.sampled_from((1, -1, 2, F(1, 2), F(-2, 3))), _MAGNITUDES, st.sampled_from((1, -1)), st.booleans(), _RANDOMS)
def test_the_stream_holds_at_the_digit_bound(c, m, sign, slot_maps, rng):
    """On the one product u1 u2 = c u3, a derivation residual reaches the bound 3m|c| the shift keeps below 2^(B-1).

    At (0, 1) the u3 coordinate of lhs - rhs is c (phi[2][2] - phi[0][0]
    - phi[1][1]), with phi[2][2] read on the left and the others in the
    two slots: at sign * (m, -m, -m) it is the bound itself.  The other
    entries are -m, 0 or m, so the next tuple often passes, and a shift
    one bit short, misreading the digit, carries a failure into it.
    """
    alg = StructureConstants(3, {(0, 1, 2): c})
    flat, slot_flats = _extreme_maps(rng, 9, 1 + 2 * slot_maps, (-m, 0, m))
    left, first, second = flat, *(slot_flats or (flat, flat))
    # column-major: phi[r][c] sits at 3c + r
    left[8], first[0], second[4] = F(sign * m), F(-sign * m), F(-sign * m)
    assert _walk_stream(alg, "der", flat, slot_flats) == _oracle_stream(alg, "der", flat, slot_flats)


def test_a_derivation_residual_reaches_the_digit_bound():
    """On u1 u2 = u3, phi = -m on u1 and u2 and +m on u3 fails the derivation identity at (0, 1) by 3m, the bound itself."""
    alg, m = strict_upper_3x3(), 5
    flat = [F(0)] * 9
    flat[0], flat[4], flat[8] = F(-m), F(-m), F(m)  # column-major: phi[0][0], phi[1][1], phi[2][2]
    ((tag, lhs, rhs),) = _walk_stream(alg, "der", flat)
    assert tag == (0, 1) and lhs[2] - rhs[2] == 3 * m
    assert _oracle_stream(alg, "der", flat) == [(tag, lhs, rhs)]


# ---------------------------------------------------------------------------
#  Verdicts read off a held space
# ---------------------------------------------------------------------------


def _operators(space, alg, rng) -> list[LinearOperator]:
    """Two members, the identity, and two members moved off the space at one coordinate."""
    ops = []
    for _ in range(2):
        flat = [F(0)] * space.ambient
        for v in space.basis:
            c = F(rng.randint(-3, 3), rng.choice((1, 2)))
            flat = [a + c * x for a, x in zip(flat, v)]
        ops.append(flat)
        moved = list(flat)
        moved[rng.randrange(space.ambient)] += 1
        ops.append(moved)
    ops.append(LinearOperator.identity(alg).flatten())
    return [LinearOperator.from_flat(alg, f) for f in ops]


@pytest.mark.parametrize("kind", _TRIPLE)
@pytest.mark.parametrize("family, n", [(f, n) for f in ("T", "M") for n in range(2, 7)])
def test_the_walk_alone_reaches_the_space_verdict(cold_cache, family, n, kind):
    """On M_m the triple kinds solve on the symmetric path, which walks no tuple."""
    alg = (upper_triangular if family == "T" else full_matrix)(n)
    assert (matrix_unit_symmetry(alg) is not None) is (family == "M")
    space = solve_identity_space(alg, K(kind))
    ops = _operators(space, alg, random.Random(f"{family}{n}"))
    verdicts = [space.contains_vector(op.flatten()) for op in ops]
    assert True in verdicts and False in verdicts
    for op, expected in zip(ops, verdicts):
        chk = _walked_membership(alg, K(kind), op)
        assert chk.ok is expected
        assert is_identity_member(alg, K(kind), op) == chk


@pytest.fixture
def walks(monkeypatch):
    """(kind, every tuple read) of each walk from now on, membership and direct route alike."""
    calls = []
    real = lietriple.centralizers._identity_residuals

    def counting(alg, kind, flat, slot_flats=None):
        calls.append((kind, slot_flats is not None))
        return real(alg, kind, flat, slot_flats)

    monkeypatch.setattr(lietriple.centralizers, "_identity_residuals", counting)
    monkeypatch.setattr(lietriple.derivations, "_identity_residuals", counting)
    return calls


def test_a_precondition_against_a_held_space_walks_no_tuple(cold_cache, walks):
    alg = upper_triangular(3)
    phi = LinearOperator.from_flat(alg, solve_identity_space(alg, K.LIE_TRIPLE_CENTRALIZER).basis[-1])
    is_proper_direct(alg, phi)
    assert walks == []
    # with nothing held, the same check on an equal algebra built anew walks
    cold_cache()
    is_proper_direct(upper_triangular(3), LinearOperator.from_flat(upper_triangular(3), phi.flatten()))
    assert walks == [(K.LIE_TRIPLE_CENTRALIZER, False)]


def test_a_non_member_walks_for_its_witness_though_the_space_is_held(cold_cache, walks):
    alg = full_matrix(3)
    space = solve_identity_space(alg, K.LIE_TRIPLE_CENTRALIZER)
    stranger = LinearOperator.from_flat(alg, [F(int(k == 1)) for k in range(space.ambient)])
    assert not space.contains_vector(stranger.flatten())
    chk = is_identity_member(alg, K.LIE_TRIPLE_CENTRALIZER, stranger)
    assert not chk and chk.witness is not None
    assert walks == [(K.LIE_TRIPLE_CENTRALIZER, False)]


def test_the_re_checks_of_the_solver_output_walk_though_every_space_is_held(cold_cache, walks):
    u = upper_triangular_gma(3)
    alg = u.algebra
    for target, kind in ((alg, K.LIE_TRIPLE_DERIVATION), (alg, K.DERIVATION), (u, K.SINGULAR_JORDAN_DERIVATION)):
        solve_identity_space(target, kind)
    xi = LinearOperator.from_flat(alg, solve_identity_space(alg, K.LIE_TRIPLE_DERIVATION).basis[-1])
    decompose_ltd(u, xi)
    # the precondition on xi reads the held LTD space; the two components walk
    assert walks == [(K.DERIVATION, False), (K.SINGULAR_JORDAN_DERIVATION, False)]
    walks.clear()
    phi = LinearOperator.from_flat(alg, solve_identity_space(alg, K.LIE_TRIPLE_CENTRALIZER).basis[0])
    res = decompose_generalized_ltd(u, phi + xi, xi)
    assert res.verified
    # the direct route walks; the transcript reads the components' walked verdicts back
    assert walks == [(K.LIE_TRIPLE_DERIVATION, True)]


def test_a_verdict_read_off_a_space_is_never_served_to_a_re_check(cold_cache, walks):
    alg = upper_triangular(3)
    delta = LinearOperator.from_flat(alg, solve_identity_space(alg, K.DERIVATION).basis[0])
    assert is_identity_member(alg, K.DERIVATION, delta)
    assert walks == []
    assert _walked_membership(alg, K.DERIVATION, delta)
    assert walks == [(K.DERIVATION, False)]


# ---------------------------------------------------------------------------
#  The audit's subspaces, solved on the LTC basis
# ---------------------------------------------------------------------------


_AUDITED = {"T3": lambda: upper_triangular_gma(3), "M3": lambda: full_matrix_gma(3), "T4 at 2": lambda: upper_triangular_gma(4, 2)}


@pytest.mark.parametrize("name", sorted(_AUDITED))
def test_the_audit_maps_its_kernels_back_to_canonical_bases(name):
    rep = equivalence_audit(_AUDITED[name]())
    for space in (rep.ranges, rep.units):
        assert space == Subspace(space.ambient, space.basis)
        assert rep.ltc.contains(space)
