"""The symmetric path of the triple-form solves: it gives the plain walk's basis, and only M_m takes it.

The plain walk is reached by replacing ``symmetric_space`` in
``centralizers`` with one that finds no symmetry, on a cleared cache.
"""

import random
from fractions import Fraction

import pytest

import lietriple.centralizers
import lietriple.symmetry
from lietriple.algebra import LinearOperator, StructureConstants
from lietriple.catalog import direct_sum, example_1_2, full_matrix, full_matrix_gma, rationals, upper_triangular
from lietriple.centralizers import IdentityKind, is_identity_member, solve_identity_space
from lietriple.linalg import tensor_entries
from lietriple.symmetry import _preserves, matrix_unit_symmetry, orbit_tags

TRIPLE_KINDS = (IdentityKind.LIE_TRIPLE_CENTRALIZER, IdentityKind.LIE_TRIPLE_DERIVATION)


def _relabelled(alg: StructureConstants, perm: list[int]) -> StructureConstants:
    """The same algebra with basis vector i moved to position perm[i]."""
    nonzeros = {(perm[i], perm[j], perm[k]): x for (i, j, k), x in tensor_entries(alg._sparse).items()}
    labels = [None] * alg.dim
    for i, label in enumerate(alg.labels):
        labels[perm[i]] = label
    return StructureConstants(alg.dim, nonzeros, labels)


def _rebased(alg: StructureConstants, p: list[list], pinv: list[list]) -> StructureConstants:
    """The algebra on the basis f_i = sum over a of p[a][i] e_a; pinv is p's inverse."""
    n = alg.dim
    table = tensor_entries(alg._sparse)
    nonzeros = {}
    for i in range(n):
        for j in range(n):
            e = [Fraction(0)] * n  # e-coordinates of f_i f_j
            for (a, b, k), x in table.items():
                e[k] += p[a][i] * p[b][j] * x
            for k in range(n):
                y = sum(pinv[k][a] * e[a] for a in range(n))
                if y:
                    nonzeros[i, j, k] = y
    return StructureConstants(n, nonzeros)


def _elementary(n: int, entries: dict) -> list[list]:
    return [[entries.get((r, c), int(r == c)) for c in range(n)] for r in range(n)]


ORDERS = {
    "catalog": lambda m: full_matrix_gma(m).algebra,
    "row-major": full_matrix,
    "corner-order": lambda m: full_matrix_gma(m, split=m - 1).algebra,
    "seeded": lambda m: _relabelled(full_matrix(m), random.Random(m).sample(range(m * m), m * m)),
}


@pytest.mark.parametrize("kind", TRIPLE_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("m", range(2, 7))
def test_the_symmetric_solve_gives_the_plain_walks_basis(cold_cache, monkeypatch, m, order, kind):
    alg = ORDERS[order](m)
    cold_cache()
    assert matrix_unit_symmetry(alg) is not None
    symmetric = solve_identity_space(alg, kind)
    cold_cache()
    monkeypatch.setattr(lietriple.centralizers, "symmetric_space", lambda alg, slots: None)
    assert solve_identity_space(alg, kind) == symmetric


# e_12 negated: the table keeps D = 1 and its units, but (0 1) and the
# 3-cycle no longer map it onto itself
_M3_SIGNED = _elementary(9, {(1, 1): -1})

NOT_MATRIX_UNITS = {
    "T2": lambda: upper_triangular(2),
    "T3": lambda: upper_triangular(3),
    "T4": lambda: upper_triangular(4),
    "example_1_2": lambda: example_1_2().gma.algebra,
    "M2 x Q": lambda: direct_sum(full_matrix(2), rationals()),
    "rebased M2": lambda: _rebased(full_matrix(2), _elementary(4, {(0, 1): 1}), _elementary(4, {(0, 1): -1})),
    "M3, e12 negated": lambda: _rebased(full_matrix(3), _M3_SIGNED, _M3_SIGNED),
    "Q": rationals,
}


@pytest.mark.parametrize("name", NOT_MATRIX_UNITS)
def test_no_other_algebra_is_taken_for_matrix_units(name):
    assert matrix_unit_symmetry(NOT_MATRIX_UNITS[name]()) is None


def test_generators_are_checked_against_the_table():
    """On M_2 row-major, the transpose is an anti-automorphism and no automorphism; the identity is the reverse."""
    _, table = full_matrix(2)._int_table
    transpose, identity = [0, 2, 1, 3], [0, 1, 2, 3]
    assert _preserves(table, transpose, True) and _preserves(table, identity, False)
    assert not _preserves(table, transpose, False) and not _preserves(table, identity, True)


def test_each_generator_is_checked_against_the_table(monkeypatch):
    """(0 1) and the m-cycle as automorphisms, then the transpose on the reversed product."""
    checked = []

    def recording(table, g, reverse):
        checked.append(reverse)
        return _preserves(table, g, reverse)

    monkeypatch.setattr(lietriple.symmetry, "_preserves", recording)
    assert matrix_unit_symmetry.__wrapped__(full_matrix(3)) is not None
    assert checked == [False, False, True]


def _basis_permutations(alg) -> list[list[int]]:
    """Each generator's permutation of the basis, read off its move of the operator coordinates c * n + c."""
    n = alg.dim
    moves, _ = matrix_unit_symmetry(alg)
    return [[move[i * n + i] // n for i in range(n)] for move in moves]


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirrored"])
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("m", range(2, 6))
def test_one_representative_per_orbit_of_basis_triples(m, order, mirrored):
    """The orbits of the representatives partition the basis triples: all n^3, or with the swap of x and y those with x != y."""
    alg = ORDERS[order](m)
    moves = [lambda t, g=g: tuple(g[i] for i in t) for g in _basis_permutations(alg)]
    if mirrored:
        moves.append(lambda t: (t[1], t[0], t[2]))
    seen = set()
    for tag in orbit_tags(alg, mirrored):
        assert tag not in seen
        orbit, frontier = {tag}, [tag]
        while frontier:
            t = frontier.pop()
            for move in moves:
                image = move(t)
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        seen |= orbit
    n = alg.dim
    assert len(seen) == (n**3 - n * n if mirrored else n**3)
    assert not mirrored or all(x != y for x, y, _ in seen)


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirrored"])
def test_the_representatives_stop_growing_at_m_6(mirrored):
    """One per orbit of the six indices' equality patterns (of Bell(6) = 203) under the swaps: fixed once m >= 6."""
    counts = [len(orbit_tags(full_matrix(m), mirrored)) for m in range(2, 8)]
    assert counts == ([8, 34, 56, 62, 63, 63] if mirrored else [20, 70, 107, 116, 117, 117])


def _rgf(word) -> tuple:
    labels: dict = {}
    return tuple(labels.setdefault(x, len(labels)) for x in word)


def _per_m_orbit_tags(alg, m: int, mirrored: bool) -> list:
    """The per-algebra enumeration: restricted-growth words on at most m labels, each least under the swaps."""
    cells = matrix_unit_symmetry(alg)[1]
    swaps = ((1, 0, 3, 2, 5, 4), (2, 3, 0, 1, 4, 5), (3, 2, 1, 0, 5, 4)) if mirrored else ((1, 0, 3, 2, 5, 4),)
    words = [((), 0)]
    for _ in range(6):
        words = [(w + (x,), max(k, x + 1)) for w, k in words for x in range(min(k + 1, m))]
    tags = []
    for w, _ in words:
        if not (mirrored and w[:2] == w[2:4]) and all(w <= _rgf([w[i] for i in s]) for s in swaps):
            tags.append((cells[w[:2]], cells[w[2:4]], cells[w[4:]]))
    return tags


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirrored"])
@pytest.mark.parametrize("m", range(2, 8))
def test_the_orbit_tags_are_the_per_m_enumeration(m, mirrored):
    alg = full_matrix(m)
    assert orbit_tags(alg, mirrored) == _per_m_orbit_tags(alg, m, mirrored)


def test_the_orbit_words_are_listed_once_per_mirror_flag(cold_cache, monkeypatch):
    """After the first listing for each flag, no solve or tag request on any M_m relabels a word again."""
    calls = [0]
    rgf = lietriple.symmetry._rgf

    def counting(word):
        calls[0] += 1
        return rgf(word)

    monkeypatch.setattr(lietriple.symmetry, "_rgf", counting)
    lietriple.symmetry._orbit_words.cache_clear()
    for mirrored in (False, True):
        orbit_tags(full_matrix(2), mirrored)
    listed = calls[0]
    assert listed > 0
    for m in range(2, 8):
        for mirrored in (False, True):
            orbit_tags(full_matrix(m), mirrored)
    for kind in TRIPLE_KINDS:
        solve_identity_space(full_matrix(3), kind)
    assert calls[0] == listed


@pytest.mark.parametrize("kind", TRIPLE_KINDS, ids=lambda k: k.value)
def test_the_symmetric_solve_builds_no_triple_form(cold_cache, kind):
    alg = full_matrix(4)
    solve_identity_space(alg, kind)
    assert ("basis_tensor", "triple") not in alg._facts


@pytest.mark.parametrize("kind", [k for k in IdentityKind if k not in TRIPLE_KINDS], ids=lambda k: k.value)
def test_other_kinds_never_ask_for_the_symmetry(cold_cache, monkeypatch, kind):
    def refuse(alg, slots):
        raise AssertionError("symmetric path asked")

    monkeypatch.setattr(lietriple.centralizers, "symmetric_space", refuse)
    target = full_matrix_gma(3) if kind is IdentityKind.SINGULAR_JORDAN_DERIVATION else full_matrix(3)
    solve_identity_space(target, kind)


@pytest.mark.parametrize("kind", TRIPLE_KINDS, ids=lambda k: k.value)
def test_a_vanishing_form_walks_no_tuple(cold_cache, monkeypatch, kind):
    """[[x, y], z] = 0 on example_1_2: its solve and its membership checks read no basis tuple."""

    def refuse(*args):
        raise AssertionError("a tuple was walked")

    monkeypatch.setattr(lietriple.centralizers, "_tags", refuse)
    alg = example_1_2().gma.algebra
    assert solve_identity_space(alg, kind).is_full()
    assert is_identity_member(alg, kind, LinearOperator.identity(alg))
