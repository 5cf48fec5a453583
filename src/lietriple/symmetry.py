"""The symmetry of a full matrix algebra M_m, read off its table, for the triple-form solves.

Let the basis be the m^2 matrix units e_ab of M_m, m >= 2, in any order.
A permutation g of the basis that is an automorphism or an
anti-automorphism of the table keeps the triple bracket: an
anti-automorphism negates the bracket, so g([[x, y], z]) = [[gx, gy], gz]
either way.  Write g.phi for the conjugate g phi g^-1 of an operator.
For a Lie triple centralizer or derivation, let E_t(phi) = 0 be the
vector equation of the basis tuple t = (x, y, z).  Then
E_gt(g.phi) = g E_t(phi), so a constraint row rho of t, read as a
functional of the coordinates phi[r, c], has as its image
rho o g^-1: phi -> rho(g^-1.phi), the coefficient rho[r, c] moved to
(g r, g c), which is a row of the tuple g t.

``matrix_unit_symmetry`` finds the units and checks three generators
against the table: the transposition (0 1) and the m-cycle of the
indices, which generate S_m acting by e_ab -> e_g(a)g(b), and the
transpose e_ab -> e_ba, checked on the reversed product.  They generate
G = S_m x Z/2, which acts on a tuple's six indices (a1 b1 a2 b2 a3 b3)
by relabelling them and by swapping each pair.  Each S_m-orbit of index
words holds exactly one word in restricted-growth form, labels in order
of first appearance (D. E. Knuth, TAOCP 4A, 7.2.1.5); ``orbit_tags``
keeps such a word w when w <= rgf(s(w)) for each index swap s, the least
restricted-growth word of its orbit: at most 117 of the Bell(6) = 203
such words, for any m.  The kept words are a constant of the action on
index words, not a fact of any algebra: they are listed once per
process, with and without the mirror swaps below, and M_m takes those
with at most m labels.
For a Lie triple derivation the tuple (y, x, z) has the rows of
(x, y, z) negated and (x, x, z) has none, so the swap of the first two
pairs joins the swaps there, and no word with equal first pairs is kept.

The solver adds the rows of each representative to its echelon, and
then the image under every generator of every row that raised the rank,
until none does.  Let R be the span of every tuple's rows, S = ker R the
solution space, and K the kernel of the echelon's rows R'.  R' lies in
R, since every row added is a row of some tuple, so S lies in K.  Two
facts give K in S:
(a) each representative's rows are in R', so they vanish on K;
(b) every generator g maps K onto itself.  The rows that did not raise
    the rank lie in the span of those that did, whose images were all
    added, so rho o g^-1 is in R' for each rho in R'.  It vanishes on K,
    so rho vanishes on g^-1.K: g^-1.K lies in K, has its dimension, and
    is K.
So G, generated by them, maps K onto itself.  Each tuple is g t for
some g in G and a representative t (or the swap of one, whose rows are
t's negated), and for phi in K, E_gt(phi) = g E_t(g^-1.phi) = 0 by (a),
since g^-1.phi is in K.  So K = S, and R' = R, which the echelon holds
in reduced form: the kernel's canonical basis is the plain walk's.  The
rows of a representative are read off the bracket form alone, so the
triple form over all n^3 tuples is never built.  The re-checks of a
solver's output (``centralizers._walked_membership``) still walk every
tuple, which keeps them an independent check of this argument; a plain
membership check may read the solved space instead.  A table that fails
any test gets None and the plain walk.
"""

from __future__ import annotations

import functools
from math import isqrt

from .algebra import StructureConstants, _slot_terms, _sparse_sum, _tuple_rows, basis_tensor, memoized
from .linalg import Subspace, _IntEchelon


def _preserves(table: list, g: list[int], reverse: bool) -> bool:
    """Whether g maps e_i e_j to e_g(i) e_g(j) for every pair, or to e_g(j) e_g(i) when ``reverse``.

    Only the nonzero products are compared: g permutes the pairs, so once
    it maps every nonzero product onto a nonzero one, it maps the zero
    ones onto zero ones.
    """
    for i, plane in enumerate(table):
        for j, row in enumerate(plane):
            if row and sorted((g[k], x) for k, x in row) != (table[g[j]][g[i]] if reverse else table[g[i]][g[j]]):
                return False
    return True


def _rgf(word: list) -> tuple:
    """The word relabelled 0, 1, ... in order of first appearance: its restricted-growth form."""
    labels: dict = {}
    return tuple([labels.setdefault(x, len(labels)) for x in word])


@memoized
def matrix_unit_symmetry(alg: StructureConstants) -> tuple[tuple[list[int], ...], dict] | None:
    """(moves, cells) when the basis is the matrix units of some M_m, m >= 2, in any order; None otherwise.

    The table must have D = 1 and m idempotent basis vectors e_aa among
    m^2 in all, and each basis vector y one pair (a, b) with
    e_aa y = y = y e_bb.  Each of the three generators must then be an
    automorphism, or for the transpose an anti-automorphism, of the
    table.  ``moves`` holds each generator's permutation of the operator
    coordinates c * n + r, and ``cells`` maps each pair (a, b) to its
    basis vector.
    """
    n = alg.dim
    d, table = alg._int_table
    if d != 1:
        return None
    units = [i for i in range(n) if table[i][i] == [(i, 1)]]
    m = len(units)
    if m < 2 or m * m != n:
        return None
    pairs = []
    for y in range(n):
        same = [(y, 1)]
        rows = [a for a, e in enumerate(units) if table[e][y] == same]
        cols = [b for b, e in enumerate(units) if table[y][e] == same]
        if len(rows) != 1 or len(cols) != 1:
            return None
        pairs.append((rows[0], cols[0]))
    cells = {pair: y for y, pair in enumerate(pairs)}
    if len(cells) != n:
        return None
    moves = []
    for p, reverse in (((1, 0, *range(2, m)), False), ((*range(1, m), 0), False), (range(m), True)):
        g = [cells[(p[b], p[a]) if reverse else (p[a], p[b])] for a, b in pairs]
        if not _preserves(table, g, reverse):
            return None
        moves.append([g[k // n] * n + g[k % n] for k in range(n * n)])
    return tuple(moves), cells


# a tuple's six indices (a1 b1 a2 b2 a3 b3) with each pair swapped; then
# with its first two pairs swapped, and with both
_TRANSPOSED = (1, 0, 3, 2, 5, 4)
_MIRRORED = ((2, 3, 0, 1, 4, 5), (3, 2, 1, 0, 5, 4))


@functools.cache
def _orbit_words(mirrored: bool) -> tuple[tuple[tuple, int], ...]:
    """The least restricted-growth six-index word of each orbit, with its number of labels: a constant of the process."""
    swaps = (_TRANSPOSED, *_MIRRORED) if mirrored else (_TRANSPOSED,)
    words = [((), 0)]  # restricted-growth words, each with its number of labels
    for _ in range(6):
        words = [(w + (x,), max(k, x + 1)) for w, k in words for x in range(k + 1)]
    return tuple(
        (w, k) for w, k in words if not (mirrored and w[:2] == w[2:4]) and all(w <= _rgf([w[i] for i in s]) for s in swaps)
    )


def orbit_tags(alg: StructureConstants, mirrored: bool) -> list[tuple[int, int, int]]:
    """One basis tuple (x, y, z) per orbit of G, for an algebra ``matrix_unit_symmetry`` accepts.

    With ``mirrored``, for an identity whose tuple (y, x, z) repeats or
    negates (x, y, z) and whose (x, x, z) vanishes, one per orbit of G
    and the swap of x and y, and none with x = y.
    """
    cells = matrix_unit_symmetry(alg)[1]
    m = isqrt(len(cells))
    return [(cells[w[:2]], cells[w[2:4]], cells[w[4:]]) for w, k in _orbit_words(mirrored) if k <= m]


def triple_tuple(alg: StructureConstants, slots: tuple, tag: tuple, groups: dict) -> tuple:
    """(w, terms) of ``centralizers._constraint_tuples`` at one tuple of the triple form, read off the bracket form alone.

    ``slots`` are those phi enters on the right-hand side.  [[e_i, e_j], e_k]
    is the bracket of [e_i, e_j] with e_k, and a slot's group visits only
    the e_l' that the bracket's slot groups pair with the other indices,
    so no triple form is built.  ``groups`` holds the slot groups one
    solve has read so far, [[e_l', y], z] or [[x, e_l'], z] under
    (slot, y or x, z).
    """
    brackets = basis_tensor(alg, "bracket")[1]
    left, right = _slot_terms(alg, "bracket", 0), _slot_terms(alg, "bracket", 1)
    x, y, z = tag
    xy = brackets.get((x, y), ())

    def with_z(v) -> tuple:  # [v, e_z]
        return _sparse_sum((c, brackets.get((k, z), ())) for k, c in v)

    terms = []
    for p, s in enumerate(slots):
        if s == 2:  # [[x, y], e_l'] is the sum of c [e_k, e_l'] over [x, y] = sum of c e_k
            by_lp: dict[int, list] = {}
            for k, c in xy:
                for lp, v in right.get((k,), ()):
                    by_lp.setdefault(lp, []).append((c, v))
            group = [(lp, u) for lp, cv in by_lp.items() if (u := _sparse_sum(cv))]
        else:  # [[e_l', y], z] or [[x, e_l'], z]
            key = (s, tag[1 - s], z)
            group = groups.get(key)
            if group is None:
                vs = left.get((y,), ()) if s == 0 else right.get((x,), ())
                group = groups[key] = [(lp, u) for lp, v in vs if (u := with_z(v))]
        if group:
            terms.append((p, tag[s], group))
    return with_z(xy), terms


def symmetric_space(alg: StructureConstants, slots: tuple) -> Subspace | None:
    """The solution space of a triple kind with phi in ``slots``, on an algebra ``matrix_unit_symmetry`` accepts; else None.

    The echelon takes the rows of each tuple of ``orbit_tags`` and, until
    none raises the rank, the image under every generator of each row
    that did (module docstring).
    """
    symmetry = matrix_unit_symmetry(alg)
    if symmetry is None:
        return None
    moves, _ = symmetry
    n = alg.dim
    ech, groups = _IntEchelon(), {}
    for tag in orbit_tags(alg, slots[:2] == (0, 1)):
        pending = _tuple_rows(n, *triple_tuple(alg, slots, tag, groups))
        while pending:
            row = pending.pop()
            if ech.add(row):
                pending.extend({move[k]: x for k, x in row.items()} for move in moves)
    return ech.kernel(n * n)
