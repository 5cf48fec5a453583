"""Building block algebras three ways.

A block algebra [[A, M], [N, B]] can be assembled from its pieces,
viewed as 2x2 matrices over a base algebra, or carved out of an
existing algebra along an idempotent.  Assembly validates every
bimodule and pairing axiom at once through associativity of the result.
"""

from lietriple.algebra import center, find_unit
from lietriple.catalog import (
    full_matrix,
    rationals,
    scalar_bimodule,
    strict_upper_3x3,
    triangular_context,
)
from lietriple.errors import NotAssociative
from lietriple.gma import (
    Bimodule,
    MoritaContext,
    assemble,
    check_annihilating_conditions,
    eta_map,
    m2_of,
    peirce_from_idempotent,
)

# 1. Assembling a triangular algebra from Q, Q and the scalar bimodule.
q = rationals()
t2 = assemble(triangular_context(q, scalar_bimodule(), q))
print("triangular block algebra: dims", t2.dims, " unit:", find_unit(t2.algebra))

# A broken pairing is caught immediately, with the failing triple.
reg = Bimodule.regular(q)
try:
    assemble(MoritaContext(q, q, reg, reg, {(0, 0, 0): -1}, {(0, 0, 0): 1}))
except NotAssociative as exc:
    print("sign-flipped pairing rejected at basis triple", exc.triple)

# 2. 2x2 matrices over a base algebra, including a non-unital one.
a = strict_upper_3x3()
u = m2_of(a)
print("\n2x2 matrices over the strictly-upper algebra: dim", u.algebra.dim)
print("unit:", find_unit(u.algebra), " center dimension:", center(u.algebra).dim)

# 3. Peirce splitting of M3 along e11 + e22 gives a 4+2+2+1 block view.
m3 = full_matrix(3)
e = m3.element((1, 0, 0, 0, 1, 0, 0, 0, 0))  # e11 + e22
pd = peirce_from_idempotent(m3, e)
print("\nPeirce corners of M3 along e11+e22:", pd.gma.dims)
print("annihilating conditions hold:", check_annihilating_conditions(pd.gma).holds)

# The center of a block algebra is diagonal, and its two corner
# projections are exchanged by a canonical isomorphism.
eta = eta_map(pd.gma)
print("corner projections of the center: dims",
      eta.domain.dim, "<->", eta.codomain.dim)
one_a = find_unit(pd.gma.context.A).coords
print("the A-corner unit maps to the B-corner unit:", eta.apply(one_a))
