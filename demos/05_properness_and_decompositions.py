"""Properness certificates and the four-part decomposition.

A triple centralizer is proper when it is a central scaling plus a
center-valued map killing all double commutators.  On block algebras
with faithful-enough corners every solution is proper; degenerate
actions genuinely break this.  Properness then powers the full
decomposition of generalized triple derivations.
"""

from lietriple.algebra import LinearOperator, commutator, find_unit
from lietriple.catalog import (
    dual_numbers,
    full_matrix_gma,
    rationals,
    triangular_context,
    upper_triangular_gma,
)
from lietriple.centralizers import IdentityKind, solve_identity_space
from lietriple.derivations import check_thm41_hypotheses, decompose_generalized_ltd
from lietriple.gma import Bimodule, assemble
from lietriple.properness import (
    PropernessCertificate,
    PropernessFailure,
    check_cor36_hypotheses,
    equivalence_audit,
    is_proper_thm33,
)

# The trace map on 2x2 matrices: proper with zero scaling part.
u = full_matrix_gma(2)
alg = u.algebra
one = find_unit(alg).coords
# an operator is its column-major coordinates: column j is the image of e_j
cols = [one if j in (0, 3) else (0, 0, 0, 0) for j in range(4)]
trace = LinearOperator(alg, [x for col in cols for x in col])
cert = is_proper_thm33(u, trace)
assert isinstance(cert, PropernessCertificate)
print("trace map: lambda =", cert.lam, " chi equals the map itself:", cert.chi == trace)
for name, ok in cert.transcript:
    print(f"  [{'ok' if ok else 'FAIL'}] {name}")

# Sufficient conditions hold on the matrix catalog, so nothing improper exists.
print("\nsufficiency on the matrix catalog:",
      check_cor36_hypotheses(u).satisfied)
print("audit over the whole solved space:",
      equivalence_audit(u).improper_codimension, "improper found")

# Degenerate corner actions produce genuinely improper solutions.
dn = dual_numbers()
# A tensor is given by its nonzeros {(i, j, k): value}: dn acts on itself
# through its own table, and Q acts on the right by scalars.
mod = Bimodule(2, 2, 1, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1},
               {(p, 0, p): 1 for p in range(2)})
weird = assemble(triangular_context(dn, mod, rationals()))
print("\ndual-number context sufficiency:", check_cor36_hypotheses(weird).satisfied)
space = solve_identity_space(weird.algebra, IdentityKind.LIE_TRIPLE_CENTRALIZER)
improper = [
    v for v in space.basis
    if isinstance(is_proper_thm33(weird, LinearOperator(weird.algebra, v)),
                  PropernessFailure)
]
print("improper basis solutions found:", len(improper), "of", space.dim)

# Decomposing a generalized triple derivation into four verified parts.
t2 = upper_triangular_gma(2)
a2 = t2.algebra
print("\ndecomposition hypotheses on the triangular algebra:",
      check_thm41_hypotheses(t2).satisfied)
# the inner derivation x -> [e0, x], from its images of the basis
ad = LinearOperator.from_images(a2, [commutator(a2.basis_element(0), x) for x in a2.basis()])
lam_op = ad + LinearOperator.identity(a2)
res = decompose_generalized_ltd(t2, lam_op, ad)
print("Lambda = delta + singular + psi + lambda*X with lambda =", res.lam)
for name, ok in res.transcript:
    print(f"  [{'ok' if ok else 'FAIL'}] {name}")
