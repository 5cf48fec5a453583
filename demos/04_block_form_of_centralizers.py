"""The block form of triple centralizers, both directions.

Solving the identity on a block algebra and slicing each solution into
corner maps always produces the same shape: ten corners vanish and the
surviving six satisfy a short list of module equations.  Conversely,
any six maps satisfying those equations assemble back into a solution.
"""

import random
from fractions import Fraction

from lietriple.algebra import LinearOperator
from lietriple.catalog import full_matrix_gma, upper_triangular_gma
from lietriple.centralizers import (
    IdentityKind,
    block_decompose,
    build_from_blocks,
    six_map_solution_space,
    six_maps_from_flat,
    solve_identity_space,
    verify_thm31_conditions,
)

u = upper_triangular_gma(3)
space = solve_identity_space(u.algebra, IdentityKind.LIE_TRIPLE_CENTRALIZER)
print("triple-centralizer space on the 3x3 triangular algebra: dim", space.dim)

# Forward: each solved basis element passes the corner conditions.
for v in space.basis:
    op = LinearOperator(u.algebra, v)
    report = verify_thm31_conditions(u, block_decompose(u, op))
    assert report.passed
print("every basis solution passes the block-form conditions")

# The corner picture of one solution:
d = block_decompose(u, LinearOperator(u.algebra, space.basis[0]))
for name in ("alpha1", "beta1", "tau2", "gamma3", "alpha4", "beta4"):
    print(f"  {name}:", getattr(d, name))

# Converse: the space of valid six-map tuples has the same dimension,
# and random members assemble into solutions.
tuples = six_map_solution_space(u)
print("\nvalid six-map tuples: dim", tuples.dim, "(same as the solved space)")
rng = random.Random(0)
flat = tuple(Fraction(0) for _ in range(tuples.ambient))
for bv in tuples.basis:
    c = Fraction(rng.randint(-3, 3))
    flat = tuple(a + c * b for a, b in zip(flat, bv))
maps = six_maps_from_flat(u, flat)
op = build_from_blocks(
    u, maps["alpha1"], maps["beta1"], maps["tau2"],
    maps["gamma3"], maps["alpha4"], maps["beta4"],
)
print("random valid tuple assembles into the solved space:",
      space.contains_vector(op.coords))

# On the full matrix algebra the space is just scalars + trace-like maps.
m2 = full_matrix_gma(2)
print("\nfull 2x2 matrices: dim",
      solve_identity_space(m2.algebra, IdentityKind.LIE_TRIPLE_CENTRALIZER).dim,
      "(scaling and the trace-to-scalar map)")
