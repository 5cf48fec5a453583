"""Tour of the exact linear algebra layer.

Everything is a Fraction; subspaces carry canonical echelon bases so
that equal spaces literally print the same grid.
"""

from fractions import Fraction

from lietriple.linalg import Matrix, Subspace, kernel_of_rows, solve

# Row reduction never rounds: pivots can be any rational.  A Matrix is
# given by its column-major coordinates and prints row by row.
m = Matrix(3, 2, [Fraction(1, 2), 2, 1, Fraction(1, 3), 4, 2])
print("matrix:")
print(m)
# The canonical basis of the row space is the nonzero rows of the rref.
rref = Subspace(m.cols, [m.row(i) for i in range(m.rows)]).basis
print("rref rows:")
print(Matrix(len(rref), m.cols, [v[j] for j in range(m.cols) for v in rref]))

# Kernels of rows over Q^3 come back as canonical subspaces.
k = kernel_of_rows(3, [(1, 2, 3), (2, 4, 6)])
print("\nkernel of a rank-one matrix:", k)
for v in k.basis:
    print("  basis vector:", v)

# Solving takes a system as rows over Q^3, dense or sparse {column: value},
# and reports the echelon particular solution; every other solution adds
# a vector of the kernel of the same rows.
rows = [(1, 1, 0), {1: 1, 2: 1}]
particular = solve(3, rows, (3, 5))
homogeneous = kernel_of_rows(3, rows)
print("\nparticular solution:", particular)
print("homogeneous space:", homogeneous)

# The subspace lattice: sums, intersections, dimension bookkeeping.
u = Subspace(3, [(1, 1, 0), (0, 0, 1)])
w = Subspace(3, [(1, 0, 0)])
print("\ndim(U) =", u.dim, " dim(W) =", w.dim)
print("dim(U + W) =", u.sum(w).dim)
print("dim(U /\\ W) =", u.intersect(w).dim)
print("modular identity holds:",
      u.sum(w).dim == u.dim + w.dim - u.intersect(w).dim)

# Canonical bases make equality a plain grid comparison.
same = Subspace(3, [(2, 2, 0), (1, 1, 1)])
print("\nU built from different spanning sets equals U:", same == u)
