#!/usr/bin/env python3
"""Exact arithmetic in the supercommutative ring Q[x] (x) Lambda[xi].

Elements of the ring are functions on C^{d|d}; under xi_i <-> d/dx_i they
are polynomial polyvector fields on C^d.  Everything below is exact:
coefficients are rationals, equalities are equalities.
"""

from polyvec import SuperPoly, random_poly

d = 3
x1, x2 = SuperPoly.x(d, 1), SuperPoly.x(d, 2)
xi1, xi2, xi3 = (SuperPoly.xi(d, i) for i in (1, 2, 3))

print("# products pick up Koszul signs")
print("xi1 * xi2      =", xi1 * xi2)
print("xi2 * xi1      =", xi2 * xi1)
print("xi1 * xi1      =", xi1 * xi1)

print("\n# left odd derivatives")
p = xi1 * xi2
print("d/dxi1 (xi1 xi2) =", p.d_odd(1))
print("d/dxi2 (xi1 xi2) =", p.d_odd(2), "   (xi2 anticommutes past xi1 first)")

print("\n# gradings")
q = x1 * x1 * xi1 + xi2
print("q =", q)
print("xi-degree components:", {k: str(v) for k, v in q.xi_components().items()})
print("principal components:", {k: str(v) for k, v in q.principal_components().items()})

print("\n# canonical text form round-trips")
r = random_poly(d, 3, seed=7, n_terms=5)
print("r        =", r)
print("parsed   =", SuperPoly.parse(d, str(r)))
print("equal    =", SuperPoly.parse(d, str(r)) == r)

print("\n# seeded sampling is deterministic")
print("same seed:", random_poly(2, 2, seed=7) == random_poly(2, 2, seed=7))
