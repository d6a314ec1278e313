#!/usr/bin/env python3
"""SHO(3|3) and its odd two-dimensional central extension.

Hamiltonian generators represent super-divergence-free symplectic vector
fields through X = -Ham(f); the derived subalgebra drops constants and
the top monomial, which reappear as the two central lines.  The bracket
identities on constant and linear fields come out verbatim.
"""

from polyvec import ext_bracket_d3, ext_element, hamiltonian_vf, membership
from polyvec.sho import random_sho_generator, structure_constants, super_divergence
from polyvec.superpoly import SuperPoly

x = lambda i: SuperPoly.x(3, i)
xi = lambda i: SuperPoly.xi(3, i)

print("# the filtration by generator")
for f in (x(1) * xi(1), xi(1) * xi(2), xi(1) * xi(2) * xi(3), SuperPoly.const(3, 5)):
    print(f"{str(f):18s} ->", membership(f))

print("\n# super-divergence-free = divergence-free generator")
f = random_sho_generator(4, seed=1)
print("D(Ham f) =", super_divergence(hamiltonian_vf(f)), " for a divergence-free f")

print("\n# the two cocycle channels, on named fields")
print("  [d/dx1, xi3 d/dx2 - xi2 d/dx3]:", ext_bracket_d3(ext_element(xi(1)), ext_element(-(xi(2) * xi(3)))))
print("  [d/dxi1, d/dx1]              :", ext_bracket_d3(ext_element(-x(1)), ext_element(xi(1))))
print("  [d/dxi1, d/dx2]              :", ext_bracket_d3(ext_element(-x(1)), ext_element(xi(2))))

print("\n# constants and the top monomial are carved into the center")
v = ext_element(xi(1) * xi(2) + SuperPoly.const(3, 2)
                + SuperPoly.monomial(3, (0, 0, 0), (1, 2, 3), 5))
print("carved:", v)

print("\n# a few structure-constant rows (principal degree <= 0 basis)")
for row in structure_constants(0)[:6]:
    print(" ", row)
