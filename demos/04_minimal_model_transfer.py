#!/usr/bin/env python3
"""Homotopy transfer onto the divergence-free carrier, against the oracle.

The transfer engine sums over rooted trees (leaves the carrier elements,
which are fields, internal edges the homotopy, root the projection).  For the minimal theory every tree
with an internal edge dies, the transferred differential vanishes, and
the binary bracket is the Schouten bracket: the minimal model is a Lie
superalgebra on divergence-free polyvectors.
"""

from polyvec import Variant, build_datum, cohomology_model, schouten
from polyvec.linf import field_structure, minimal_model_structure, transfer
from polyvec.superpoly import SuperPoly

d = 3
datum = build_datum(d, Variant.mbcov())
transferred = transfer(field_structure(d), datum, arity_cap=4)
model = minimal_model_structure(d, Variant.mbcov())
carrier = cohomology_model(d, Variant.mbcov())

xi1, xi2 = SuperPoly.xi(d, 1), SuperPoly.xi(d, 2)
x1, x2 = SuperPoly.x(d, 1), SuperPoly.x(d, 2)

a = carrier.element({("pv", 2): xi1 * xi2})
b = carrier.element({("pv", 1): x1 * x2 * SuperPoly.xi(d, 3)})

print("# transferred binary bracket vs the closed form")
got = transferred.brackets[2](a, b)
print("transferred l2:", carrier.to_dict(got))
print("closed form   :", carrier.to_dict(model.brackets[2](a, b)))
print("the Lie-convention value is the Schouten bracket:",
      schouten(xi1 * xi2, x1 * x2 * SuperPoly.xi(d, 3)))

print("\n# the transferred differential and higher brackets vanish")
print("l1(a)       =", transferred.brackets[1](a).is_zero())
c = carrier.random_element(("pv", 1), 3, seed=3)
e = carrier.random_element(("pv", 0), 3, seed=4)
print("l3(a, b, c) =", transferred.brackets[3](a, b, c).is_zero())
print("l4(a,b,c,e) =", transferred.brackets[4](a, b, c, e).is_zero())

print("\n# the k-potential models add central multibrackets")
S = minimal_model_structure(4, Variant.potential(2))
car4 = cohomology_model(4, Variant.potential(2))
xs = [car4.element({("pv", 1): SuperPoly.xi(4, 1)}),
      car4.element({("pv", 1): SuperPoly.xi(4, 3)}),
      car4.element({("quot",): SuperPoly.x(4, 3) * SuperPoly.xi(4, 2) * SuperPoly.xi(4, 3) * SuperPoly.xi(4, 4)})]
print("ternary bracket into the center:", S.brackets[3](*xs).part(car4.home(("c",))).top_constant())
