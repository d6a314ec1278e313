#!/usr/bin/env python3
"""The sl2 action: outer derivations of SHO(3|3) against the field theory.

h is diagonal in the xi-degree, e is the adjoint of an element that is
symplectic but outside the derived subalgebra, f lifts the 2-polyvector
part by the Euler homotopy K and contracts it with the volume form, on
every principal degree.  On the center the action is the standard
representation, and the embedding into the d = 3 potential(2) field
complex intertwines it with the linear action on the even pair: the
potential summand ("p", 0), which holds PV^3, and the function summand
("f", 0, 0).
"""

from fractions import Fraction

from polyvec import ExtElement, act_e, act_f, act_h, embed, ext_element, field_action
from polyvec.sl2 import equivariance_compare_theorem, sl2_relations_check
from polyvec.superpoly import SuperPoly

x = lambda i: SuperPoly.x(3, i)
xi = lambda i: SuperPoly.xi(3, i)

print("# actions on generators")
print("h(gen x1)          =", act_h(ext_element(x(1))))
print("h(gen xi1)         =", act_h(ext_element(xi(1))))
print("e(gen -x1)         =", act_e(ext_element(-x(1))))
print("f(gen xi1 xi2)     =", act_f(ext_element(xi(1) * xi(2))))
print("f(gen x1 xi2 xi3)  =", act_f(ext_element(x(1) * xi(2) * xi(3))))
print("f(gen x2^2 xi1 xi3) =", act_f(ext_element(x(2) * x(2) * xi(1) * xi(3))))

print("\n# the standard representation on the center")
e1 = ExtElement(SuperPoly.zero(3), Fraction(1), Fraction(0))
e2 = ExtElement(SuperPoly.zero(3), Fraction(0), Fraction(1))
print("h e1 =", act_h(e1), "   h e2 =", act_h(e2))
print("e e2 =", act_e(e2), "   f e1 =", act_f(e1))

print("\n# operator relations and derivation properties")
print(sl2_relations_check(truncation=3, trials=15, seed=0).summary_text())

print("\n# the embedding into the field complex is equivariant")
v = ext_element(xi(1) * xi(2))
psi = embed(v)
print("embed(gen xi1 xi2): p_0 =", psi.part(("p", 0)), ", f_0_0 =", psi.part(("f", 0, 0)))
print("field f moves p_0 to f_0_0:", field_action("f", psi).part(("f", 0, 0)))
print("matches embed(f . v)      :", embed(act_f(v)).part(("f", 0, 0)))
print()
print(equivariance_compare_theorem(truncation=3, trials=15, seed=0).summary_text())
