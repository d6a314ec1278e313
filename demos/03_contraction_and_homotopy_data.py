#!/usr/bin/env python3
"""The contraction operator K and the homotopy data of the field complexes.

K inverts the divergence up to homotopy (Delta K + K Delta = id below the
top degree) and never produces a constant top component.  The homotopy
data (H, p, iota) connect each field complex to its cohomology carrier;
verify_datum re-derives the defining relations summand by summand.
"""

from polyvec import Variant, build_datum, contraction_K, divergence, verify_datum
from polyvec.complexes import DescendantField
from polyvec.contraction import scale_homotopy
from polyvec.superpoly import SuperPoly, random_poly

print("# the Euler contraction homotopy")
print("K(1) in d=1:", contraction_K(SuperPoly.const(1, 1)))
mu = random_poly(3, 4, xi_degree_filter=1, seed=5)
lhs = divergence(contraction_K(mu)) + contraction_K(divergence(mu))
print("Delta K + K Delta = id:", lhs == mu)
top_in = random_poly(3, 4, xi_degree_filter=2, seed=6)
print("top output constant term:", contraction_K(top_in).top_constant())

print("\n# homotopy data for the minimal theory, d = 3")
datum = build_datum(3, Variant.mbcov())
psi = DescendantField.single(3, Variant.mbcov(), ("f", 1, 0), SuperPoly.x(3, 1))
print("p kills positive t-powers:", datum.carrier.project(psi).is_zero())
report = verify_datum(datum, sample_budget=60, seed=0)
print(report.summary_text())

print("\n# the 2-potential variant in d = 4 has a central slot c: constant top polyvectors")
datum = build_datum(4, Variant.potential(2))
top = SuperPoly.monomial(4, (0, 0, 0, 0), (1, 2, 3, 4), 5)
psi = DescendantField.single(4, Variant.potential(2), ("p", 1), top)
print("p(5 * xi1 xi2 xi3 xi4 at the tower tail) =",
      datum.carrier.project(psi).part(datum.carrier.home(("c",))).top_constant())

print("\n# corrupted homotopies are rejected")
bad = verify_datum(scale_homotopy(datum, 2), sample_budget=30, seed=0)
print("doubled K detected:", not bad.ok)
