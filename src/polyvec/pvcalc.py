"""Polyvector-field calculus on C^d through O(C^{d|d}) = PV(C^d).

A polyvector field of degree i is encoded as a SuperPoly of xi-degree i
(xi_i stands for d/dx_i).  This module provides the divergence operator
(the odd Laplacian), the Schouten bracket in both the Lie and the
shifted-symmetric convention, transport through contraction with the
holomorphic volume element Omega = dx_1 ^ ... ^ dx_d, the top-constant
pairing, and the descendent integral coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .superpoly import Monomial, SuperPoly, koszul_sign


def divergence(p: SuperPoly) -> SuperPoly:
    """Delta = sum_i d/dx_i d/dxi_i; lowers xi-degree by one, squares to zero."""
    out = SuperPoly.zero(p.d)
    for i in range(1, p.d + 1):
        out = out + p.d_odd(i).d_even(i)
    return out


def schouten(mu: SuperPoly, nu: SuperPoly) -> SuperPoly:
    """Schouten bracket [mu, nu] = (-1)^(|mu|-1) (Delta(mu nu) - (Delta mu) nu - (-1)^|mu| mu Delta nu).

    |mu| is the xi-degree; non-homogeneous first arguments are handled by
    bilinear extension over xi-homogeneous components.  Each component is
    the symmetric bracket times the decalage sign (-1)^(|mu|-1).
    """
    out = SuperPoly.zero(mu.d)
    for k, comp in mu.xi_components().items():
        out = out + symmetric_bracket(comp, nu).scale(-1 if (k - 1) & 1 else 1)
    return out


def symmetric_bracket(mu: SuperPoly, nu: SuperPoly) -> SuperPoly:
    """The Schouten bracket in the shifted-symmetric convention.

    b2(mu, nu) = Delta(mu nu) - (Delta mu) nu - (-1)^|mu| mu (Delta nu);
    graded symmetric for the plain xi-parity, and equal to Delta(mu nu)
    when both inputs are divergence free.  Related to schouten() by the
    decalage sign (-1)^(|mu| - 1).
    """
    out = SuperPoly.zero(mu.d)
    for k, comp in mu.xi_components().items():
        sign_inner = -1 if k & 1 else 1
        out = out + divergence(comp * nu) - divergence(comp) * nu - (comp * divergence(nu)).scale(sign_inner)
    return out


# -- transport through Omega -----------------------------------------


def _complement(d: int, odd: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(i for i in range(1, d + 1) if i not in odd)


def vee_omega(mu: SuperPoly) -> SuperPoly:
    """Contract with Omega: PV^k -> Omega^{d-k}, xi_S -> sign(S, S^c) dx_{S^c}.

    The result reuses the SuperPoly encoding with xi_i read as dx_i.
    """
    out: dict[Monomial, Fraction] = {}
    for m, c in mu._terms.items():
        comp = _complement(mu.d, m.odd)
        sign = koszul_sign(m.odd + comp)
        mono = Monomial(m.exps, comp)
        out[mono] = out.get(mono, Fraction(0)) + sign * c
    return SuperPoly(mu.d, out)


def vee_omega_inv(w: SuperPoly) -> SuperPoly:
    """Inverse of vee_omega: dx_T -> sign(T^c, T) xi_{T^c}."""
    out: dict[Monomial, Fraction] = {}
    for m, c in w._terms.items():
        comp = _complement(w.d, m.odd)
        sign = koszul_sign(comp + m.odd)
        mono = Monomial(m.exps, comp)
        out[mono] = out.get(mono, Fraction(0)) + sign * c
    return SuperPoly(w.d, out)


def de_rham(w: SuperPoly) -> SuperPoly:
    """Holomorphic de Rham differential on forms: sum_i dx_i ^ (d/dx_i)."""
    out = SuperPoly.zero(w.d)
    for i in range(1, w.d + 1):
        out = out + SuperPoly.xi(w.d, i) * w.d_even(i)
    return out


def divergence_via_transport(mu: SuperPoly) -> SuperPoly:
    """The de Rham differential transported through vee_omega.

    Satisfies transported(mu) = transport_sign(k) * divergence(mu) on
    xi-degree k; asserted by the test suite.
    """
    out = SuperPoly.zero(mu.d)
    for _, comp in mu.xi_components().items():
        out = out + vee_omega_inv(de_rham(vee_omega(comp)))
    return out


def euler_contraction(w: SuperPoly) -> SuperPoly:
    """Contraction of a form with the Euler vector field sum_i x_i d/dx_i."""
    out = SuperPoly.zero(w.d)
    for i in range(1, w.d + 1):
        out = out + SuperPoly.x(w.d, i) * w.d_odd(i)
    return out


# -- pairings ---------------------------------------------------------


def top_constant_pairing(a: SuperPoly, b: SuperPoly) -> Fraction:
    """(a ^ b)(0) contracted with Omega: the constant top coefficient of a*b."""
    if a.d != b.d:
        raise ValueError("dimension mismatch")
    return (a * b).top_constant()


def descendent_coefficient(*ks: int) -> int:
    """Intersection number of psi-classes on the (n>=3)-pointed genus-0 space.

    Equals the multinomial (n-3 choose k_1,...,k_n) when sum k_i = n - 3
    and vanishes otherwise.
    """
    n = len(ks)
    if n < 3:
        raise ValueError("at least three insertions required")
    if any(k < 0 for k in ks):
        raise ValueError("powers must be non-negative")
    total = sum(ks)
    if total != n - 3:
        return 0
    value = 1
    remaining = total
    for k in ks:
        value *= comb(remaining, k)
        remaining -= k
    return value
