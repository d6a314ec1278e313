"""Polyvector-field calculus on C^d through O(C^{d|d}) = PV(C^d).

A polyvector field of degree i is encoded as a SuperPoly of xi-degree i
(xi_i stands for d/dx_i).  This module provides the divergence operator
(the odd Laplacian), its contraction homotopy K and the divergence-free
projection, the Schouten bracket in both the Lie and the
shifted-symmetric convention, transport through contraction with the
holomorphic volume element Omega = dx_1 ^ ... ^ dx_d, the top-constant
pairing (superpoly's, imported as it is), and the descendent integral
coefficients.

Delta, K, de Rham, the Euler contraction and both transports are calls
of superpoly's kernels with the mode, or K's sign convention, fixed
here; no key layout is read.

The bracket is the one Delta derives, evaluated by its bidifferential
formula as one call of superpoly's bracket kernel, which pairs first
partials only at the indices both inputs carry, with no divergence or
product call; the suites' derivation family checks the two against each
other.  schouten is that bracket with the decalage sign of mu's parity
applied to the output.
"""

from __future__ import annotations

from math import comb

from . import conventions
from .superpoly import (
    SuperPoly,
    _complement_transport,
    _euler_homotopy,
    _index_operator,
    bracket_products,
    top_constant_pairing,
)


def divergence(p: SuperPoly) -> SuperPoly:
    """Delta = sum_i d/dx_i d/dxi_i; lowers xi-degree by one, squares to zero.

    Each odd index i of x^a xi_S, at position pos in S, gives
    (-1)^pos a_i x^(a - e_i) xi_(S - i).
    """
    return _index_operator(p.d, p._terms.items(), p._den, raise_xi=False, raise_x=False)


def contraction_K(mu: SuperPoly) -> SuperPoly:
    """The contraction homotopy of the divergence, PV^j -> PV^{j+1}: the
    Euler-scaling homotopy of the de Rham complex transported through
    vee_omega and signed by euler_homotopy_sign(k) on xi-degree k, the
    sign read at call time.  Delta K + K Delta = id on xi-degrees 0..d-1,
    and output into PV^d has no constant term.  One call of superpoly's
    K kernel (_euler_homotopy), which builds no Fraction."""
    return _euler_homotopy(mu, conventions.euler_homotopy_sign)


def divergence_free_part(p: SuperPoly) -> SuperPoly:
    """The projection id - K Delta onto divergence-free polyvectors."""
    return p - contraction_K(divergence(p))


def decalage_sign(k: int) -> int:
    """(-1)^(k-1): schouten is symmetric_bracket with this sign on xi-degree k."""
    return -1 if (k - 1) & 1 else 1


def schouten(mu: SuperPoly, nu: SuperPoly) -> SuperPoly:
    """Schouten bracket [mu, nu] = (-1)^(|mu|-1) (Delta(mu nu) - (Delta mu) nu - (-1)^|mu| mu Delta nu).

    |mu| is the xi-degree; non-homogeneous first arguments are handled by
    bilinear extension over xi-homogeneous components.  It is the
    symmetric bracket with the decalage sign (-1)^(|mu|-1) on mu: on a
    parity-homogeneous mu that is one sign, applied to the output, and
    only a mixed-parity mu is signed term by term first.
    """
    parities = {k & 1 for k in mu.xi_degrees()}
    if len(parities) > 1:
        return symmetric_bracket(mu.scale_by_xi_degree(decalage_sign), nu)
    out = symmetric_bracket(mu, nu)
    return out if 1 in parities else -out


def symmetric_bracket(mu: SuperPoly, nu: SuperPoly) -> SuperPoly:
    """The Schouten bracket in the shifted-symmetric convention.

    b2(mu, nu) = Delta(mu nu) - (Delta mu) nu - (-1)^|mu| mu (Delta nu),
    evaluated in one pass by its bidifferential form

        b2(mu, nu) = sum_i d_xi_i(mu) d_x_i(nu) + (-1)^|mu| d_x_i(mu) d_xi_i(nu)

    (left odd derivatives; |mu| read per monomial): superpoly's bracket
    kernel pairs the first partials of mu and nu at the indices both
    carry, with no intermediate product or Laplacian.  Graded symmetric
    for the plain xi-parity, and equal to Delta(mu nu) when both inputs
    are divergence free.  Related to schouten() by the decalage sign
    (-1)^(|mu| - 1).
    """
    mu._check_same(nu)
    return bracket_products(mu.d, mu._terms.items(), nu._terms.items(), mu._den * nu._den)


# -- transport through Omega -----------------------------------------


def vee_omega(mu: SuperPoly) -> SuperPoly:
    """Contract with Omega: PV^k -> Omega^{d-k}, xi_S -> sign(S, S^c) dx_{S^c}.

    The result reuses the SuperPoly encoding with xi_i read as dx_i.
    """
    return _complement_transport(mu, inverse=False)


def vee_omega_inv(w: SuperPoly) -> SuperPoly:
    """Inverse of vee_omega: dx_T -> sign(T^c, T) xi_{T^c}."""
    return _complement_transport(w, inverse=True)


def de_rham(w: SuperPoly) -> SuperPoly:
    """Holomorphic de Rham differential on forms: sum_i dx_i ^ (d/dx_i)."""
    return _index_operator(w.d, w._terms.items(), w._den, raise_xi=True, raise_x=False)


def divergence_via_transport(mu: SuperPoly) -> SuperPoly:
    """The de Rham differential transported through vee_omega.

    Satisfies transported(mu) = transport_sign(k) * divergence(mu) on
    xi-degree k; asserted by the test suite.
    """
    return vee_omega_inv(de_rham(vee_omega(mu)))


def euler_contraction(w: SuperPoly) -> SuperPoly:
    """Contraction of a form with the Euler vector field sum_i x_i d/dx_i."""
    return _index_operator(w.d, w._terms.items(), w._den, raise_xi=False, raise_x=True)


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
