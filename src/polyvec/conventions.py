"""Pinned sign and normalization conventions.

Every identity certified by this package holds only after a handful of
convention choices (left vs right odd derivatives, the orientation used
when contracting with the volume element, which of the two possible
signs a transported operator carries).  Each constant below was fixed
once, by evaluating both sides of the defining relation on monomial
probes, and is asserted by the test suite.  Changing any value here is
expected to break tests; that is the point.
"""

from fractions import Fraction

# Left odd-derivative convention: d_odd(i) anticommutes xi_i to the front
# of the odd factor and strikes it.
ODD_DERIVATIVE = "left"

# Transporting the holomorphic de Rham differential through contraction
# with Omega = dx_1 ^ ... ^ dx_d yields (-1)**(k-1) * Delta on xi-degree k,
# where Delta = sum_i d/dx_i d/dxi_i.
# Probes: x1*xi1 (d=1, k=1) -> +1; x1*xi1*xi2 (d=2, k=2) -> -1.
def transport_sign(xi_degree: int) -> int:
    return -1 if xi_degree % 2 == 0 else 1


# The Euler contraction homotopy, transported through Omega, satisfies
# Delta K + K Delta = id only after the per-degree sign (-1)**k on
# xi-degree k.  Probe: K(1) = x1*xi1 in d=1.
def euler_homotopy_sign(xi_degree: int) -> int:
    return -1 if xi_degree % 2 else 1


# Super-divergence of a Hamiltonian field: D(Ham f) = kappa_{|f|} Delta f.
# Probes: f = x1*xi1 (even part), f = x1 (even), f = xi1 (odd).
KAPPA_EVEN = Fraction(2)
KAPPA_ODD = Fraction(-2)

# Ham is a Lie anti-map for the Schouten bracket in these conventions:
# [Ham f, Ham g] = SIGMA * Ham([f,g]_SN), one sign for every parity pair
# (each of the four pairs was probed separately and gave -1).  Equivalently
# f -> -Ham(f) is a Lie map.  Probes: (x1^2, xi1), (x1^2, x1*xi1*xi2),
# (x2*xi1, x1*xi2), (xi1, x1^2).
SIGMA = -1

# Extension cocycle normalizations on Hamiltonian generators (d = 3).
# The generator-level bracket is the Schouten bracket; vector fields are
# identified with generators through X = -Ham(f) (the Lie-map convention).
# c1 is the top-constant pairing channel, c2 the constant-term channel:
#   c1(f, g) = EXT_C1_SIGN * (-1)**(|f| - 1) * top_constant_pairing(f, g)
#   c2(f, g) = EXT_C2_SIGN * constant_term([f, g]_SN)
# pinned so that [d/dx_i, xi_k d/dx_j - xi_j d/dx_k] = eps_{ijk} e1 and
# [d/dxi_i, d/dx_j] = delta_ij e2 hold verbatim.
EXT_C1_SIGN = -1
EXT_C2_SIGN = 1

# sl2 action on SHO(3|3): e acts as the adjoint of the generator
# E_GENERATOR_COEFF * xi1 xi2 xi3 (an element of SHO' \ SHO, hence outer);
# h is diagonal with eigenvalue (xi-degree - 1).
E_GENERATOR_COEFF = -1

# f lifts the xi-degree-2 part of a generator to PV^3 by the Euler homotopy
# K and contracts it with the volume form:
#   f(v) = F_SIGN * vee_omega(K(v_2)),  f e1 = e2,  f e2 = 0.
# The sign is forced by [e, f] = h (probe: [e,f] on x1^2, where h gives
# -x1^2).
F_SIGN = -1

# Embedding of the extension into the d = 3 potential(2) field complex used
# by the equivariance comparison: the 2-polyvector part of a generator
# embeds into the potential summand PV^3 through -K (the Euler homotopy),
# the e1 center through +xi1 xi2 xi3.
EMBED_K_SIGN = -1

# Identity at d = 3 relating the wedge against a lifted function to the
# Schouten bracket: mu ^ Delta(beta xi1 xi2 xi3) = LIFT_SIGN [mu, beta]_SN
# xi1 xi2 xi3 for mu of xi-degree 1 and beta of degree 0.
LIFT_SIGN = 1


def snapshot() -> dict:
    """All pinned constants, for inclusion in verification reports."""
    return {
        "odd_derivative": ODD_DERIVATIVE,
        "transport_sign_per_degree": {k: transport_sign(k) for k in range(5)},
        "euler_homotopy_sign_per_degree": {k: euler_homotopy_sign(k) for k in range(5)},
        "kappa_even": str(KAPPA_EVEN),
        "kappa_odd": str(KAPPA_ODD),
        "sigma": SIGMA,
        "ext_c1_sign": EXT_C1_SIGN,
        "ext_c2_sign": EXT_C2_SIGN,
        "e_generator_coeff": E_GENERATOR_COEFF,
        "f_sign": F_SIGN,
        "embed_k_sign": EMBED_K_SIGN,
        "lift_sign": LIFT_SIGN,
    }
