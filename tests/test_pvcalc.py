from fractions import Fraction

import pytest

from polyvec import conventions, pvcalc
from polyvec.superpoly import SuperPoly, monomial_basis, random_poly


def xi(d, i):
    return SuperPoly.xi(d, i)


def x(d, i):
    return SuperPoly.x(d, i)


def _homog(d, deg, seed):
    import random

    j = random.Random(seed).randrange(0, d + 1)
    return random_poly(d, deg, xi_degree_filter=j, seed=seed)


def test_divergence_examples():
    d = 2
    assert pvcalc.divergence(xi(d, 1)).is_zero()
    assert pvcalc.divergence(x(d, 1) * xi(d, 1)) == SuperPoly.const(d, 1)
    assert pvcalc.divergence(x(d, 1) * x(d, 1) * xi(d, 1) * xi(d, 2)) == (
        x(d, 1) * xi(d, 2)).scale(2)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_divergence_squares_to_zero(d):
    for seed in range(25):
        mu = random_poly(d, 5, seed=seed, n_terms=5)
        assert pvcalc.divergence(pvcalc.divergence(mu)).is_zero()


def test_divergence_lowers_degree():
    mu = random_poly(3, 4, xi_degree_filter=2, seed=4)
    out = pvcalc.divergence(mu)
    assert out.xi_degrees() <= {1}


def test_schouten_examples():
    d = 2
    assert pvcalc.schouten(xi(d, 1), x(d, 1)) == SuperPoly.const(d, 1)
    f = random_poly(d, 3, xi_degree_filter=0, seed=1)
    g = random_poly(d, 3, xi_degree_filter=0, seed=2)
    assert pvcalc.schouten(f, g).is_zero()
    lhs = pvcalc.schouten(xi(d, 1) * xi(d, 2), x(d, 1) * x(d, 2))
    assert lhs == x(d, 1) * xi(d, 1) - x(d, 2) * xi(d, 2)


@pytest.mark.parametrize("seed", range(15))
def test_shifted_antisymmetry(seed):
    d = 3
    a = _homog(d, 4, seed)
    b = _homog(d, 4, seed + 100)
    sign = -1 if ((a.xi_degree() - 1) * (b.xi_degree() - 1)) & 1 else 1
    assert pvcalc.schouten(a, b) == pvcalc.schouten(b, a).scale(-sign)


@pytest.mark.parametrize("seed", range(12))
def test_shifted_jacobi(seed):
    d = 3
    a, b, c = (_homog(d, 3, seed + 10 * i) for i in range(3))
    sign = -1 if ((a.xi_degree() - 1) * (b.xi_degree() - 1)) & 1 else 1
    lhs = pvcalc.schouten(a, pvcalc.schouten(b, c))
    rhs = pvcalc.schouten(pvcalc.schouten(a, b), c) + pvcalc.schouten(
        b, pvcalc.schouten(a, c)).scale(sign)
    assert lhs == rhs


@pytest.mark.parametrize("seed", range(12))
def test_divergence_is_shifted_derivation(seed):
    d = 3
    mu = _homog(d, 4, seed + 3)
    nu = _homog(d, 4, seed + 300)
    sign = -1 if (mu.xi_degree() - 1) & 1 else 1
    lhs = pvcalc.divergence(pvcalc.schouten(mu, nu))
    rhs = pvcalc.schouten(pvcalc.divergence(mu), nu) + pvcalc.schouten(
        mu, pvcalc.divergence(nu)).scale(sign)
    assert lhs == rhs


@pytest.mark.parametrize("seed", range(12))
def test_second_order_expansion(seed):
    d = 3
    mu = _homog(d, 4, seed + 17)
    nu = random_poly(d, 4, seed=seed + 1700)
    k = mu.xi_degree()
    rhs = (pvcalc.divergence(mu) * nu
           + (mu * pvcalc.divergence(nu)).scale(-1 if k & 1 else 1)
           + pvcalc.schouten(mu, nu).scale(-1 if (k - 1) & 1 else 1))
    assert pvcalc.divergence(mu * nu) == rhs


def test_symmetric_bracket_is_decalage_of_schouten():
    d = 3
    for seed in range(10):
        mu = _homog(d, 3, seed)
        nu = random_poly(d, 3, seed=seed + 31)
        k = mu.xi_degree()
        assert pvcalc.symmetric_bracket(mu, nu) == pvcalc.schouten(mu, nu).scale(
            -1 if (k - 1) & 1 else 1)


def test_symmetric_bracket_is_delta_of_product_on_kernel():
    from polyvec.contraction import contraction_K

    d = 3
    for seed in range(8):
        raw = random_poly(d, 3, xi_degree_filter=seed % 3, seed=seed)
        a = raw - contraction_K(pvcalc.divergence(raw))
        raw = random_poly(d, 3, xi_degree_filter=(seed + 1) % 3, seed=seed + 9)
        b = raw - contraction_K(pvcalc.divergence(raw))
        assert pvcalc.symmetric_bracket(a, b) == pvcalc.divergence(a * b)


def test_vee_omega_examples():
    d = 3
    top = xi(d, 1) * xi(d, 2) * xi(d, 3)
    assert pvcalc.vee_omega(top) == SuperPoly.const(d, 1)
    assert pvcalc.vee_omega(SuperPoly.const(d, 1)) == top


def test_vee_omega_round_trip():
    for seed in range(50):
        mu = random_poly(3, 4, seed=seed, n_terms=5)
        assert pvcalc.vee_omega_inv(pvcalc.vee_omega(mu)) == mu
        assert pvcalc.vee_omega(pvcalc.vee_omega_inv(mu)) == mu


def test_vee_omega_degree_rule():
    mu = random_poly(3, 3, xi_degree_filter=1, seed=2)
    assert pvcalc.vee_omega(mu).xi_degrees() == {2}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_transport_sign_per_degree(d):
    for j in range(d + 1):
        for seed in range(6):
            mu = random_poly(d, 4, xi_degree_filter=j, seed=seed + 10 * j)
            want = pvcalc.divergence(mu).scale(conventions.transport_sign(j))
            assert pvcalc.divergence_via_transport(mu) == want


def test_top_constant_pairing_examples():
    d = 3
    assert pvcalc.top_constant_pairing(xi(d, 1), xi(d, 2) * xi(d, 3)) == 1
    assert pvcalc.top_constant_pairing(x(d, 1) * xi(d, 1), xi(d, 2) * xi(d, 3)) == 0
    assert pvcalc.top_constant_pairing(xi(d, 1) * xi(d, 2), xi(d, 3)) == 1


def test_top_constant_pairing_equals_top_of_product_on_basis_pairs():
    basis = [SuperPoly(3, {m: c}) for c, m in enumerate(monomial_basis(3, 2), start=1)]
    for a in basis:
        for b in basis:
            assert pvcalc.top_constant_pairing(a, b) == (a * b).top_constant()


def test_descendent_coefficient():
    assert pvcalc.descendent_coefficient(0, 0, 0) == 1
    assert pvcalc.descendent_coefficient(1, 0, 0, 0) == 1
    assert pvcalc.descendent_coefficient(2, 0, 0) == 0
    assert pvcalc.descendent_coefficient(1, 1, 0, 0, 0) == 2
    # symmetry
    assert pvcalc.descendent_coefficient(2, 1, 0, 0, 0, 0) == pvcalc.descendent_coefficient(
        0, 0, 1, 0, 2, 0)
    with pytest.raises(ValueError):
        pvcalc.descendent_coefficient(0, 0)


def test_lifted_bracket_identity_d3():
    top = SuperPoly.monomial(3, (0, 0, 0), (1, 2, 3))
    for seed in range(10):
        mu = random_poly(3, 4, xi_degree_filter=1, seed=seed)
        beta = random_poly(3, 4, xi_degree_filter=0, seed=seed + 70)
        lhs = mu * pvcalc.divergence(beta * top)
        rhs = (pvcalc.schouten(mu, beta) * top).scale(conventions.LIFT_SIGN)
        assert lhs == rhs


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_gerstenhaber_leibniz_rule(d):
    # [mu, nu rho] = [mu, nu] rho + (-1)^((|mu|-1)|nu|) nu [mu, rho]
    for seed in range(60):
        mu, nu, rho = (_homog(d, 3, 3 * seed + i) for i in range(3))
        sign = -1 if ((mu.xi_degree() - 1) * nu.xi_degree()) & 1 else 1
        lhs = pvcalc.schouten(mu, nu * rho)
        assert lhs == pvcalc.schouten(mu, nu) * rho + (nu * pvcalc.schouten(mu, rho)).scale(sign)


def test_derivation_family_rejects_third_order_laplacian(monkeypatch):
    # Delta + d/dxi_1 (d/dx_1)^2 squares to zero but is third order, so
    # only the Leibniz half of the family can tell it from Delta
    from polyvec.suites import CampaignConfig, suite_algebra

    second_order = pvcalc.divergence
    monkeypatch.setattr(pvcalc, "divergence",
                        lambda p: second_order(p) + p.d_odd(1).d_even(1).d_even(1))
    report = suite_algebra(CampaignConfig(d=3, max_degree=4, trials=20))
    record = next(r for r in report.records if r.check_id == "algebra.d3.derivation_and_second_order")
    assert not record.passed
    assert "rho" in record.details["witness"]


def test_derivation_family_rejects_a_kernel_with_a_flipped_term(monkeypatch):
    # Delta's derived bracket is computed in the family itself, so only its
    # comparison with schouten sees a wrong bidifferential kernel
    from polyvec.suites import CampaignConfig, suite_algebra

    def kernel(mu, nu, second):
        signed = mu.scale_by_xi_degree(lambda k: -second if k & 1 else second)
        out = SuperPoly.zero(mu.d)
        for i in range(1, mu.d + 1):
            out = out + mu.d_odd(i) * nu.d_even(i) + signed.d_even(i) * nu.d_odd(i)
        return out

    mu, nu = x(3, 1) * xi(3, 2), x(3, 2) * xi(3, 1)
    assert kernel(mu, nu, 1) == pvcalc.symmetric_bracket(mu, nu) != kernel(mu, nu, -1)
    monkeypatch.setattr(pvcalc, "symmetric_bracket", lambda mu, nu: kernel(mu, nu, -1))
    report = suite_algebra(CampaignConfig(d=3, max_degree=4, trials=20))
    record = next(r for r in report.records if r.check_id == "algebra.d3.derivation_and_second_order")
    assert not record.passed
    assert record.details["witness"]["kind"] == "kernel"
