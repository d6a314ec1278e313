from fractions import Fraction
from itertools import permutations

import pytest

from polyvec import pvcalc
from polyvec.contraction import contraction_K
from polyvec.sho import ExtElement, ext_bracket_d3, ext_element, random_sho_generator
from polyvec.sl2 import (
    OutsideVerifiedDomain,
    ZTwoField,
    act_e,
    act_f,
    act_h,
    embed,
    equivariance_check_cocycle,
    equivariance_compare_theorem,
    field_action,
    sl2_relations_check,
    symplectic_pair,
)
from polyvec.superpoly import SuperPoly, random_poly


def xi(i):
    return SuperPoly.xi(3, i)


def x(i):
    return SuperPoly.x(3, i)


def _eps(i, j, k):
    if {i, j, k} != {1, 2, 3}:
        return 0
    return 1 if (i, j, k) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)) else -1


def test_act_h_examples():
    for i in (1, 2, 3):
        assert act_h(ext_element(x(i))) == ext_element(-x(i))
        assert act_h(ext_element(xi(i))).is_zero()
    v = ext_element(xi(1) * xi(2))
    assert act_h(v) == v
    # center: h e1 = e1, h e2 = -e2
    assert act_h(ExtElement(SuperPoly.zero(3), Fraction(1), Fraction(2))) == ExtElement(
        SuperPoly.zero(3), Fraction(1), Fraction(-2))


def test_act_e_examples():
    # e sends the generator of the field d/dxi_i to the generator of the
    # field eps_{ibc} xi_b d/dx_c (fields named through X = -Ham(f))
    from polyvec.sho import generator_of_field, SuperVectorField

    for i in (1, 2, 3):
        want_field = SuperVectorField.zero(3)
        for b, c in permutations((1, 2, 3), 2):
            e = _eps(i, b, c)
            if e:
                z = SuperPoly.zero(3)
                mu_x = [z, z, z]
                mu_x[c - 1] = xi(b).scale(e)
                want_field = want_field + SuperVectorField(3, tuple(mu_x), (z, z, z))
        dxi = ext_element(-x(i))  # generator of d/dxi_i
        got = act_e(dxi)
        assert generator_of_field(want_field, max_degree=3) == got.gen
    # e kills constant-coefficient polyvector generators
    assert act_e(ext_element(xi(1))).is_zero()
    assert act_e(ext_element(xi(1) * xi(2))).is_zero()
    # center: e e2 = e1, e e1 = 0
    out = act_e(ExtElement(SuperPoly.zero(3), Fraction(2), Fraction(3)))
    assert out == ExtElement(SuperPoly.zero(3), Fraction(3), Fraction(0))


def test_act_f_table():
    assert act_f(ext_element(xi(1) * xi(2))).gen == -x(3)
    assert act_f(ext_element(xi(1) * xi(3))).gen == x(2)  # -eps_{132} x2
    half = Fraction(1, 2)
    assert act_f(ext_element(x(1) * xi(2) * xi(3))).gen == (x(1) * x(1)).scale(-half)
    diag = x(1) * xi(1) * xi(2) - x(3) * xi(3) * xi(2)
    assert act_f(ext_element(diag)).gen == -(x(1) * x(3))
    # zero everywhere else on low degrees
    assert act_f(ext_element(xi(1))).is_zero()
    assert act_f(ext_element(x(1))).is_zero()
    assert act_f(ext_element(x(1) * xi(2))).is_zero()
    assert act_f(ext_element(x(1) * x(2))).is_zero()
    # center: f e1 = e2, f e2 = 0
    out = act_f(ExtElement(SuperPoly.zero(3), Fraction(4), Fraction(9)))
    assert out == ExtElement(SuperPoly.zero(3), Fraction(0), Fraction(4))


def test_act_f_outside_domain():
    with pytest.raises(OutsideVerifiedDomain):
        act_f(ext_element(x(1) * x(1) * xi(2) * xi(3)))


def test_f_agrees_with_contraction_lift():
    # on its verified xi-degree-2 domain the table equals the negative of
    # the K-lift contracted with the volume element
    for seed in range(10):
        raw = random_poly(3, 3, xi_degree_filter=2, seed=seed)
        gen = raw - contraction_K(pvcalc.divergence(raw))
        v = ext_element(gen)
        if any(deg > 1 for deg in v.gen.principal_components()):
            continue
        want = -pvcalc.vee_omega(contraction_K(v.gen))
        assert act_f(v).gen == want


def test_extend_f_solver():
    from polyvec.sl2 import extend_f

    # a principal-degree-2 element reached by e from degree 1
    v = ext_element(x(1) * x(1) * x(1))
    ev = act_e(v)
    with pytest.raises(OutsideVerifiedDomain):
        act_f(ev)
    out = extend_f(ev)
    assert out is not None
    # consistent with the operator relation [e, f] = h extended upward:
    # f(e(x1^3)) = e(f(x1^3)) - h(x1^3) = x1^3
    assert out.gen == x(1) * x(1) * x(1)
    # agrees with the table on the verified domain
    w = ext_element(xi(1) * xi(2))
    assert extend_f(w) == act_f(w)


def test_sl2_relations_report():
    report = sl2_relations_check(truncation=3, trials=20, seed=9)
    assert report.ok, report.summary_text()


def test_named_cocycle_equivariance_bullets():
    report = equivariance_check_cocycle(trials=15, seed=2)
    assert report.ok, report.summary_text()


def test_field_action_examples():
    alpha = random_poly(3, 2, xi_degree_filter=0, seed=1)
    beta = random_poly(3, 2, xi_degree_filter=0, seed=2)
    z = SuperPoly.zero(3)
    psi = ZTwoField(alpha, beta, z, z)
    assert field_action("h", psi) == ZTwoField(alpha, -beta, z, z)
    assert field_action("e", ZTwoField(z, beta, z, z)) == ZTwoField(beta, z, z, z)
    assert field_action("f", ZTwoField(alpha, z, z, z)) == ZTwoField(z, alpha, z, z)
    # zero on the odd fields
    mu = random_poly(3, 2, xi_degree_filter=1, seed=3)
    nu = random_poly(3, 2, xi_degree_filter=0, seed=4)
    assert field_action("e", ZTwoField(z, z, mu, nu)).is_zero()


def test_field_action_preserves_symplectic_pairing():
    z = SuperPoly.zero(3)
    for seed in range(10):
        psi = ZTwoField(random_poly(3, 2, 0, seed=seed), random_poly(3, 2, 0, seed=seed + 9), z, z)
        chi = ZTwoField(random_poly(3, 2, 0, seed=seed + 17), random_poly(3, 2, 0, seed=seed + 23), z, z)
        for name in ("e", "h", "f"):
            total = symplectic_pair(field_action(name, psi), chi) + symplectic_pair(
                psi, field_action(name, chi))
            assert total.is_zero()


def test_embed_slots():
    v = ext_element(x(1) + xi(1) * xi(2), c1=2, c2=3)
    psi = embed(v + ExtElement(SuperPoly.zero(3), Fraction(0), Fraction(0)))
    assert psi.phi2 == x(1) + SuperPoly.const(3, 3)
    assert psi.mu.is_zero()
    assert psi.nu.is_zero()
    # phi1 carries the potential lift of the 2-polyvector part and e1
    pot = SuperPoly.monomial(3, (0, 0, 0), (1, 2, 3), 2) - contraction_K(xi(1) * xi(2))
    assert psi.phi1 == pvcalc.vee_omega(pot)


def test_zt_field_degree_validation():
    z = SuperPoly.zero(3)
    with pytest.raises(ValueError):
        ZTwoField(xi(1), z, z, z)


def test_equivariance_comparison_passes():
    report = equivariance_compare_theorem(truncation=3, trials=20, seed=4)
    assert report.ok, report.summary_text()


def test_equivariance_named_cases():
    # h on e1: both sides are the same field with weight +1
    e1 = ExtElement(SuperPoly.zero(3), Fraction(1), Fraction(0))
    assert embed(act_h(e1)) == field_action("h", embed(e1))
    # h on gen xi1: both sides vanish
    v = ext_element(xi(1))
    assert embed(act_h(v)).is_zero() and field_action("h", embed(v)).is_zero()
    # e on e2: both sides give embed(e1)
    e2 = ExtElement(SuperPoly.zero(3), Fraction(0), Fraction(1))
    assert embed(act_e(e2)) == field_action("e", embed(e2))
    assert embed(act_e(e2)) == embed(e1)
