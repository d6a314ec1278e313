"""The packed-key kernels against references that do not call them.

The product, the Schouten kernel and a vector field's action are single
passes over packed term keys.  Delta, K, de Rham and the Euler
contraction are one index-operator kernel, sum_i A_i B_i with A_i either
xi_i * or d/dxi_i and B_i either x_i * or d/dx_i; the transports through
Omega are one complement kernel.  The references below build the same
operators from other pieces: Koszul signs of Monomial tuples, sums of
derivative products, splits by xi-degree and by bidegree, per-component
loops, and commutators of applied fields on coordinates.  Every operator
is linear (the brackets and the product bilinear), so agreement on every
basis monomial (pair) of a truncation proves the kernel there.
"""

import random
from fractions import Fraction

import pytest

from polyvec import conventions, pvcalc
from polyvec.contraction import contraction_K
from polyvec.sho import ExtElement, SuperVectorField, c1_pairing, hamiltonian_vf, vf_bracket
from polyvec.sl2 import act_h
from polyvec.superpoly import Monomial, SuperPoly, koszul_sign, monomial_basis, random_poly


def _mixed(d, seed):
    """A sum of three xi-homogeneous samples of random xi-degrees."""
    rng = random.Random(seed)
    out = SuperPoly.zero(d)
    for j in range(3):
        out = out + random_poly(d, 4, xi_degree_filter=rng.randrange(d + 1), seed=seed + j, n_terms=3)
    return out


def _product(a, b):
    # on Monomial tuples: merge the ascending odd indices, sign the merge
    # by the Koszul sign of the concatenation, add the exponent vectors
    out = {}
    for (exps_a, odd_a), ca in a.terms():
        for (exps_b, odd_b), cb in b.terms():
            if set(odd_a) & set(odd_b):
                continue
            mono = Monomial(tuple(map(sum, zip(exps_a, exps_b))), tuple(sorted(odd_a + odd_b)))
            out[mono] = out.get(mono, 0) + koszul_sign(odd_a + odd_b) * ca * cb
    return SuperPoly(a.d, out)


@pytest.mark.parametrize("d, max_degree, pairs, nontrivial", [(3, 3, 3969, 2960), (5, 2, 3721, 3231)])
def test_packed_product_equals_tuple_product_on_every_basis_pair(d, max_degree, pairs, nontrivial):
    # the product is bilinear, so agreement on every ordered pair of basis
    # monomials proves the packed kernel at this truncation; a product is
    # nonzero exactly when the odd index sets are disjoint
    basis = [SuperPoly(d, {m: 1}) for m in monomial_basis(d, max_degree)]
    products = [(a * b, _product(a, b)) for a in basis for b in basis]
    assert all(got == want for got, want in products)
    assert (len(products), sum(not got.is_zero() for got, _ in products)) == (pairs, nontrivial)


def _divergence(p):
    out = SuperPoly.zero(p.d)
    for i in range(1, p.d + 1):
        out = out + p.d_odd(i).d_even(i)
    return out


def _euler_contraction(w):
    out = SuperPoly.zero(w.d)
    for i in range(1, w.d + 1):
        out = out + SuperPoly.x(w.d, i) * w.d_odd(i)
    return out


def _de_rham(w):
    out = SuperPoly.zero(w.d)
    for i in range(1, w.d + 1):
        out = out + SuperPoly.xi(w.d, i) * w.d_even(i)
    return out


def _transport(p, inverse):
    # on Monomial tuples: xi_S -> koszul_sign(S + S^c) xi_(S^c), or
    # koszul_sign(S^c + S) when inverse
    out = {}
    for (exps, odd), c in p.terms():
        comp = tuple(i for i in range(1, p.d + 1) if i not in odd)
        out[Monomial(exps, comp)] = koszul_sign(comp + odd if inverse else odd + comp) * c
    return SuperPoly(p.d, out)


def _vee_omega(mu):
    return _transport(mu, False)


def _vee_omega_inv(w):
    return _transport(w, True)


def _bidegree_components(p):
    out = {}
    for m, c in p.terms():
        key = (sum(m.exps), m.xi_degree)
        out[key] = out.get(key, SuperPoly.zero(p.d)) + SuperPoly(p.d, {m: c})
    return out


def _contraction_K(mu):
    out = SuperPoly.zero(mu.d)
    for k, comp in mu.xi_components().items():
        acc = SuperPoly.zero(mu.d)
        for (q, p), piece in _bidegree_components(_vee_omega(comp)).items():
            if p + q:
                acc = acc + _euler_contraction(piece).scale(Fraction(1, p + q))
        out = out + _vee_omega_inv(acc).scale(conventions.euler_homotopy_sign(k))
    return out


def _symmetric_bracket(mu, nu):
    out = SuperPoly.zero(mu.d)
    for k, comp in mu.xi_components().items():
        out = (out + _divergence(comp * nu) - _divergence(comp) * nu
               - (comp * _divergence(nu)).scale(-1 if k & 1 else 1))
    return out


def _schouten(mu, nu):
    out = SuperPoly.zero(mu.d)
    for k, comp in mu.xi_components().items():
        out = out + _symmetric_bracket(comp, nu).scale(-1 if (k - 1) & 1 else 1)
    return out


def _divergence_via_transport(mu):
    out = SuperPoly.zero(mu.d)
    for comp in mu.xi_components().values():
        out = out + _vee_omega_inv(_de_rham(_vee_omega(comp)))
    return out


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_fused_operators_match_composites(d):
    for seed in range(0, 600, 20):
        mu, nu = _mixed(d, seed), _mixed(d, seed + 10)
        assert pvcalc.divergence(mu) == _divergence(mu)
        assert pvcalc.euler_contraction(mu) == _euler_contraction(mu)
        assert pvcalc.de_rham(mu) == _de_rham(mu)
        assert pvcalc.divergence_via_transport(mu) == _divergence_via_transport(mu)
        assert contraction_K(mu) == _contraction_K(mu)
        assert pvcalc.symmetric_bracket(mu, nu) == _symmetric_bracket(mu, nu)
        assert pvcalc.schouten(mu, nu) == _schouten(mu, nu)


@pytest.mark.parametrize("d, max_degree, pairs, nontrivial", [(3, 3, 3969, 2042), (4, 2, 1681, 520)])
def test_bracket_kernel_equals_composite_on_every_basis_pair(d, max_degree, pairs, nontrivial):
    # the bracket is bilinear, so agreement on every ordered pair of basis
    # monomials proves the kernel at this truncation
    basis = [SuperPoly(d, {m: 1}) for m in monomial_basis(d, max_degree)]
    brackets = [(pvcalc.symmetric_bracket(a, b), _symmetric_bracket(a, b)) for a in basis for b in basis]
    assert all(got == want for got, want in brackets)
    assert (len(brackets), sum(not got.is_zero() for got, _ in brackets)) == (pairs, nontrivial)


BASIS_SIZES = [(1, 9), (2, 41), (3, 129), (4, 321), (5, 681)]


@pytest.mark.parametrize("d, size", BASIS_SIZES)
def test_divergence_and_K_equal_composites_on_every_basis_monomial(d, size):
    # both operators are linear, so agreement on every basis monomial
    # proves the kernels at this truncation
    basis = [SuperPoly(d, {m: 1}) for m in monomial_basis(d, 4)]
    assert len(basis) == size
    for p in basis:
        assert pvcalc.divergence(p) == _divergence(p)
        assert contraction_K(p) == _contraction_K(p)


@pytest.mark.parametrize("d, size", BASIS_SIZES)
def test_de_rham_euler_and_transports_equal_references_on_every_basis_monomial(d, size):
    # the other modes of the index-operator kernel and both directions of
    # the complement kernel, certified the same way
    basis = [SuperPoly(d, {m: 1}) for m in monomial_basis(d, 4)]
    assert len(basis) == size
    for p in basis:
        assert pvcalc.de_rham(p) == _de_rham(p)
        assert pvcalc.euler_contraction(p) == _euler_contraction(p)
        assert pvcalc.vee_omega(p) == _vee_omega(p)
        assert pvcalc.vee_omega_inv(p) == _vee_omega_inv(p)
        assert pvcalc.divergence_via_transport(p) == _divergence_via_transport(p)


def _apply(field, g):
    out = SuperPoly.zero(field.d)
    for i in range(1, field.d + 1):
        out = out + field.mu_x[i - 1] * g.d_even(i) + field.mu_xi[i - 1] * g.d_odd(i)
    return out


def _vf_bracket(a, b):
    # the operator commutator, read off its action on the coordinates
    d = a.d
    sign = -1 if a.parity() & b.parity() else 1

    def comm(g):
        return _apply(a, _apply(b, g)) - _apply(b, _apply(a, g)).scale(sign)

    return SuperVectorField(d, tuple(comm(SuperPoly.x(d, i)) for i in range(1, d + 1)),
                            tuple(comm(SuperPoly.xi(d, i)) for i in range(1, d + 1)))


@pytest.mark.parametrize("d, pairs, nontrivial", [(3, 625, 216), (4, 1681, 512)])
def test_vf_bracket_equals_commutator_on_every_hamiltonian_basis_pair(d, pairs, nontrivial):
    # the bracket is bilinear, so agreement on every ordered pair of
    # Hamiltonian fields of basis monomials proves it at this truncation
    basis = [SuperPoly(d, {m: 1}) for m in monomial_basis(d, 2)]
    fields = [hamiltonian_vf(f) for f in basis]
    assert all(a.apply(g) == _apply(a, g) for a in fields for g in basis)
    brackets = [(vf_bracket(a, b), _vf_bracket(a, b)) for a in fields for b in fields]
    assert all(got == want for got, want in brackets)
    count = sum(any(not c.is_zero() for c in got.mu_x + got.mu_xi) for got, _ in brackets)
    assert (len(brackets), count) == (pairs, nontrivial)


def _rational_field(d, parity, seed):
    """A field of the given parity whose 2d coefficients carry different
    denominators: a coefficient on d/dx_i has the field's parity, one on
    d/dxi_i the opposite."""
    def coefficient(i, p):
        draw = random_poly(d, 2, xi_degree_filter=range(p, d + 1, 2), seed=seed + i, n_terms=3)
        return draw.scale(Fraction(1 + i % 3, 2 + i))

    return SuperVectorField(d, tuple(coefficient(i, parity) for i in range(d)),
                            tuple(coefficient(d + i, 1 - parity) for i in range(d)))


@pytest.mark.parametrize("pa, pb", [(1, 1), (1, 0), (0, 1), (0, 0)])
def test_vf_bracket_and_apply_equal_references_over_different_denominators(pa, pb):
    # the kernel brings each field's coefficients over their lcm and each
    # output over the lcm of both jobs' denominators
    d = 3
    for seed in range(0, 60, 10):
        a, b = _rational_field(d, pa, seed), _rational_field(d, pb, seed + 100)
        assert (a.parity(), b.parity()) == (pa, pb)
        assert all(len({c._den for c in f.mu_x + f.mu_xi}) > 2 for f in (a, b))
        g = _mixed(d, seed).scale(Fraction(3, 7))
        assert a.apply(g) == _apply(a, g)
        got = vf_bracket(a, b)
        assert got == _vf_bracket(a, b)
        assert any(c._den > 1 for c in got.mu_x + got.mu_xi)


def test_vf_bracket_and_apply_of_the_zero_field():
    d = 3
    zero = SuperVectorField.zero(d)
    for parity in (0, 1):
        a = _rational_field(d, parity, 7)
        assert zero.apply(_mixed(d, 7)).is_zero()
        assert vf_bracket(zero, a) == vf_bracket(a, zero) == zero == _vf_bracket(a, zero)


def test_vee_omega_round_trip():
    for d in range(2, 6):
        for seed in range(10):
            mu = _mixed(d, seed)
            assert pvcalc.vee_omega_inv(pvcalc.vee_omega(mu)) == mu


def test_c1_pairing_and_act_h_match_component_loops():
    for seed in range(0, 600, 20):
        f, g = _mixed(3, seed), _mixed(3, seed + 10)
        want = Fraction(0)
        for k, comp in f.xi_components().items():
            decalage = -1 if (k - 1) & 1 else 1
            want += conventions.EXT_C1_SIGN * decalage * pvcalc.top_constant_pairing(comp, g)
        assert c1_pairing(f, g) == want
        weighted = SuperPoly.zero(3)
        for s, comp in f.xi_components().items():
            weighted = weighted + comp.scale(s - 1)
        assert act_h(ExtElement(f, 1, 2)) == ExtElement(weighted, 1, -2)


def test_scale_by_xi_degree_drops_zero_parts():
    p = SuperPoly.const(3, 2) + SuperPoly.xi(3, 1) + SuperPoly.xi(3, 1) * SuperPoly.xi(3, 2)
    assert p.scale_by_xi_degree(lambda k: k - 1) == SuperPoly.const(3, -2) + SuperPoly.xi(3, 1) * SuperPoly.xi(3, 2)
