"""The integer-numerator kernels against a plain Fraction reference.

A SuperPoly stores int numerators over one common denominator.  Every
operation below is recomputed here on dicts Monomial -> Fraction read
from the public terms(), by the textbook definitions (the tuple product
with its Koszul sign, Delta as sum_i d/dx_i d/dxi_i, the Schouten
bracket from Delta, K by its closed form with Fraction weights), and the
two must agree on inputs that carry denominators: scaled samples,
outputs of contraction_K and divergence-free parts.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from polyvec import conventions, pvcalc
from polyvec.contraction import contraction_K
from polyvec.pvcalc import divergence_free_part
from polyvec.sho import hamiltonian_vf, super_divergence
from polyvec.superpoly import Monomial, SuperPoly, koszul_sign, random_poly, term_sum

SEEDS = range(200)


def _inputs(seed):
    """Three elements of dimension 3..5 with denominators of three kinds."""
    d = 3 + seed % 3
    rng = random.Random(seed)
    scaled = random_poly(d, 3, seed=seed, n_terms=4).scale(
        Fraction(rng.choice([-5, -1, 1, 2, 3]), rng.choice([2, 3, 4, 6, 9])))
    k_out = contraction_K(random_poly(d, 3, xi_degree_filter=rng.randrange(d), seed=seed + 1000, n_terms=4))
    free = divergence_free_part(random_poly(d, 3, seed=seed + 2000, n_terms=4))
    return d, (scaled, k_out, free)


def _pairs(seed):
    d, (a, b, c) = _inputs(seed)
    return d, ((a, b), (b, c), (c, a), (b, b))


# -- the reference: dicts Monomial -> Fraction -------------------------


def ref(p):
    return {m: Fraction(c) for m, c in p.terms()}


def clean(r):
    return {m: c for m, c in r.items() if c}


def ref_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return clean(out)


def ref_scale(a, value):
    return clean({m: value * c for m, c in a.items()})


def ref_mul(a, b):
    out = {}
    for (ea, oa), ca in a.items():
        for (eb, ob), cb in b.items():
            if set(oa) & set(ob):
                continue
            m = Monomial(tuple(x + y for x, y in zip(ea, eb)), tuple(sorted(oa + ob)))
            out[m] = out.get(m, 0) + koszul_sign(oa + ob) * ca * cb
    return clean(out)


def ref_d_odd(a, i):
    out = {}
    for (e, o), c in a.items():
        if i in o:
            pos = o.index(i)
            m = Monomial(e, o[:pos] + o[pos + 1:])
            out[m] = out.get(m, 0) + (-c if pos & 1 else c)
    return clean(out)


def ref_d_even(a, i):
    out = {}
    for (e, o), c in a.items():
        if e[i - 1]:
            m = Monomial(e[: i - 1] + (e[i - 1] - 1,) + e[i:], o)
            out[m] = out.get(m, 0) + e[i - 1] * c
    return clean(out)


def ref_divergence(a, d):
    out = {}
    for i in range(1, d + 1):
        out = ref_add(out, ref_d_even(ref_d_odd(a, i), i))
    return out


def ref_components(a):
    out = {}
    for m, c in a.items():
        out.setdefault(len(m.odd), {})[m] = c
    return out


def ref_symmetric_bracket(a, b, d):
    """Delta(mu nu) - (Delta mu) nu - (-1)^|mu| mu Delta nu, per xi-degree of mu."""
    out = {}
    for k, comp in ref_components(a).items():
        out = ref_add(out, ref_divergence(ref_mul(comp, b), d))
        out = ref_add(out, ref_mul(ref_divergence(comp, d), b), -1)
        out = ref_add(out, ref_mul(comp, ref_divergence(b, d)), 1 if k & 1 else -1)
    return out


def ref_schouten(a, b, d):
    out = {}
    for k, comp in ref_components(a).items():
        out = ref_add(out, ref_symmetric_bracket(comp, b, d), -1 if (k - 1) & 1 else 1)
    return out


def ref_K(a, d):
    out = {}
    for (e, o), c in a.items():
        k = len(o)
        weight = sum(e) + d - k
        if not weight:
            continue
        s = conventions.euler_homotopy_sign(k) * (-1) ** k
        for j in range(1, d + 1):
            if j in o:
                continue
            m = Monomial(e[: j - 1] + (e[j - 1] + 1,) + e[j:], tuple(sorted((j,) + o)))
            out[m] = out.get(m, 0) + Fraction(s * koszul_sign((j,) + o), weight) * c
    return clean(out)


def ref_top_pairing(a, b, d):
    return ref_mul(a, b).get(Monomial((0,) * d, tuple(range(1, d + 1))), 0)


def ref_hamiltonian(f, d, parity):
    """(mu_x, mu_xi) of Ham(f): mu_xi_i = df/dx_i, mu_x_i = (-1)^|f| df/dxi_i."""
    sign = -1 if parity else 1
    return ([ref_scale(ref_d_odd(f, i), sign) for i in range(1, d + 1)],
            [ref_d_even(f, i) for i in range(1, d + 1)])


def ref_apply(mu_x, mu_xi, g, d):
    out = {}
    for i in range(1, d + 1):
        out = ref_add(out, ref_mul(mu_x[i - 1], ref_d_even(g, i)))
        out = ref_add(out, ref_mul(mu_xi[i - 1], ref_d_odd(g, i)))
    return out


# -- equivalence -------------------------------------------------------


def _canonical(p):
    nums = list(p._terms.values())
    return (all(type(c) is int and c for c in nums) and p._den >= 1
            and gcd(p._den, *nums) == 1 and (nums or p._den == 1))


def _agree(got, want):
    return _canonical(got) and ref(got) == want


def test_inputs_carry_denominators():
    dens = [[p._den for p in _inputs(seed)[1]] for seed in SEEDS]
    for kind in range(3):
        assert sum(row[kind] > 1 for row in dens) >= 100, kind


BINARY = {
    "add": (lambda a, b: a + b, lambda a, b, d: ref_add(a, b)),
    "sub": (lambda a, b: a - b, lambda a, b, d: ref_add(a, b, -1)),
    "mul": (lambda a, b: a * b, lambda a, b, d: ref_mul(a, b)),
    "symmetric_bracket": (pvcalc.symmetric_bracket, ref_symmetric_bracket),
    "schouten": (pvcalc.schouten, ref_schouten),
    "term_sum": (lambda a, b: term_sum(a.d, [(a._terms.items(), a._den), (b._terms.items(), b._den),
                                             (a._terms.items(), a._den)]),
                 lambda a, b, d: ref_add(ref_scale(a, 2), b)),
}


@pytest.mark.parametrize("op", sorted(BINARY))
def test_binary_operations_match_the_fraction_reference(op):
    kernel, reference = BINARY[op]
    for seed in SEEDS:
        d, pairs = _pairs(seed)
        for a, b in pairs:
            assert _agree(kernel(a, b), reference(ref(a), ref(b), d)), (op, seed, str(a), str(b))


def test_unary_operations_match_the_fraction_reference():
    for seed in SEEDS:
        d, inputs = _inputs(seed)
        for p in inputs:
            r = ref(p)
            for value in (Fraction(3, 4), Fraction(-6, 5), 2, -1):
                assert _agree(p.scale(value), ref_scale(r, value)), (seed, str(p), value)
            assert _agree(-p, ref_scale(r, -1)), (seed, str(p))
            assert _agree(pvcalc.divergence(p), ref_divergence(r, d)), (seed, str(p))
            assert _agree(contraction_K(p), ref_K(r, d)), (seed, str(p))


def _x_constants(d):
    """An x-constant element with a rational coefficient on every odd mask,
    so that every x-constant term of the other factor is paired."""
    masks = [odd for k in range(d + 1) for odd in combinations(range(1, d + 1), k)]
    return SuperPoly(d, {Monomial((0,) * d, odd): Fraction(i + 1, 2 + i % 5) for i, odd in enumerate(masks)})


def test_top_constant_pairing_matches_the_fraction_reference():
    nonzero = 0
    for seed in SEEDS:
        d, pairs = _pairs(seed)
        for a, b in pairs:
            for other in (b, b + _x_constants(d)):
                got = pvcalc.top_constant_pairing(a, other)
                want = ref_top_pairing(ref(a), ref(other), d)
                assert got == want and (type(got) is int or got.denominator != 1), (seed, str(a), str(other))
                nonzero += got != 0
    assert nonzero >= 150


def test_vector_fields_match_the_fraction_reference():
    for seed in SEEDS:
        d, (a, b, c) = _inputs(seed)
        for f, g in ((a.xi_component(1), b), (c.xi_component(2), a), (b.xi_component(2), c)):
            field = hamiltonian_vf(f)
            mu_x, mu_xi = ref_hamiltonian(ref(f), d, f.parity())
            assert all(_agree(got, want) for got, want in zip(field.mu_x, mu_x)), (seed, str(f))
            assert all(_agree(got, want) for got, want in zip(field.mu_xi, mu_xi)), (seed, str(f))
            assert _agree(field.apply(g), ref_apply(mu_x, mu_xi, ref(g), d)), (seed, str(f), str(g))
            # a field whose coefficients have different denominators
            h = f * SuperPoly.x(d, 1).scale(Fraction(1, 3))
            mixed = field.scale(Fraction(1, 2)) + hamiltonian_vf(h)
            h_x, h_xi = ref_hamiltonian(ref(h), d, f.parity())
            want_x = [ref_add(ref_scale(u, Fraction(1, 2)), v) for u, v in zip(mu_x, h_x)]
            want_xi = [ref_add(ref_scale(u, Fraction(1, 2)), v) for u, v in zip(mu_xi, h_xi)]
            assert _agree(mixed.apply(g), ref_apply(want_x, want_xi, ref(g), d)), (seed, str(f))
            want_div = {}
            for i in range(1, d + 1):
                want_div = ref_add(want_div, ref_d_even(want_x[i - 1], i))
                want_div = ref_add(want_div, ref_d_odd(want_xi[i - 1], i), 1 if mixed.parity() else -1)
            assert _agree(super_divergence(mixed), want_div), (seed, str(f))


def test_filters_reduce_a_common_factor_they_leave():
    # (xi1 + 2 x2)/2 filtered to its x-linear term is x2, stored over 1
    p = (SuperPoly.xi(2, 1) + SuperPoly.x(2, 2).scale(2)).scale(Fraction(1, 2))
    assert p._den == 2
    for part in (p.x_linear_part(), p.xi_component(0)):
        assert part == SuperPoly.x(2, 2) and part._den == 1
    assert p.x_constant_part() == SuperPoly.xi(2, 1).scale(Fraction(1, 2))
    for seed in SEEDS:
        d, inputs = _inputs(seed)
        for p in inputs:
            parts = [p.x_constant_part(), p.x_linear_part(), p.without_constant_and_top(),
                     *p.xi_components().values(), *p.principal_components().values()]
            for part in parts:
                assert _canonical(part) and part == SuperPoly(d, dict(part.terms())), (seed, str(p))


# -- canonical form ----------------------------------------------------


def test_one_value_built_two_ways_is_stored_once():
    for seed in SEEDS:
        d, inputs = _inputs(seed)
        for p in inputs:
            half = p.scale(Fraction(1, 2))
            for one, other in ((p.scale(Fraction(2, 6)), p.scale(Fraction(1, 3))),
                               (p.scale(2).scale(Fraction(1, 6)), p.scale(Fraction(1, 3))),
                               (half + half, p),
                               (SuperPoly.parse(d, str(p)), p),
                               (contraction_K(p.scale(3)).scale(Fraction(1, 3)), contraction_K(p))):
                assert one == other and hash(one) == hash(other) and str(one) == str(other), (seed, str(p))
                assert (one._terms, one._den) == (other._terms, other._den)
            assert (p - p)._den == 1 and (p - p) == SuperPoly.zero(d)


def test_an_unreduced_element_is_not_equal_to_its_value():
    # negative control: the same value stored as 2c / 2den without _of's
    # reduction compares unequal, so every kernel must build through _of
    for seed in SEEDS[:20]:
        _, (p, _, _) = _inputs(seed)
        unreduced = SuperPoly._trusted(p.d, {k: 2 * c for k, c in p._terms.items()}, 2 * p._den)
        assert list(unreduced.terms()) == list(p.terms())
        assert unreduced != p
        assert SuperPoly._of(p.d, dict(unreduced._terms), unreduced._den) == p
