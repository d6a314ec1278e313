import sys
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import pytest

from polyvec import superpoly
from polyvec.superpoly import (
    EXP_CAP,
    Monomial,
    SuperPoly,
    key_layout,
    koszul_sign,
    monomial_basis,
    pack,
    random_poly,
    unpack,
)


def xi(d, i):
    return SuperPoly.xi(d, i)


def x(d, i):
    return SuperPoly.x(d, i)


def test_product_koszul_sign():
    d = 2
    assert xi(d, 1) * xi(d, 2) == SuperPoly.monomial(d, (0, 0), (1, 2))
    assert xi(d, 2) * xi(d, 1) == SuperPoly.monomial(d, (0, 0), (1, 2), -1)


def test_koszul_sign_is_transposition_parity():
    # sort by adjacent transpositions and count them
    for n in range(6):
        for perm in permutations(range(n)):
            items, swaps = list(perm), 0
            for end in range(n - 1, 0, -1):
                for i in range(end):
                    if items[i] > items[i + 1]:
                        items[i], items[i + 1] = items[i + 1], items[i]
                        swaps += 1
            assert koszul_sign(perm) == (-1) ** swaps, perm


def test_odd_square_zero():
    d = 2
    assert (xi(d, 1) * xi(d, 1)).is_zero()


def test_distributivity():
    d = 2
    p = x(d, 1) + xi(d, 1) * xi(d, 2)
    assert p * x(d, 1) == x(d, 1) * x(d, 1) + x(d, 1) * xi(d, 1) * xi(d, 2)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        x(2, 1) * x(3, 1)


def test_d_even():
    d = 2
    assert (x(d, 1) * x(d, 1)).d_even(1) == x(d, 1).scale(2)
    assert x(d, 1).d_even(2).is_zero()
    assert (x(d, 1) * xi(d, 1) * xi(d, 2)).d_even(1) == xi(d, 1) * xi(d, 2)


def test_d_odd_left_convention():
    d = 2
    assert (xi(d, 1) * xi(d, 2)).d_odd(1) == xi(d, 2)
    # anticommute xi2 past xi1 first: one sign
    assert (xi(d, 1) * xi(d, 2)).d_odd(2) == -xi(d, 1)
    assert x(d, 1).d_odd(1).is_zero()


def test_index_out_of_range():
    with pytest.raises(IndexError):
        x(2, 1).d_even(3)
    with pytest.raises(IndexError):
        x(2, 1).d_odd(0)


def test_constant_term():
    d = 2
    p = SuperPoly.const(d, 3) + x(d, 1) * xi(d, 1)
    assert p.constant_term() == 3
    assert (xi(d, 1) * xi(d, 2)).constant_term() == 0
    assert SuperPoly.zero(d).constant_term() == 0


def test_homogeneous_components_principal():
    d = 2
    comps = (xi(d, 1) * xi(d, 2)).principal_components()
    assert set(comps) == {0}
    comps = x(d, 1).principal_components()
    assert set(comps) == {-1}


def test_homogeneous_components_xi_degree():
    d = 2
    p = x(d, 1) * x(d, 1) * xi(d, 1) + xi(d, 2)
    comps = p.xi_components()
    assert set(comps) == {1} and comps[1] == p


def test_homogeneous_components_sum_to_input():
    p = random_poly(3, 4, seed=5, n_terms=6)
    for comps in (p.xi_components(), p.principal_components()):
        assert len(comps) > 1
        total = SuperPoly.zero(3)
        for comp in comps.values():
            total = total + comp
        assert total == p


def test_random_poly_deterministic():
    a = random_poly(2, 2, seed=7)
    b = random_poly(2, 2, seed=7)
    assert a == b
    assert a != random_poly(2, 2, seed=8) or a.is_zero()


def test_random_poly_degree_zero_is_constant():
    p = random_poly(1, 0, seed=3)
    assert p.total_degree() == 0


def test_random_poly_filter():
    p = random_poly(3, 1, xi_degree_filter=1, seed=1)
    assert p.xi_degrees() == {1}
    assert all(sum(m.exps) == 0 for m, _ in p.terms())


def test_campaign_families_draw_independent_samples(monkeypatch):
    # homotopy is left out: its negative control redraws the verified
    # samples on purpose, to show that they catch a corrupted homotopy
    from polyvec import complexes, sho, suites

    drawn = []

    def recording(d, max_total_degree, xi_degree_filter=None, seed=0, n_terms=4):
        drawn.append((xi_degree_filter, seed))
        return random_poly(d, max_total_degree, xi_degree_filter, seed, n_terms)

    for module in (suites, sho, complexes):
        monkeypatch.setattr(module, "random_poly", recording)
    default = suites.CampaignConfig(d=3, max_degree=4, trials=100, seed=42)
    potential = suites.CampaignConfig(d=5, variant=complexes.Variant.potential(2), max_degree=3,
                                      trials=100, seed=42)
    repeats = {}
    for cfg, name in [(default, name) for name in ("algebra", "sho", "contraction", "cocycles")] + [
            (potential, "jacobi")]:
        drawn.clear()
        suites.SUITES[name](cfg)
        assert drawn
        repeats[name] = len(drawn) - len(set(drawn))
    assert repeats == dict.fromkeys(repeats, 0)


def test_homog_xi_degree_is_independent_of_its_monomials():
    # the xi-degree is chosen from the draw's seed, not from the stream
    # that then picks the monomials
    from polyvec.suites import _homog

    firsts = set()
    for seed in range(2000):
        p = _homog(3, 4, seed)
        if not p.is_zero() and p.xi_degree() == 0:
            firsts.add(next(iter(p._terms)))
    assert len(monomial_basis(3, 4, {0})) == 35
    assert len(firsts) >= 30


def test_canonical_zero():
    p = random_poly(3, 3, seed=11)
    assert not (p + (-p))._terms


@pytest.mark.parametrize("seed", range(12))
def test_supercommutativity_and_associativity(seed):
    d = 3
    a = random_poly(d, 3, xi_degree_filter=seed % 4, seed=seed)
    b = random_poly(d, 3, xi_degree_filter=(seed + 1) % 4, seed=seed + 50)
    c = random_poly(d, 3, seed=seed + 100)
    sign = -1 if (a.parity() & b.parity()) else 1
    assert a * b == (b * a).scale(sign)
    assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("seed", range(10))
def test_graded_leibniz_and_anticommutation(seed):
    d = 3
    a = random_poly(d, 3, xi_degree_filter=seed % 4, seed=seed + 7)
    b = random_poly(d, 3, seed=seed + 77)
    i = 1 + seed % d
    j = 1 + (seed + 1) % d
    lhs = (a * b).d_odd(i)
    rhs = a.d_odd(i) * b + (a * b.d_odd(i)).scale(-1 if a.parity() else 1)
    assert lhs == rhs
    p = random_poly(d, 4, seed=seed)
    assert p.d_odd(i).d_odd(j) == -(p.d_odd(j).d_odd(i))
    assert p.d_even(i).d_even(j) == p.d_even(j).d_even(i)
    assert p.d_even(i).d_odd(j) == p.d_odd(j).d_even(i)


def test_str_canonical_example():
    d = 2
    p = (SuperPoly.const(d, 3) + SuperPoly.monomial(d, (2, 0), (1, 2), 2) - x(d, 2))
    assert str(p) == "3 - x2 + 2*x1^2*xi1*xi2"


def test_parse_round_trip():
    for seed in range(15):
        p = random_poly(3, 4, seed=seed, n_terms=5)
        assert SuperPoly.parse(3, str(p)) == p
    assert SuperPoly.parse(2, "0").is_zero()
    assert SuperPoly.parse(2, "3 + 2*x1^2*xi1*xi2 - x2") == (
        SuperPoly.const(2, 3) + SuperPoly.monomial(2, (2, 0), (1, 2), 2) - x(2, 2))
    assert SuperPoly.parse(2, "-1/2*xi1") == xi(2, 1).scale(Fraction(-1, 2))


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        SuperPoly.parse(2, "x1 + y2")
    with pytest.raises(ValueError):
        SuperPoly.parse(2, "xi2*xi1")


@pytest.mark.parametrize("text", ["++x1", "x1-", "-", "1/0*xi1"])
def test_parse_rejects_malformed_signs_and_zero_denominators(text):
    with pytest.raises(ValueError):
        SuperPoly.parse(2, text)


@pytest.mark.parametrize("text", ["x0*xi1", "x3", "xi0", "xi3*x1"])
def test_parse_rejects_indices_outside_the_dimension(text):
    with pytest.raises(ValueError):
        SuperPoly.parse(2, text)


def test_monomial_basis_counts():
    # d=1, degree <= 2: 1, x, x^2, xi, x xi
    assert len(monomial_basis(1, 2)) == 5
    assert all(m.degree <= 3 for m in monomial_basis(2, 3))


def _stored_types_ok(p):
    """The storage invariant: nonzero int numerators over one denominator
    _den >= 1 sharing no factor with all of them, and _den = 1 for zero."""
    numerators = list(p._terms.values())
    return (all(type(c) is int and c for c in numerators)
            and type(p._den) is int and p._den >= 1
            and gcd(p._den, *numerators) == 1
            and (numerators or p._den == 1))


def test_integral_coefficients_are_stored_as_int():
    from polyvec.contraction import contraction_K
    from polyvec.pvcalc import euler_contraction

    half = x(3, 1).scale(Fraction(1, 2))
    product = half * SuperPoly.const(3, 2)
    assert list(product.terms()) == [(Monomial((1, 0, 0), ()), 1)]
    assert type(product.coefficient(Monomial((1, 0, 0), ()))) is int
    results = [
        product,
        half + half,
        x(3, 1).scale(Fraction(4, 2)),
        xi(3, 2).scale(Fraction(2, 3)) + x(3, 1),
        contraction_K(SuperPoly.const(1, 1)),
        contraction_K(x(1, 1).scale(2)),
        SuperPoly.parse(2, "-4/2*x1 + 1/3*xi1 + 5"),
        random_poly(3, 4, seed=9, n_terms=6),
    ]
    for p in results:
        assert not p.is_zero() and _stored_types_ok(p), (p._terms, p._den)
        assert _stored_types_ok(p - p) and (p - p)._den == 1
    assert any(type(c) is Fraction and c.denominator != 1 for _, c in results[3].terms())


def test_fraction_and_int_coefficients_are_interchangeable():
    m = Monomial((1, 0), (2,))
    a, b = SuperPoly(2, {m: Fraction(2)}), SuperPoly(2, {m: 2})
    assert a == b and hash(a) == hash(b) and str(a) == str(b) == "2*x1*xi2"
    assert type(a.coefficient(m)) is int
    assert SuperPoly(2, {m: Fraction(0)}).is_zero()


def test_zero_defaults_are_int():
    p = x(3, 1)
    assert type(p.coefficient(Monomial((0, 0, 0), (1,)))) is int
    assert type(p.constant_term()) is int and type(p.top_constant()) is int


def test_str_parse_round_trip_mixed_coefficients():
    p = (SuperPoly.const(3, 3) + x(3, 2).scale(Fraction(-1, 2))
         + SuperPoly.monomial(3, (1, 0, 2), (1, 3), Fraction(7, 3))
         + SuperPoly.monomial(3, (0, 0, 0), (1, 2, 3), -4))
    text = str(p)
    assert text == "3 - 1/2*x2 - 4*xi1*xi2*xi3 + 7/3*x1*x3^2*xi1*xi3"
    q = SuperPoly.parse(3, text)
    assert q == p and str(q) == text and _stored_types_ok(q)


def test_monomial_basis_is_memoized_and_immutable():
    first = monomial_basis(3, 3, [2, 0])
    assert isinstance(first, tuple)
    assert monomial_basis(3, 3, {0, 2}) is first
    assert monomial_basis(3, 3, (2, 0, 2, 7)) == first
    assert monomial_basis(3, 3) == monomial_basis(3, 3, range(4))
    with pytest.raises(AttributeError):
        first.append(Monomial((9, 9, 9), ()))
    with pytest.raises(TypeError):
        first[0] = Monomial((9, 9, 9), ())
    # 20 x-monomials of degree <= 3, and 3 xi-pairs times 4 of degree <= 1
    assert len(first) == 32 and {m.xi_degree for m in first} == {0, 2}
    # the memo holds one exponent tuple per xi-degree and vector, shared
    # by every odd set: 252 + 126 + 56 + 21 + 6 + 1 at d = 5, degree 5
    basis = monomial_basis(5, 5)
    assert (len(basis), len({id(m.exps) for m in basis})) == (1683, 462)
    assert list(first) == sorted(first, key=Monomial.sort_key)


@pytest.mark.parametrize("xi_degree, seed, text", [
    (0, 1, "-x3^2 + x1*x3 + 2*x1*x2 + x1*x2^3"),
    (1, 7, "-3*x3*xi1 - 2*x2^2*xi3 + 3*x1*x2*xi2 + 2*x1^2*x3*xi2"),
    (2, 42, "3*xi1*xi2 - 2*x2*xi1*xi3 - 2*x2*xi2*xi3 - 3*x2^2*xi2*xi3"),
    (3, 2024, "x1*xi1*xi2*xi3"),
    (None, 5, "xi1*xi2 + 3*x3*xi1*xi2*xi3 + 3*x3^2*xi1*xi3 + 3*x1*xi1*xi2*xi3"),
])
def test_random_poly_draws_are_pinned(xi_degree, seed, text):
    # the monomial basis is drawn from in the same canonical order, so
    # these samples must not move
    for _ in range(2):
        assert str(random_poly(3, 4, xi_degree, seed=seed)) == text


def test_homog_draws_respect_the_degree_budget():
    # an xi-degree above the degree budget leaves an empty basis, which
    # would make random_poly return 0 and the sampled check vacuous
    from polyvec.suites import _homog

    assert sum(_homog(5, 3, s).is_zero() for s in range(300)) == 0


def test_parity_and_xi_degree_errors():
    d = 2
    p = x(d, 1) + xi(d, 1)
    with pytest.raises(ValueError):
        p.parity()
    with pytest.raises(ValueError):
        p.xi_degree()


# -- the packed key layout -----------------------------------------------


@pytest.mark.parametrize("d", range(1, 8))
def test_pack_unpack_round_trip_on_every_basis_monomial(d):
    basis = monomial_basis(d, 4)
    keys = [pack(d, m) for m in basis]
    assert [unpack(d, k) for k in keys] == list(basis)
    assert len(set(keys)) == len(keys)
    assert all(SuperPoly(d, {m: 1}) == SuperPoly.monomial(d, *m) for m in basis)
    assert all(list(SuperPoly(d, {m: 2}).terms()) == [(m, 2)] for m in basis)


@pytest.mark.parametrize("d", range(1, 8))
def test_sign_table_agrees_with_koszul_sign_on_every_disjoint_pair(d):
    table = key_layout(d).sign_table
    assert len(table) == 2 ** d
    # the definition, read at the bits of b too (d/dxi_i takes its sign there)
    assert all((table[b] >> i) & 1 == (b & ((1 << i) - 1)).bit_count() & 1
               for b in range(2 ** d) for i in range(d))
    subsets = [s for k in range(d + 1) for s in combinations(range(1, d + 1), k)]
    mask = {s: sum(1 << (i - 1) for i in s) for s in subsets}
    pairs = 0
    for a in subsets:
        for b in subsets:
            if set(a) & set(b):
                continue
            pairs += 1
            sign = -1 if (mask[a] & table[mask[b]]).bit_count() & 1 else 1
            assert sign == koszul_sign(a + b), (a, b)
    assert pairs == 3 ** d


def test_products_past_the_exponent_cap_raise():
    d = 3
    top = SuperPoly.monomial(d, (EXP_CAP, 0, 0), ())
    assert (top * SuperPoly.x(d, 2)).coefficient(Monomial((EXP_CAP, 1, 0), ())) == 1
    with pytest.raises(OverflowError):
        top * SuperPoly.x(d, 1)
    with pytest.raises(OverflowError):
        SuperPoly.monomial(d, (64, 0, 0), ()) * SuperPoly.monomial(d, (64, 0, 0), (1,))
    from polyvec.contraction import contraction_K
    from polyvec.pvcalc import euler_contraction, symmetric_bracket

    # the bracket kernel: d_xi_1(x1^100 xi1) d_x_1(x1^n) = n x1^(99 + n)
    mu = SuperPoly.monomial(d, (100, 0, 0), (1,))
    with pytest.raises(OverflowError):
        symmetric_bracket(mu, SuperPoly.monomial(d, (60, 0, 0), ()))
    at_cap = symmetric_bracket(mu, SuperPoly.monomial(d, (EXP_CAP - 99, 0, 0), ()))
    assert at_cap == SuperPoly.monomial(d, (EXP_CAP, 0, 0), (), EXP_CAP - 99)
    from polyvec.sho import SuperVectorField, vf_bracket

    # the vector-field kernel: [x1^100 d/dx1, x1^n d/dx1] = (n - 100) x1^(99 + n) d/dx1
    zero = SuperPoly.zero(d)

    def along_x1(p):
        return SuperVectorField(d, (p, zero, zero), (zero,) * d)

    a = along_x1(SuperPoly.monomial(d, (100, 0, 0), ()))
    with pytest.raises(OverflowError):
        vf_bracket(a, along_x1(SuperPoly.monomial(d, (60, 0, 0), ())))
    at_cap = vf_bracket(a, along_x1(SuperPoly.monomial(d, (EXP_CAP - 99, 0, 0), ())))
    assert at_cap == along_x1(SuperPoly.monomial(d, (EXP_CAP, 0, 0), (), EXP_CAP - 199))
    assert not contraction_K(SuperPoly.monomial(d, (EXP_CAP - 1, 0, 0), ())).is_zero()
    with pytest.raises(OverflowError):
        contraction_K(SuperPoly.monomial(d, (EXP_CAP, 0, 0), ()))
    with pytest.raises(OverflowError):
        euler_contraction(SuperPoly.monomial(d, (EXP_CAP, 0, 0), (1,)))


def test_constructors_reject_an_exponent_past_the_cap():
    assert str(SuperPoly.parse(2, "x1^127*xi2")) == "x1^127*xi2"
    with pytest.raises(OverflowError):
        SuperPoly.monomial(2, (128, 0), ())
    with pytest.raises(OverflowError):
        SuperPoly.parse(2, "x1^128")
    with pytest.raises(OverflowError):
        SuperPoly.parse(2, "x1^100*x1^28*xi1")
    with pytest.raises(ValueError):
        SuperPoly.monomial(2, (1, 0), (3,))
    with pytest.raises(ValueError):
        SuperPoly(2, {Monomial((1, 0), (2, 1)): 1})


@pytest.mark.parametrize("b, bit", [(b, bit) for b in range(8) for bit in range(3)])
def test_a_flipped_sign_table_entry_fails_the_derivation_check(monkeypatch, b, bit):
    # negative control: every single wrong Koszul sign of the d = 3 layout
    # reaches algebra.d3.derivation_and_second_order
    from polyvec.suites import CampaignConfig, suite_algebra

    cfg = CampaignConfig(d=3, max_degree=3, trials=10, seed=1, checks=("algebra",))
    check = "algebra.d3.derivation_and_second_order"
    assert check not in {r.check_id for r in suite_algebra(cfg).failures()}
    good = key_layout(3)
    table = list(good.sign_table)
    table[b] ^= 1 << bit
    bad = good._replace(sign_table=tuple(table))
    original = superpoly.key_layout
    for module in list(sys.modules.values()):
        if module and module.__name__.startswith("polyvec") and getattr(module, "key_layout", None) is original:
            monkeypatch.setattr(module, "key_layout", lambda n: bad if n == 3 else original(n))
    assert check in {r.check_id for r in suite_algebra(cfg).failures()}


@pytest.mark.parametrize("d", [17, 64])
def test_key_layout_rejects_a_dimension_above_the_maximum(d):
    # called only where MAX_D rejects d: a 2^d-entry sign table is never built
    assert d > superpoly.MAX_D
    with pytest.raises(ValueError, match="maximum"):
        key_layout(d)
