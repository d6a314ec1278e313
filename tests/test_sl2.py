from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest

from polyvec import conventions, pvcalc
from polyvec.complexes import DescendantField, Variant
from polyvec.contraction import contraction_K
from polyvec.linf import minimal_model_structure
from polyvec.pvcalc import divergence_free_part
from polyvec import sl2
from polyvec.sho import (
    ExtElement,
    ext_bracket_d3,
    ext_element,
    levi_civita,
    random_sho_generator,
    sho_basis,
    verbatim_pairs,
)
from polyvec.sl2 import (
    _leibniz_failures,
    act_e,
    act_f,
    act_h,
    embed,
    equivariance_check_cocycle,
    equivariance_compare_theorem,
    extend_f,
    field_action,
    sl2_relations_check,
)
from polyvec.suites import CampaignConfig, run_campaign, suite_sl2
from polyvec.superpoly import SuperPoly, random_poly

POT2 = Variant.potential(2)
CENTER = [ExtElement(SuperPoly.zero(3), 1, 0), ExtElement(SuperPoly.zero(3), 0, 1)]


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
    from polyvec.sho import SuperVectorField, ham_generator

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
        assert -ham_generator(want_field) == got.gen
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


def _table_f(v):
    """Reference f on principal degrees -1, 0 and 1, by its three-branch
    table (each branch with sign -1):
      f(xi_i xi_j)                     = -eps_{ijk} x_k
      f(x_i xi_j xi_k), i,j,k distinct = -(1/2) eps_{ijk} x_i^2
      f(x_i xi_i xi_j - x_k xi_k xi_j) = -eps_{ijk} x_i x_k
    and zero on the other xi-degrees; f e1 = e2, f e2 = 0."""
    assert all(deg <= 1 for deg in v.gen.principal_components())
    gen = SuperPoly.zero(3)
    for mono, coeff in v.gen.xi_component(2).terms():
        a, b = mono.odd
        if sum(mono.exps) == 0:
            k = ({1, 2, 3} - {a, b}).pop()
            gen = gen - x(k).scale(levi_civita(a, b, k) * coeff)
            continue
        l = next(idx + 1 for idx, e in enumerate(mono.exps) if e)
        if l not in (a, b):
            gen = gen - (x(l) * x(l)).scale(Fraction(levi_civita(l, a, b), 2) * coeff)
        else:
            # divergence freeness pairs the diagonal terms x_i xi_i xi_j and
            # x_k xi_k xi_j with opposite coefficients, so each monomial
            # takes half of its difference's value
            j = b if l == a else a
            k = ({1, 2, 3} - {l, j}).pop()
            t = coeff if l == a else -coeff  # coefficient of x_l xi_l xi_j
            gen = gen - (x(l) * x(k)).scale(Fraction(levi_civita(l, j, k) * t, 2))
    return ExtElement(gen, 0, v.c1)


def test_act_f_equals_table_on_degree_one_basis():
    basis = [ext_element(g) for g in sho_basis(3, 1)]
    assert len(basis) == 54
    for v in basis + CENTER:
        assert act_f(v) == _table_f(v), str(v)


def test_act_f_is_derivation_on_degree_two_basis():
    elements = [ext_element(g) for g in sho_basis(3, 2)] + CENTER
    nontrivial = 0
    for a, b in combinations_with_replacement(elements, 2):
        lhs = act_f(ext_bracket_d3(a, b))
        assert lhs == ext_bracket_d3(act_f(a), b) + ext_bracket_d3(a, act_f(b)), (str(a), str(b))
        nontrivial += not lhs.is_zero()
    assert (len(elements), nontrivial) == (105, 670)


def test_potential_minimal_model_at_d3_is_kacs_extension():
    # through embed, the extension bracket is the binary bracket of the
    # d = 3 potential(2) minimal model up to the sign (-1)^((p+1)q), p and
    # q the xi-degrees of the generators
    b2 = minimal_model_structure(3, POT2).brackets[2]
    elements = [ext_element(g) for g in sho_basis(3, 1)] + CENTER
    pairs = list(combinations_with_replacement(elements, 2))
    nontrivial = 0
    for a, b in pairs:
        p, q = a.gen.xi_degree(), b.gen.xi_degree()
        lhs = embed(ext_bracket_d3(a, b))
        rhs = b2(embed(a), embed(b))
        assert lhs == (-rhs if (p + 1) * q % 2 else rhs), (str(a), str(b))
        nontrivial += not lhs.is_zero()
    assert (len(pairs), nontrivial) == (1596, 850)


def test_f_relations_on_degree_four_basis():
    basis = [ext_element(g) for g in sho_basis(3, 4)]
    assert len(basis) == 271
    for v in basis:
        assert act_e(act_f(v)) - act_f(act_e(v)) == act_h(v), str(v)
        assert act_h(act_f(v)) - act_f(act_h(v)) == act_f(v).scale(-2), str(v)


def test_extend_f_solver():
    # a principal-degree-2 element reached by e from degree 1
    v = ext_element(x(1) * x(1) * x(1))
    ev = act_e(v)
    out = extend_f(ev)
    assert out is not None
    # consistent with the operator relation [e, f] = h extended upward:
    # f(e(x1^3)) = e(f(x1^3)) - h(x1^3) = x1^3
    assert out.gen == x(1) * x(1) * x(1)
    # propagated through the derivation rule, f equals its closed form on
    # principal degree 2, and on the low degrees it starts from
    diagonal = divergence_free_part(x(1) * x(2) * xi(1) * xi(3))
    named = [ev, ext_element(x(2) * x(2) * xi(1) * xi(3)), ext_element(x(3) * x(3) * xi(1) * xi(2)),
             ext_element(diagonal), ext_element(x(1) * x(1) * x(2) * xi(3))]
    assert all(set(w.gen.principal_components()) == {2} for w in named)
    for w in named + [ext_element(xi(1) * xi(2))]:
        assert extend_f(w) == act_f(w), str(w)


def test_f_sign_is_pinned(monkeypatch):
    monkeypatch.setattr(conventions, "F_SIGN", 1)
    report = suite_sl2(CampaignConfig(d=3, max_degree=3, trials=10))
    failed = {r.check_id for r in report.failures()}
    assert {"sl2.relation.e_f", "sl2.field_equivariance.seeded.f"} <= failed


def test_e_generator_coeff_is_read_at_call_time(monkeypatch):
    # flipped at run time, the coefficient fails the golden campaign where
    # the same flip made in conventions.py does
    monkeypatch.setattr(conventions, "E_GENERATOR_COEFF", 1)
    report = run_campaign(CampaignConfig(d=3, max_degree=3, trials=25, seed=42))
    assert {r.check_id for r in report.failures()} == {
        "sl2.relation.e_f", "sl2.cocycle_equivariance.named.e",
        "sl2.cocycle_equivariance.seeded.e", "sl2.field_equivariance.seeded.e"}


def test_sl2_relations_report():
    report = sl2_relations_check(truncation=3, trials=20, seed=9)
    assert report.ok, report.summary_text()


def test_relation_draws_redraw_zero_elements(monkeypatch):
    # 48 of these 1,200 draws have no part in their principal degree at
    # the first seed; each is redrawn, so every relation checks something
    from polyvec import sl2

    drawn = []
    draw = sl2._random_principal

    def recording(deg, seed):
        drawn.append((deg, seed, draw(deg, seed)))
        return drawn[-1][2]

    monkeypatch.setattr(sl2, "_random_principal", recording)
    for seed in range(20):
        assert sl2_relations_check(truncation=4, trials=20, seed=seed).ok
    first_zero = sum(deg not in random_sho_generator(deg + 2, seed=s).principal_components() for deg, s, _ in drawn)
    assert (len(drawn), first_zero, sum(v.is_zero() for *_, v in drawn)) == (1200, 48, 0)


def test_principal_draw_gives_up_after_nine_zero_draws(monkeypatch):
    from polyvec import sl2

    monkeypatch.setattr(sl2, "random_sho_generator", lambda max_degree, seed: SuperPoly.zero(3))
    with pytest.raises(ValueError):
        sl2._random_principal(2, seed=0)


def test_named_cocycle_equivariance_bullets():
    report = equivariance_check_cocycle(trials=15, seed=2)
    assert report.ok, report.summary_text()


def test_verbatim_pairs_cover_every_index_combination():
    pairs = verbatim_pairs()
    assert [ijk for ijk, *_ in pairs["eps_e1"]] == list(permutations((1, 2, 3)))
    assert [ij for ij, *_ in pairs["delta_e2"]] == [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    # the diagonal pairs are the ones whose bracket fires e2
    assert [ij for ij, a, b, _ in pairs["delta_e2"] if ext_bracket_d3(a, b).c2] == [(1, 1), (2, 2), (3, 3)]
    for ijk, a, b, central in pairs["eps_e1"]:
        assert central == (levi_civita(*ijk), 0) and ext_bracket_d3(a, b) == ExtElement(SuperPoly.zero(3), *central)


def _act_e_without_e2_term(v):
    """act_e with its e2 -> e1 term dropped (a negative control)."""
    out = ext_element(pvcalc.schouten(SuperPoly.top(3, conventions.E_GENERATOR_COEFF), v.gen))
    return ExtElement(out.gen, out.c1, out.c2)


def test_named_cocycle_equivariance_catches_act_e_without_its_e2_term(monkeypatch):
    pairs = verbatim_pairs()
    named = [(a, b) for ps in pairs.values() for _, a, b, _ in ps]
    off_diagonal = [(a, b) for _, a, b, _ in pairs["eps_e1"]] + [
        (a, b) for (i, j), a, b, _ in pairs["delta_e2"] if i != j]
    assert not list(_leibniz_failures("e", act_e, named))
    # the pairs with no diagonal [d/dxi_i, d/dx_i] miss the fault
    assert not list(_leibniz_failures("e", _act_e_without_e2_term, off_diagonal))
    assert len(list(_leibniz_failures("e", _act_e_without_e2_term, named))) == 3
    monkeypatch.setattr(sl2, "act_e", _act_e_without_e2_term)
    failed = {r.check_id for r in equivariance_check_cocycle(trials=1, seed=2).failures()}
    assert "sl2.cocycle_equivariance.named.e" in failed


def _pair(phi1, phi2):
    """The field with phi1 at the potential summand ("p", 0) (PV^3) and
    phi2 at the function summand ("f", 0, 0)."""
    return DescendantField(3, POT2, {("p", 0): phi1, ("f", 0, 0): phi2})


def _top(g):
    return pvcalc.vee_omega_inv(g)


def test_field_action_examples():
    alpha = random_poly(3, 2, xi_degree_filter=0, seed=1)
    beta = random_poly(3, 2, xi_degree_filter=0, seed=2)
    z = SuperPoly.zero(3)
    psi = _pair(_top(alpha), beta)
    assert field_action("h", psi) == _pair(_top(alpha), -beta)
    assert field_action("e", _pair(z, beta)) == _pair(_top(beta), z)
    assert field_action("f", _pair(_top(alpha), z)) == _pair(z, alpha)
    # zero on the odd fields
    mu = random_poly(3, 2, xi_degree_filter=1, seed=3)
    nu = random_poly(3, 2, xi_degree_filter=0, seed=4)
    odd = DescendantField(3, POT2, {("f", 0, 1): mu, ("f", 1, 0): nu})
    for name in ("e", "h", "f"):
        assert field_action(name, odd).is_zero()


def _symplectic_pair(psi, chi):
    """The antisymmetric pairing on the even pair, valued in PV^3:
    w(psi, chi) = phi1 phi2' - phi2 phi1'."""
    p, f = ("p", 0), ("f", 0, 0)
    return psi.part(p) * chi.part(f) - psi.part(f) * chi.part(p)


def test_field_action_preserves_symplectic_pairing():
    for seed in range(10):
        psi = _pair(_top(random_poly(3, 2, 0, seed=seed)), random_poly(3, 2, 0, seed=seed + 9))
        chi = _pair(_top(random_poly(3, 2, 0, seed=seed + 17)), random_poly(3, 2, 0, seed=seed + 23))
        for name in ("e", "h", "f"):
            total = _symplectic_pair(field_action(name, psi), chi) + _symplectic_pair(
                psi, field_action(name, chi))
            assert total.is_zero()


def test_embed_slots():
    v = ext_element(x(1) + xi(1) * xi(2), c1=2, c2=3)
    psi = embed(v)
    assert (psi.d, psi.variant) == (3, POT2)
    assert psi.part(("f", 0, 0)) == x(1) + SuperPoly.const(3, 3)
    assert psi.part(("f", 0, 1)).is_zero()
    assert psi.part(("f", 1, 0)).is_zero()
    # the potential summand carries the lift of the 2-polyvector part and e1
    pot = SuperPoly.monomial(3, (0, 0, 0), (1, 2, 3), 2) - contraction_K(xi(1) * xi(2))
    assert psi.part(("p", 0)) == pot
    assert set(psi.parts) == {("p", 0), ("f", 0, 0)}


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
