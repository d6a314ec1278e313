from fractions import Fraction

import pytest

from polyvec import conventions, pvcalc
from polyvec.sho import (
    ExtElement,
    SuperVectorField,
    cocycle_check,
    ext_bracket_d3,
    ext_element,
    ext_parity,
    ham_generator,
    hamiltonian_vf,
    lie_jacobi_defect,
    membership,
    random_sho_generator,
    sho_basis,
    structure_constants,
    super_divergence,
    vf_bracket,
)
from polyvec.superpoly import SuperPoly, monomial_basis, random_poly


def xi(i, d=3):
    return SuperPoly.xi(d, i)


def x(i, d=3):
    return SuperPoly.x(d, i)


def vf(d, mu_x=None, mu_xi=None):
    z = SuperPoly.zero(d)
    mx = list(mu_x or [z] * d)
    mxi = list(mu_xi or [z] * d)
    return SuperVectorField(d, tuple(mx), tuple(mxi))


def test_hamiltonian_field_examples():
    d = 3
    z = SuperPoly.zero(d)
    one = SuperPoly.const(d, 1)
    assert hamiltonian_vf(x(1)) == vf(d, mu_xi=[one, z, z])
    assert hamiltonian_vf(xi(1)) == vf(d, mu_x=[-one, z, z])
    assert hamiltonian_vf(x(1) * xi(1)) == vf(d, mu_x=[-x(1), z, z], mu_xi=[xi(1), z, z])
    # the exponent factor cancels the denominator: x1^2/2 has the field x1 d/dxi_1
    assert hamiltonian_vf((x(1) * x(1)).scale(Fraction(1, 2))) == vf(d, mu_xi=[x(1), z, z])


def test_super_divergence_examples():
    d = 3
    z = SuperPoly.zero(d)
    assert super_divergence(vf(d, mu_x=[x(1), z, z])) == SuperPoly.const(d, 1)
    assert super_divergence(vf(d, mu_xi=[xi(1), z, z])) == SuperPoly.const(d, -1)
    assert super_divergence(vf(d, mu_x=[SuperPoly.const(d, 1), z, z])).is_zero()


def test_vf_bracket_classical():
    d = 3
    z = SuperPoly.zero(d)
    one = SuperPoly.const(d, 1)
    a = vf(d, mu_x=[one, z, z])           # d/dx1
    b = vf(d, mu_x=[x(1), z, z])          # x1 d/dx1
    assert vf_bracket(a, b) == a
    c = vf(d, mu_xi=[one, z, z])          # d/dxi1
    e = vf(d, mu_x=[z, xi(1), z])         # xi1 d/dx2
    assert vf_bracket(c, e) == vf(d, mu_x=[z, one, z])


def test_vf_bracket_is_first_order():
    # the commutator of two vector fields, reconstructed from its action
    # on coordinates, reproduces the operator commutator on the whole
    # monomial basis: the result is again a vector field
    d = 3
    for seed in range(8):
        f = random_poly(d, 3, xi_degree_filter=seed % 4, seed=seed)
        g = random_poly(d, 3, xi_degree_filter=(seed + 2) % 4, seed=seed + 21)
        if f.is_zero() or g.is_zero():
            continue
        A, B = hamiltonian_vf(f), hamiltonian_vf(g)
        C = vf_bracket(A, B)
        sign = -1 if ((f.parity() + 1) & (g.parity() + 1) & 1) else 1
        for mono in monomial_basis(d, 2):
            probe = SuperPoly(d, {mono: Fraction(1)})
            want = A.apply(B.apply(probe)) - B.apply(A.apply(probe)).scale(sign)
            assert C.apply(probe) == want


def test_divergence_law_and_kernel_equivalence():
    d = 3
    for seed in range(30):
        j = seed % (d + 1)
        f = random_poly(d, 4, xi_degree_filter=j, seed=seed)
        if f.is_zero():
            continue
        kappa = conventions.KAPPA_EVEN if f.parity() == 0 else conventions.KAPPA_ODD
        assert super_divergence(hamiltonian_vf(f)) == pvcalc.divergence(f).scale(kappa)
        assert super_divergence(hamiltonian_vf(f)).is_zero() == pvcalc.divergence(f).is_zero()


def test_hamiltonian_anti_map():
    d = 3
    for seed in range(20):
        f = random_poly(d, 3, xi_degree_filter=seed % 4, seed=seed)
        g = random_poly(d, 3, xi_degree_filter=(seed + 1) % 4, seed=seed + 31)
        if f.is_zero() or g.is_zero():
            continue
        lhs = vf_bracket(hamiltonian_vf(f), hamiltonian_vf(g))
        assert lhs == hamiltonian_vf(pvcalc.schouten(f, g)).scale(conventions.SIGMA)


def test_vector_field_layer_rejects_mixed_parity():
    mixed = x(1) + xi(1)
    with pytest.raises(ValueError):
        hamiltonian_vf(mixed)
    d_dx1 = hamiltonian_vf(-xi(1))
    d_dxi1 = hamiltonian_vf(x(1))
    assert (d_dx1.parity(), d_dxi1.parity()) == (0, 1)
    for field in (d_dx1 + d_dxi1, hamiltonian_vf(x(1) * x(2)) + d_dx1):
        with pytest.raises(ValueError):
            field.parity()
        with pytest.raises(ValueError):
            super_divergence(field)
        with pytest.raises(ValueError):
            vf_bracket(field, d_dx1)


def test_vector_field_layer_rejects_a_dimension_mismatch():
    field = hamiltonian_vf(x(1) * x(2))
    with pytest.raises(ValueError):
        field.apply(x(1, d=2))
    with pytest.raises(ValueError):
        vf_bracket(field, hamiltonian_vf(x(1, d=2) * x(2, d=2)))
    z = SuperPoly.zero(3)
    for mu_x, mu_xi in (((z, z), (z, z, z)), ((z, z, x(1, d=2)), (z, z, z))):
        with pytest.raises(ValueError):
            SuperVectorField(3, mu_x, mu_xi)


def test_sigma_is_pinned(monkeypatch):
    from polyvec.suites import CampaignConfig, suite_sho

    cfg = CampaignConfig(d=3, max_degree=3, trials=10, seed=1, checks=("sho",))

    def failed():
        return {r.check_id for r in suite_sho(cfg).failures()}

    assert failed() == set()
    monkeypatch.setattr(conventions, "SIGMA", 1)
    assert failed() == {"sho.d3.hamiltonian_anti_map"}


def _anti_map_failures_with_a_negated_half(monkeypatch, half):
    """The failed checks of a d = 3 sho suite, first with the code as it is
    and then with one half of every field's coefficient groups negated
    where the kernel groups a field's coefficients by index and kind: the
    d/dx_i half (0) or the d/dxi_i half (1)."""
    from polyvec import superpoly
    from polyvec.suites import CampaignConfig, suite_sho

    cfg = CampaignConfig(d=3, max_degree=3, trials=10, seed=1, checks=("sho",))

    def failed():
        return {r.check_id for r in suite_sho(cfg).failures()}

    before = failed()
    groups = superpoly._field_groups

    def negated(table, factor):
        halves = list(groups(table, factor))
        halves[half] = {bit: [(k, odd, -c) for k, odd, c in terms] for bit, terms in halves[half].items()}
        return tuple(halves)

    monkeypatch.setattr(superpoly, "_field_groups", negated)
    return before, failed()


def test_flipped_odd_branch_of_apply_fails_the_anti_map(monkeypatch):
    # vf_bracket applies each field to the other's coefficients through
    # the kernel, so a sign error in the d/dxi branch reaches the bracket
    assert _anti_map_failures_with_a_negated_half(monkeypatch, 1) == (set(), {"sho.d3.hamiltonian_anti_map"})


def test_flipped_even_branch_of_apply_fails_the_anti_map(monkeypatch):
    assert _anti_map_failures_with_a_negated_half(monkeypatch, 0) == (set(), {"sho.d3.hamiltonian_anti_map"})


def test_ham_generator_inversion():
    for seed in range(5):
        f = random_sho_generator(3, seed=seed)
        if f.is_zero():
            continue
        X = hamiltonian_vf(f)
        g = ham_generator(X)
        # generators agree up to the kernel of Ham (constants)
        assert hamiltonian_vf(g) == X
        # the generator named by a field through X = -Ham(f)
        assert -ham_generator(X.scale(-1)) == g
    # the closed form recovers every generator but its constant term, at
    # every xi-degree, so for both parities
    draws = 0
    for d in (2, 3, 4):
        for k in range(d + 1):
            for seed in range(15):
                f = random_poly(d, 5, xi_degree_filter=k, seed=seed)
                assert ham_generator(hamiltonian_vf(f)) == f - SuperPoly.const(d, f.constant_term())
                draws += not f.is_zero()
    assert draws == 180
    # xi_1 d/dx_1 is parity-homogeneous, but no generator has it as its field
    z = SuperPoly.zero(3)
    assert ham_generator(vf(3, mu_x=[xi(1), z, z])) is None
    with pytest.raises(ValueError):
        ham_generator(vf(3, mu_x=[xi(1) + x(2), z, z]))


def test_membership_examples():
    assert membership(x(1) * xi(1)) == "HO"
    assert membership(xi(1) * xi(2)) == "SHO"
    assert membership(xi(1) * xi(2) * xi(3)) == "SHO-prime"
    assert membership(SuperPoly.const(3, 5)) == "not-HO-generator"
    assert membership(SuperPoly.zero(3)) == "not-HO-generator"


def test_membership_disregards_the_constant_term_of_a_sum():
    c = SuperPoly.const(3, 7)
    assert membership(c) == "not-HO-generator"
    # the constant's denominator and the top coefficient's share a factor
    top = (xi(1) * xi(2) * xi(3)).scale(Fraction(2, 3))
    assert membership(SuperPoly.const(3, Fraction(1, 2)) + top) == "SHO-prime"
    assert membership(c + x(1)) == "SHO"
    assert membership(c + x(1) * xi(1)) == "HO"


def test_membership_against_criterion_on_basis():
    d = 3
    for mono in monomial_basis(d, 5):
        poly = SuperPoly(d, {mono: Fraction(1)})
        core = poly - SuperPoly.const(d, poly.constant_term())
        if core.is_zero():
            want = "not-HO-generator"
        elif not pvcalc.divergence(core).is_zero():
            want = "HO"
        elif core.top_constant() != 0:
            want = "SHO-prime"
        else:
            want = "SHO"
        assert membership(poly) == want


def _membership_of_the_carved_core(f):
    """membership as defined on the carved core: the constant and the
    constant top monomial removed before the divergence is taken."""
    core, top = f.without_constant_and_top(), f.top_constant()
    if core.is_zero() and top == 0:
        return "not-HO-generator"
    if not pvcalc.divergence(core).is_zero():
        return "HO"
    return "SHO-prime" if top != 0 else "SHO"


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_membership_equals_the_carved_core_definition(d):
    polys = [SuperPoly(d, {m: 1}) for m in monomial_basis(d, 5)]
    const, top = SuperPoly.const(d, Fraction(1, 2)), SuperPoly.top(d, 3)
    polys += [SuperPoly.zero(d), const, top, const + top]
    for seed in range(40):
        p = random_poly(d, 3, xi_degree_filter=seed % (d + 1), seed=seed)
        polys += [p, p + const, p + top, p + const + top]
    got = [membership(p) for p in polys]
    assert got == [_membership_of_the_carved_core(p) for p in polys]
    assert set(got) == {"not-HO-generator", "HO", "SHO-prime", "SHO"}


def test_ext_element_carves_center():
    f = xi(1) * xi(2) + SuperPoly.const(3, 2) + SuperPoly.monomial(3, (0, 0, 0), (1, 2, 3), 5)
    v = ext_element(f)
    assert v.gen == xi(1) * xi(2)
    assert v.c1 == 5 and v.c2 == 2


def test_ext_element_rejects_non_divergence_free():
    with pytest.raises(ValueError):
        ext_element(x(1) * xi(1))


def test_ext_bracket_examples():
    # [d/dx_1, xi_3 d/dx_2 - xi_2 d/dx_3] = e1
    a = ext_element(-ham_generator(hamiltonian_vf(xi(1)).scale(-1)))
    assert a.gen == xi(1)
    b = ext_element(-(xi(2) * xi(3)))
    out = ext_bracket_d3(a, b)
    assert out.gen.is_zero() and out.c1 == 1 and out.c2 == 0
    # [d/dxi_1, d/dx_1] = e2
    u = ext_element(-x(1))
    out = ext_bracket_d3(u, ext_element(xi(1)))
    assert out.gen.is_zero() and out.c1 == 0 and out.c2 == 1
    # vanishing case
    out = ext_bracket_d3(ext_element(xi(1)), ext_element(x(2)))
    assert out.is_zero()


def test_ext_bracket_keeps_integral_central_coordinates_int():
    # integral generators: the divergence-free monomials of degree <= 2
    # (the constant and the top monomial would only feed the center)
    gens = [SuperPoly(3, {m: 2}) for m in monomial_basis(3, 2)
            if 0 < m.degree and len(m.odd) < 3 and pvcalc.divergence(SuperPoly(3, {m: 1})).is_zero()]
    seen = set()
    for f in gens:
        for g in gens:
            out = ext_bracket_d3(ext_element(f), ext_element(g, c1=1)).scale(3)
            assert type(out.c1) is int and type(out.c2) is int, (f, g, out)
            seen |= {"c1"} if out.c1 else set()
            seen |= {"c2"} if out.c2 else set()
    assert seen == {"c1", "c2"}


def test_ext_bracket_super_jacobi():
    for t in range(30):
        a = ext_element(random_sho_generator(4, seed=3 * t))
        b = ext_element(random_sho_generator(4, seed=3 * t + 1))
        c = ext_element(random_sho_generator(4, seed=3 * t + 2))
        assert lie_jacobi_defect(a, b, c).is_zero()


def test_ext_centrality():
    center = ExtElement(SuperPoly.zero(3), Fraction(1), Fraction(-2))
    for t in range(10):
        v = ext_element(random_sho_generator(4, seed=t))
        assert ext_bracket_d3(center, v).is_zero()
        assert ext_bracket_d3(v, center).is_zero()


def test_ext_parity():
    assert ext_parity(ext_element(xi(1))) == 0
    assert ext_parity(ext_element(xi(1) * xi(2))) == 1
    assert ext_parity(ExtElement(SuperPoly.zero(3), Fraction(1), Fraction(0))) == 1
    assert ext_parity(ExtElement(SuperPoly.zero(3), Fraction(0), Fraction(1))) == 1


def test_principal_grading_is_a_lie_grading():
    for t in range(15):
        f = random_sho_generator(4, seed=100 + t)
        g = random_sho_generator(4, seed=200 + t)
        fd = set(f.principal_components())
        gd = set(g.principal_components())
        br = pvcalc.schouten(f, g)
        if len(fd) == 1 and len(gd) == 1 and not br.is_zero():
            assert set(br.principal_components()) == {fd.pop() + gd.pop()}


def test_cocycle_check_pass_and_fail():
    def c1(f, g):
        total = Fraction(0)
        for k, comp in f.xi_components().items():
            decal = -1 if (k - 1) & 1 else 1
            total += conventions.EXT_C1_SIGN * decal * pvcalc.top_constant_pairing(comp, g)
        return total

    assert cocycle_check(c1, trials=30, seed=1).ok
    assert cocycle_check(lambda f, g: pvcalc.schouten(f, g).constant_term(),
                         trials=30, seed=1).ok

    def broken(f, g):
        return c1(f, g) + sum((f * g).key_values().values(), Fraction(0))

    report = cocycle_check(broken, trials=40, seed=1)
    assert not report.ok
    assert any("witness" in r.details for r in report.failures())


def test_cocycle_check_named_triples_expose_broken_pairings():
    # trials=0: only the named basis triples are evaluated
    def c1(f, g, decalage=True):
        total = Fraction(0)
        for k, comp in f.xi_components().items():
            decal = -1 if decalage and (k - 1) & 1 else 1
            total += conventions.EXT_C1_SIGN * decal * pvcalc.top_constant_pairing(comp, g)
        return total

    assert cocycle_check(c1, trials=0).ok
    assert cocycle_check(lambda f, g: pvcalc.schouten(f, g).constant_term(), trials=0).ok
    for broken in (
        lambda f, g: c1(f, g) + sum((f * g).key_values().values(), Fraction(0)),
        lambda f, g: c1(f, g, decalage=False),
        lambda f, g: pvcalc.symmetric_bracket(f, g).constant_term(),
    ):
        report = cocycle_check(broken, trials=0)
        assert not report.ok
        assert "witness" in report.records[0].details


def test_cocycle_check_fails_a_broken_pairing_before_it_draws(monkeypatch):
    from polyvec import sho

    def refuse(*args, **kwargs):
        raise AssertionError("a triple was drawn")

    monkeypatch.setattr(sho, "random_sho_generator", refuse)
    broken = lambda f, g: sho.c1_pairing(f, g) + sum((f * g).key_values().values(), Fraction(0))
    report = cocycle_check(broken, trials=40, seed=1, label="broken")
    [record] = report.records
    assert record.check_id == "broken.identity" and not record.passed
    assert set(record.details["witness"]) == {"a", "b", "x", "defect"}


def test_sho_basis_and_structure_constants():
    basis = sho_basis(3, 0)
    # degree <= 2 generators modulo constants and the top monomial
    assert all(membership(b) == "SHO" for b in basis)
    rows = structure_constants(0)
    assert rows
    # the table contains the pairing row for (xi1, xi2 xi3) with a unit
    # central value along e1 (sign fixed by the conventions ledger)
    hits = [r for r in rows if {r["left"], r["right"]} == {"xi1", "xi2*xi3"}]
    assert hits and all(abs(Fraction(h["e1"])) == 1 and h["bracket"] == "0" for h in hits)


def test_random_sho_generator_draws_no_zero():
    # xi-degree d would always carve down to zero
    assert not any(random_sho_generator(4, seed=s).is_zero() for s in range(400))


def test_random_sho_generator_draws_integer_coefficients():
    for d in (3, 4, 5):
        for max_degree in range(5):
            for s in range(50):
                f = random_sho_generator(max_degree, seed=s, d=d)
                assert all(type(c) is int for _, c in f.terms())
                assert pvcalc.divergence(f).is_zero()
                assert len(f.xi_degrees()) <= 1


def test_random_sho_generator_picks_only_xi_degrees_with_monomials(monkeypatch):
    # a xi-degree above the degree cap has an empty monomial basis, so
    # its draw would be zero whatever the seed
    from polyvec import sho

    picked = set()

    def recording(d, max_total_degree, xi_degree_filter=None, seed=0, n_terms=4):
        picked.add((d, max_total_degree, xi_degree_filter))
        return random_poly(d, max_total_degree, xi_degree_filter, seed, n_terms)

    monkeypatch.setattr(sho, "random_poly", recording)
    for d in (3, 4, 5):
        for max_degree in range(5):
            for s in range(60):
                random_sho_generator(max_degree, seed=s, d=d)
    assert {(d, m) for d, m, _ in picked} == {(d, m) for d in (3, 4, 5) for m in range(5)}
    assert all(monomial_basis(d, m, {j}) for d, m, j in picked)


def test_membership_criterion_catches_a_vanishing_divergence(monkeypatch):
    from polyvec.complexes import Variant
    from polyvec.suites import CampaignConfig, suite_sho

    cfg = CampaignConfig(d=3, variant=Variant.mbcov(), max_degree=3, trials=4, seed=1,
                         arity_cap=3, checks=("sho",))

    def outcome():
        return [r.passed for r in suite_sho(cfg).records
                if r.check_id == "sho.d3.membership_criterion"]

    assert outcome() == [True]
    monkeypatch.setattr(pvcalc, "divergence", lambda p: SuperPoly.zero(p.d))
    assert outcome() == [False]
