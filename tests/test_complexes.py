from fractions import Fraction

import pytest

from polyvec import pvcalc
from polyvec.complexes import (
    DescendantField,
    Variant,
    cohomology_model,
    differential,
    grid,
    parity_of,
    phi_map,
    random_field,
    summands,
    t_power_of,
    xi_degree_of,
)
from polyvec.contraction import build_datum, contraction_K
from polyvec.linf import field_structure, tree_sum
from polyvec.superpoly import SuperPoly, random_poly


def test_summand_tables():
    assert set(summands(3, Variant.mbcov())) == {
        ("f", 0, 0), ("f", 0, 1), ("f", 1, 0), ("f", 0, 2), ("f", 1, 1), ("f", 2, 0)}
    # four summands for the 2-potential theory in three dimensions
    assert set(summands(3, Variant.potential(2))) == {
        ("f", 0, 0), ("f", 0, 1), ("f", 1, 0), ("p", 0)}
    # the tower has d-k entries in general
    keys = summands(5, Variant.potential(2))
    assert {k for k in keys if k[0] == "p"} == {("p", 0), ("p", 1), ("p", 2)}
    assert ("f", 0, 2) not in keys and ("f", 1, 1) not in keys


@pytest.mark.parametrize("d", range(2, 8))
def test_grid_steps_are_inverse_bijections_of_summands(d):
    for variant in [Variant.mbcov()] + [Variant.potential(k) for k in range(2, d)]:
        g = grid(d, variant)
        keys = summands(d, variant)
        assert g.xi_degrees == {key: xi_degree_of(key, variant) for key in keys}
        for table in (g.up, g.down):
            assert set(table) <= set(keys) and set(table.values()) <= set(keys)
        assert all(g.down[g.up[key]] == key for key in g.up)
        assert all(g.up[g.down[key]] == key for key in g.down)
        for key, to in g.up.items():
            # Q = t Delta: one power of t up, one xi-degree down
            assert (t_power_of(to), g.xi_degrees[to]) == (t_power_of(key) + 1, g.xi_degrees[key] - 1)
        # a diagonal of n minimal summands has n - 1 steps, the tower d-k-1
        diagonals = range(d) if variant.kind == "mbcov" else [s for s in range(d) if s != variant.k]
        tower = 0 if variant.kind == "mbcov" else d - variant.k - 1
        assert len(g.up) == sum(diagonals) + tower


def test_parities():
    v = Variant.potential(2)
    assert parity_of(("f", 0, 1), v) == 1
    assert parity_of(("f", 1, 0), v) == 0
    assert parity_of(("p", 0), v) == 0  # potential sits off its xi-parity
    assert parity_of(("p", 1), v) == 1


def test_differential_example():
    d, v = 3, Variant.mbcov()
    psi = DescendantField.single(d, v, ("f", 0, 1), SuperPoly.x(d, 1) * SuperPoly.xi(d, 1))
    out = differential(psi)
    assert out.parts == {("f", 1, 0): SuperPoly.const(d, 1)}


def test_differential_squares_to_zero():
    for d, v in [(3, Variant.mbcov()), (4, Variant.potential(2))]:
        for i, key in enumerate(summands(d, v)):
            for seed in range(6):
                psi = random_field(d, v, key, 4, seed=seed + 31 * i)
                assert differential(differential(psi)).is_zero()


def test_potential_head_has_no_outgoing_differential():
    d, v = 3, Variant.potential(2)
    gamma = SuperPoly.x(d, 1) * SuperPoly.xi(d, 1) * SuperPoly.xi(d, 2) * SuperPoly.xi(d, 3)
    psi = DescendantField.single(d, v, ("p", 0), gamma)
    assert differential(psi).is_zero()


def test_phi_map_examples():
    d, v = 3, Variant.potential(2)
    gamma = SuperPoly.x(d, 1) * SuperPoly.xi(d, 1) * SuperPoly.xi(d, 2) * SuperPoly.xi(d, 3)
    out = phi_map(DescendantField.single(d, v, ("p", 0), gamma))
    assert out.parts == {("f", 0, 2): SuperPoly.xi(d, 2) * SuperPoly.xi(d, 3)}
    mu = random_poly(d, 3, xi_degree_filter=1, seed=2)
    out = phi_map(DescendantField.single(d, v, ("f", 0, 1), mu))
    assert out.parts == {("f", 0, 1): mu}


@pytest.mark.parametrize("d,k", [(3, 2), (4, 2), (4, 3), (5, 3)])
def test_phi_is_a_chain_map(d, k):
    v = Variant.potential(k)
    keys = summands(d, v)
    count = 0
    for i, key in enumerate(keys):
        for seed in range(100 // len(keys) + 1):
            psi = random_field(d, v, key, 4, seed=seed + 97 * i)
            assert phi_map(differential(psi)) == differential(phi_map(psi))
            count += 1
    assert count >= 100 // len(keys)


def test_phi_rejects_mbcov():
    with pytest.raises(ValueError):
        phi_map(DescendantField.zero(3, Variant.mbcov()))


def test_field_validation():
    d, v = 3, Variant.mbcov()
    with pytest.raises(ValueError):
        DescendantField(d, v, {("f", 0, 5): SuperPoly.xi(d, 1)})
    with pytest.raises(ValueError):
        DescendantField(d, v, {("f", 0, 1): SuperPoly.x(d, 1)})  # wrong xi-degree


def test_edge_rejects_mixed_complexes_and_off_grid_brackets():
    psi = DescendantField.single(3, Variant.mbcov(), ("f", 0, 1), SuperPoly.xi(3, 1))
    for other in [DescendantField.single(4, Variant.mbcov(), ("f", 0, 1), SuperPoly.xi(4, 1)),
                  DescendantField.single(3, Variant.potential(2), ("f", 0, 1), SuperPoly.xi(3, 1))]:
        with pytest.raises(ValueError, match="different complexes"):
            psi + other
        with pytest.raises(ValueError, match="different complex"):
            cohomology_model(3, Variant.mbcov()).project(other)
    # the source b2 keys its output by t-power and xi-degree; ("f", 2, 1)
    # is off the d = 3 grid
    x, xi = SuperPoly.x, SuperPoly.xi
    a = DescendantField.single(3, Variant.mbcov(), ("f", 1, 1), x(3, 1) * xi(3, 2))
    b = DescendantField.single(3, Variant.mbcov(), ("f", 1, 1), x(3, 2) * xi(3, 1))
    with pytest.raises(ValueError, match=r"invalid summand \('f', 2, 1\) for mbcov, d=3"):
        field_structure(3).brackets[2](a, b)


@pytest.mark.parametrize("d", range(2, 6))
def test_internal_paths_build_valid_fields(d):
    # the field layer builds its results without re-validating them; each
    # must be what the validating constructor gives on the same parts
    dropped = {"Q": 0, "H": 0, "p": 0}
    for variant in [Variant.mbcov()] + [Variant.potential(k) for k in range(2, d)]:
        g = grid(d, variant)
        keys = summands(d, variant)
        psi, chi = (DescendantField(d, variant, {
            key: random_poly(d, 2, xi_degree_filter=g.xi_degrees[key], seed=31 * s + i)
            for i, key in enumerate(keys)}) for s in (1, 2))
        # x-free parts, which Delta kills, and parts in the image of K,
        # which K kills (K^2 = 0) and p sends to zero at a pv home
        by_delta = DescendantField(d, variant, {key: SuperPoly.monomial(d, (0,) * d, tuple(range(1, j + 1)))
                                                for key, j in g.xi_degrees.items() if key in g.up})
        by_k = DescendantField(d, variant, {
            key: contraction_K(random_poly(d, 2, xi_degree_filter=j - 1, seed=50 + i))
            for i, (key, j) in enumerate(g.xi_degrees.items()) if j >= 1})
        datum = build_datum(d, variant)
        carrier = datum.carrier
        elements = [carrier.random_element(slot, 3, seed=90 + i) for i, slot in enumerate(carrier.slots)]
        outs = [psi + chi, psi + (-psi), -psi, psi - chi, (psi + chi) - psi,
                psi.scale(Fraction(-2, 3)), psi.scale(0)]
        for field_in in (psi, chi, by_delta, by_k):
            outs += [differential(field_in), datum.homotopy(field_in), carrier.project(field_in)]
        outs += elements
        if variant.kind == "mbcov":
            b2 = field_structure(d).brackets[2]
            outs += [b2(u, w) for u in elements for w in elements]
            outs += [tree_sum(field_structure(d), datum.homotopy, elements[:n]) for n in (2, 3)]
        for out in outs:
            # equal to its validated rebuild, with no zero part
            assert (out.d, out.variant) == (d, variant)
            assert out == DescendantField(d, variant, dict(out.parts))
            assert not any(poly.is_zero() for poly in out.parts.values())
        assert ((psi + chi) - psi) == chi and (psi + (-psi)).is_zero() and psi.scale(0).is_zero()
        dropped["Q"] += differential(by_delta).is_zero() and len(by_delta.parts)
        dropped["H"] += datum.homotopy(by_k).is_zero() and sum(key in g.down for key in by_k.parts)
        dropped["p"] += sum(carrier.home(slot) in by_k.parts for slot in carrier.slots) - len(
            carrier.project(by_k).parts)
    # the killed fields gave zero parts, which were dropped; at d = 2 the
    # only step down starts at xi-degree 0, where K is injective
    assert dropped["Q"] and dropped["p"] and (dropped["H"] or d == 2), dropped


def test_cohomology_model_membership():
    model = cohomology_model(3, Variant.mbcov())
    xi = lambda i: SuperPoly.xi(3, i)
    assert model.membership(("pv", 2), xi(1) * xi(2))
    assert model.membership(("pv", 1), SuperPoly.x(3, 1) * xi(2))  # divergence free
    assert not model.membership(("pv", 1), SuperPoly.x(3, 1) * xi(1))
    assert not model.membership(("pv", 1), xi(1) * xi(2))  # wrong degree


@pytest.mark.parametrize("d", [4, 5])
def test_central_slot_is_an_ordinary_slot(d):
    # the central line holds the constant top polyvectors at its home
    model = cohomology_model(d, Variant.potential(2))
    assert model.membership(("c",), SuperPoly.top(d, 5))
    assert not model.membership(("c",), SuperPoly.const(d, 1))
    assert not model.membership(("c",), SuperPoly.x(d, 1) * SuperPoly.top(d, 1))
    # p iota = id and the text round trip on an element with every slot filled
    v = DescendantField.zero(d, model.variant)
    for i, slot in enumerate(model.slots):
        v = v + model.random_element(slot, 4, seed=60 + i)
    assert set(v.parts) == {model.home(slot) for slot in model.slots}
    assert model.project(v) == v
    text = model.to_dict(v)
    assert model.membership(("c",), SuperPoly.parse(d, text["c"]))
    for slot in model.slots:
        assert SuperPoly.parse(d, text["/".join(map(str, slot))]) == v.part(model.home(slot))


def test_cohomology_model_slots():
    assert cohomology_model(3, Variant.mbcov()).slots == (("pv", 0), ("pv", 1), ("pv", 2))
    assert cohomology_model(3, Variant.potential(2)).slots == (("pv", 0), ("pv", 1), ("pot",))
    assert cohomology_model(4, Variant.potential(2)).slots == (
        ("pv", 0), ("pv", 1), ("pv", 3), ("quot",), ("c",))


def test_quotient_canonicalization():
    from polyvec.contraction import contraction_K

    model = cohomology_model(4, Variant.potential(2))
    nu = random_poly(4, 4, xi_degree_filter=3, seed=8)
    v = model.element({("quot",): nu})
    rep = v.part(model.home(("quot",)))
    assert rep == contraction_K(pvcalc.divergence(rep))
    # representatives of the same class agree after canonicalization
    shift = pvcalc.divergence(random_poly(4, 4, xi_degree_filter=4, seed=9))
    w = model.element({("quot",): nu + shift})
    assert w == v


def test_element_canonicalizes_every_part():
    # element is p of the field holding each part at its slot's home, so a
    # part that is not its own canonical form is stored canonicalized
    d = 4
    model = cohomology_model(d, Variant.potential(2))
    xi = lambda i: SuperPoly.xi(d, i)
    x1 = SuperPoly.x(d, 1)
    for slot, poly in [(("c",), x1 * xi(1) * xi(2) * xi(3) * xi(4)), (("pv", 1), x1 * xi(1))]:
        assert not model.membership(slot, poly)
        v = model.element({slot: poly})
        assert model.project(v) == v
        assert model.membership(slot, v.part(model.home(slot)))
    assert model.element({("c",): x1 * SuperPoly.top(d, 1) + SuperPoly.top(d, 2)}).parts == {
        ("p", 1): SuperPoly.top(d, 2)}
    with pytest.raises(ValueError):
        model.element({("pv", 1): xi(1) * xi(2)})  # wrong xi-degree


def test_scalar_slot_requires_central_carrier():
    model = cohomology_model(3, Variant.mbcov())
    with pytest.raises(ValueError):
        model.element({("c",): SuperPoly.top(3, 1)})


def test_random_elements_live_in_carrier():
    for d, v in [(3, Variant.mbcov()), (4, Variant.potential(2))]:
        model = cohomology_model(d, v)
        for slot in model.slots:
            el = model.random_element(slot, 3, seed=5)
            assert set(el.parts) <= {model.home(slot)}
            for poly in el.parts.values():
                assert model.membership(slot, poly)


def _slot_table(d, variant, slot):
    """(parity, xi-degree) of a slot, written out per slot kind."""
    k = variant.k
    if slot[0] == "pv":
        return slot[1] & 1, slot[1]
    if slot[0] == "pot":
        return (d - 1) & 1, d
    if slot[0] == "quot":
        return k & 1, k + 1
    return (d - 1) & 1, d


def test_slot_homes_give_parity_and_degree():
    count = 0
    for d in range(2, 7):
        for variant in [Variant.mbcov()] + [Variant.potential(k) for k in range(2, d)]:
            model = cohomology_model(d, variant)
            keys = summands(d, variant)
            for slot in model.slots:
                assert model.home(slot) in keys
                parity, degree = _slot_table(d, variant, slot)
                assert parity_of(model.home(slot), variant) == parity
                assert model.slot_xi_degree(slot) == degree
                count += 1
    assert count == 76
    central = cohomology_model(4, Variant.potential(2))
    assert central.home(("c",)) == ("p", 1) and central.home(("quot",)) == ("p", 0)
    for slot in [("pv", 2), ("pot",), ("x",)]:
        with pytest.raises(ValueError):
            central.home(slot)


def test_slots_have_distinct_homes_and_p_is_idempotent():
    # a carrier element is a field holding each slot's part at its home, so
    # no two slots may share one, and p fixes every field it returns
    slots = nonzero = 0
    for d in range(2, 8):
        for variant in [Variant.mbcov()] + [Variant.potential(k) for k in range(2, d)]:
            model = cohomology_model(d, variant)
            homes = [model.home(slot) for slot in model.slots]
            assert len(set(homes)) == len(homes)
            slots += len(homes)
            for i, key in enumerate(summands(d, variant)):
                p = model.project(random_field(d, variant, key, 3, seed=700 + i))
                assert model.project(p) == p
                nonzero += not p.is_zero()
    assert (slots, nonzero) == (122, 112)


def test_membership_is_canonical_form():
    model = cohomology_model(4, Variant.potential(2))
    nu = random_poly(4, 3, xi_degree_filter=3, seed=4)
    assert not model.membership(("quot",), nu)
    assert model.membership(("quot",), model.canonical(("quot",), nu))
    mu = SuperPoly.x(4, 1) * SuperPoly.xi(4, 1) + random_poly(4, 3, xi_degree_filter=1, seed=4)
    assert not pvcalc.divergence(mu).is_zero() and not model.membership(("pv", 1), mu)
    assert model.membership(("pv", 1), model.canonical(("pv", 1), mu))
    pot = cohomology_model(3, Variant.potential(2))
    top = random_poly(3, 3, xi_degree_filter=3, seed=4)
    assert pot.membership(("pot",), top) and pot.canonical(("pot",), top) == top
