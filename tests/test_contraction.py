import json
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

from polyvec import contraction, conventions, pvcalc, suites
from polyvec.complexes import (
    DescendantField,
    Variant,
    cohomology_model,
    differential,
    phi_map,
    random_field,
    summands,
    xi_degree_of,
)
from polyvec.contraction import (
    HomotopyDatum,
    build_datum,
    contraction_K,
    homotopy_relations,
    normalize_homotopy,
    scale_homotopy,
    side_conditions,
    verify_datum,
)
from polyvec.linf import field_structure
from polyvec.suites import CampaignConfig, suite_homotopy
from polyvec.superpoly import SuperPoly, monomial_basis, random_poly


def perturb_side_conditions(datum: HomotopyDatum) -> HomotopyDatum:
    """A datum with intact homotopy relations but broken side conditions.

    Adds iota . lam . p to H, where lam is an odd carrier map; since
    Q iota = 0 and p Q = 0 the defining relations survive, while
    p H iota = lam breaks the side conditions.
    """
    carrier = datum.carrier

    def lam(v: DescendantField) -> DescendantField:
        c = sum((coeff for _, coeff in v.part(carrier.home(("pv", 0))).terms()), Fraction(0))
        return carrier.element({("pv", 1): SuperPoly.xi(carrier.d, 1).scale(c)})

    def homotopy(psi: DescendantField) -> DescendantField:
        return datum.homotopy(psi) + lam(carrier.project(psi))

    return HomotopyDatum(carrier, homotopy)


def test_K_of_one_in_d1():
    assert contraction_K(SuperPoly.const(1, 1)) == SuperPoly.x(1, 1) * SuperPoly.xi(1, 1)


def test_K_defining_relation_on_cocycle():
    d = 2
    xi1 = SuperPoly.xi(d, 1)
    assert pvcalc.divergence(contraction_K(xi1)) == xi1


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_homotopy_identity(d):
    for j in range(d):
        for seed in range(10):
            mu = random_poly(d, 6, xi_degree_filter=j, seed=seed + 100 * j)
            lhs = pvcalc.divergence(contraction_K(mu)) + contraction_K(pvcalc.divergence(mu))
            assert lhs == mu


def test_flipped_euler_homotopy_sign_fails_the_homotopy_identity(monkeypatch):
    # contraction_K reads the sign at call time, so a flipped convention
    # reaches the kernel
    from polyvec.suites import CampaignConfig, suite_contraction

    cfg = CampaignConfig(d=3, max_degree=3, trials=10, seed=1, checks=("contraction",))

    def failed():
        return {r.check_id for r in suite_contraction(cfg).failures()}

    assert failed() == set()
    sign = conventions.euler_homotopy_sign
    monkeypatch.setattr(conventions, "euler_homotopy_sign", lambda k: -sign(k))
    assert failed() == {"contraction.d3.homotopy_identity"}


def test_top_output_constant_term_vanishes():
    d = 3
    for seed in range(100):
        mu = random_poly(d, 5, xi_degree_filter=d - 1, seed=seed)
        assert contraction_K(mu).top_constant() == 0


def test_K_raises_degree():
    mu = random_poly(3, 4, xi_degree_filter=1, seed=9)
    assert contraction_K(mu).xi_degrees() <= {2}


def test_K_squares_to_zero():
    for seed in range(10):
        mu = random_poly(3, 4, xi_degree_filter=seed % 3, seed=seed)
        assert contraction_K(contraction_K(mu)).is_zero()


def test_top_partial_inverse_identity():
    # K Delta on top polyvectors strips exactly the constant part
    d = 3
    for seed in range(10):
        mu = random_poly(d, 4, xi_degree_filter=d, seed=seed)
        want = mu - SuperPoly.monomial(d, (0,) * d, tuple(range(1, d + 1)), mu.top_constant())
        assert contraction_K(pvcalc.divergence(mu)) == want


# -- homotopy data ------------------------------------------------------


def test_projection_kills_positive_t_power():
    datum = build_datum(3, Variant.mbcov())
    psi = DescendantField.single(3, Variant.mbcov(), ("f", 1, 0), SuperPoly.x(3, 1))
    assert datum.carrier.project(psi).is_zero()


def test_p_iota_identity_on_divergence_free():
    datum = build_datum(3, Variant.mbcov())
    carrier = datum.carrier
    v = carrier.element({("pv", 2): SuperPoly.xi(3, 1) * SuperPoly.xi(3, 2)})
    assert carrier.project(v) == v


def test_potential_scalar_slot_projection():
    carrier = build_datum(4, Variant.potential(2)).carrier
    top = SuperPoly.monomial(4, (0,) * 4, (1, 2, 3, 4), 5)
    psi = DescendantField.single(4, Variant.potential(2), ("p", 1), top + SuperPoly.x(4, 1) * top)
    out = carrier.project(psi)
    assert out.parts == {carrier.home(("c",)): top}
    assert out.part(carrier.home(("c",))).top_constant() == 5
    # and an element of the central slot holds the constant top polyvector at its home
    back = carrier.element({("c",): top})
    assert back.parts == {("p", 1): top}


@pytest.mark.parametrize("d,variant", [
    (2, Variant.mbcov()),
    (3, Variant.mbcov()),
    (4, Variant.mbcov()),
    (3, Variant.potential(2)),
    (4, Variant.potential(3)),
    (4, Variant.potential(2)),
    (5, Variant.potential(2)),
])
def test_datum_relations(d, variant):
    datum = build_datum(d, variant)
    report = verify_datum(datum, sample_budget=60, seed=11, max_degree=4)
    assert report.ok, report.summary_text()
    # side conditions happen to hold for the scaling homotopy
    assert all(r.passed for r in report.records if not r.required)

    # every map is the sum of its values on the single-summand parts of a
    # field (and of a carrier element) with every summand filled
    keys = summands(d, variant)
    singles = [random_field(d, variant, key, 3, seed=i) for i, key in enumerate(keys)]
    psi = reduce(add, singles)
    assert set(psi.parts) == set(keys)
    carrier = datum.carrier
    maps = [differential, datum.homotopy, carrier.project]
    if variant.kind == "potential":
        maps.append(phi_map)
    for f in maps:
        assert f(psi) == reduce(add, map(f, singles)), f
    elements = [carrier.random_element(slot, 5, seed=40 + i) for i, slot in enumerate(carrier.slots)]
    v = reduce(add, elements)
    assert set(v.parts) == {carrier.home(slot) for slot in carrier.slots}
    assert carrier.project(v) == v

    # the field bracket is bilinear over summands; summand pairs of total
    # degree at most d keep its output in the complex, and several pairs
    # land on the same output summand
    if variant.kind == "mbcov":
        b2 = field_structure(d).brackets[2]
        low = [s for s, (_, i, j) in zip(singles, keys) if i + j <= d // 2]
        high = [s for s, (_, i, j) in zip(singles, keys) if i + j <= d - d // 2]
        out = b2(reduce(add, low), reduce(add, high))
        assert not out.is_zero()
        assert out == reduce(add, (b2(a, b) for a in low for b in high))


def test_corrupted_datum_reports_witness():
    datum = scale_homotopy(build_datum(3, Variant.mbcov()), 2)
    report = verify_datum(datum, sample_budget=30, seed=3)
    failures = report.failures()
    assert failures
    assert any("witness" in r.details for r in failures)


NEGATIVE_CONTROL_CONFIGS = [CampaignConfig(d=3, max_degree=3, trials=25, seed=42),
                            CampaignConfig(d=5, variant=Variant.potential(2), max_degree=3, trials=20, seed=7)]


@pytest.mark.parametrize("cfg", NEGATIVE_CONTROL_CONFIGS, ids=["mbcov_d3", "potential_2_d5"])
def test_negative_control_fails_when_the_homotopy_is_not_corrupted(monkeypatch, cfg):
    control = f"datum.{cfg.variant.label}.d{cfg.d}.negative_control"
    records = {r.check_id: r.passed for r in suite_homotopy(cfg).records}
    assert records[control]
    # a factor of 1 leaves H intact, so the control finds nothing to reject
    monkeypatch.setattr(suites, "scale_homotopy", lambda datum, factor: contraction.scale_homotopy(datum, 1))
    records = {r.check_id: r.passed for r in suite_homotopy(cfg).records}
    assert records[control] is False
    assert all(passed for check_id, passed in records.items() if check_id != control)


@pytest.mark.parametrize("cfg", NEGATIVE_CONTROL_CONFIGS, ids=["mbcov_d3", "potential_2_d5"])
def test_the_homotopy_suite_probes_the_side_conditions_once(monkeypatch, cfg):
    calls = []

    def probe(datum, seed, max_degree):
        calls.append((datum.side_conditions_hold, seed, max_degree))
        return side_conditions(datum, seed, max_degree)

    monkeypatch.setattr(contraction, "side_conditions", probe)
    suite_homotopy(cfg)
    assert calls == [(True, cfg.seed, cfg.max_degree)]


def test_homotopy_relations_are_the_homotopy_records_of_verify_datum():
    datum = scale_homotopy(build_datum(4, Variant.potential(2)), 2)
    full = verify_datum(datum, sample_budget=30, seed=3, max_degree=3)
    alone = homotopy_relations(datum, 30, 3, 3)
    assert alone.records == [r for r in full.records if ".homotopy." in r.check_id]
    assert not alone.ok


@pytest.mark.parametrize("d,variant", [(3, Variant.mbcov()), (4, Variant.potential(2))])
def test_homotopy_witness_replays_from_report_text(d, variant):
    # a homotopy witness names its summand and its polyvector as text; the
    # field rebuilt from the report line breaks the relation again
    datum = scale_homotopy(build_datum(d, variant), 2)
    report = verify_datum(datum, sample_budget=30, seed=3)
    records = [json.loads(line) for line in report.to_jsonl().splitlines()[1:]]
    witnesses = [r["details"]["witness"] for r in records if ".homotopy." in r["check"] and not r["passed"]]
    assert witnesses
    for w in witnesses:
        psi = DescendantField.single(d, variant, tuple(w["summand"]), SuperPoly.parse(d, w["poly"]))
        lhs = psi - datum.carrier.project(psi)
        assert lhs != differential(datum.homotopy(psi)) + datum.homotopy(differential(psi))


def test_perturbed_side_conditions_and_normalization():
    datum = perturb_side_conditions(build_datum(3, Variant.mbcov()))
    report = verify_datum(datum, sample_budget=30, seed=5)
    assert report.ok  # the defining relations survive
    assert any(not r.passed for r in report.records if not r.required)
    fixed = normalize_homotopy(datum)
    report = verify_datum(fixed, sample_budget=30, seed=5)
    assert report.ok
    assert all(r.passed for r in report.records if not r.required)


def test_invalid_variant_rejected():
    with pytest.raises(ValueError):
        build_datum(3, Variant.potential(1))
    with pytest.raises(ValueError):
        build_datum(3, Variant.potential(3))
    with pytest.raises(ValueError):
        build_datum(1, Variant.mbcov())


def test_witness_text_of_carrier_element():
    d = 4
    xi = lambda i: SuperPoly.xi(d, i)
    carrier = cohomology_model(d, Variant.potential(2))
    v = carrier.element({("pv", 1): xi(1), ("pv", 3): xi(1) * xi(2) * xi(3),
                         ("quot",): contraction_K(xi(3) * xi(4)), ("c",): SuperPoly.top(d, 2)})
    assert repr(carrier.to_dict(v)) == ("{'c': '2*xi1*xi2*xi3*xi4', 'pv/1': 'xi1', 'pv/3': 'xi1*xi2*xi3', "
                          "'quot': '1/2*x2*xi2*xi3*xi4 + 1/2*x1*xi1*xi3*xi4'}")


def test_side_conditions_probe():
    datum = build_datum(4, Variant.potential(2))
    assert side_conditions(datum, seed=1, max_degree=3) == {
        "H_squared": True, "p_H": True, "H_iota": True}
    broken = side_conditions(perturb_side_conditions(build_datum(3, Variant.mbcov())),
                             seed=2, max_degree=3)
    assert list(broken) == ["H_squared", "p_H", "H_iota"]
    assert not broken["p_H"] and not broken["H_iota"]


def _exact_side_conditions(datum, max_degree=3):
    """H^2 = 0, p H = 0 and H iota = 0 evaluated on every basis monomial
    psi of every summand through max_degree (H iota on p psi: as psi runs
    over the basis, p psi spans the carrier there), with the number of
    monomials.  Each condition is linear, so this is a proof at that
    truncation."""
    carrier = datum.carrier
    d, variant = carrier.d, carrier.variant
    fields = [DescendantField.single(d, variant, key, SuperPoly(d, {m: 1})) for key in summands(d, variant)
              for m in monomial_basis(d, max_degree, xi_degrees=[xi_degree_of(key, variant)])]
    return {
        "H_squared": all(datum.homotopy(datum.homotopy(psi)).is_zero() for psi in fields),
        "p_H": all(carrier.project(datum.homotopy(psi)).is_zero() for psi in fields),
        "H_iota": all(datum.homotopy(carrier.project(psi)).is_zero() for psi in fields),
    }, len(fields)


def test_build_datum_side_conditions_hold_on_every_basis_monomial():
    total = 0
    for d in range(2, 6):
        for variant in [Variant.mbcov()] + [Variant.potential(k) for k in range(2, d)]:
            held, count = _exact_side_conditions(build_datum(d, variant))
            assert held == {"H_squared": True, "p_H": True, "H_iota": True}, (d, variant)
            total += count
    assert total == 4064


def test_exact_side_conditions_flag_the_perturbed_datum():
    # the sampled probe (side_conditions) can miss p_H on this datum, at
    # seeds 5 and 34 for instance; the basis evaluation cannot
    held, _ = _exact_side_conditions(perturb_side_conditions(build_datum(3, Variant.mbcov())))
    assert held == {"H_squared": True, "p_H": False, "H_iota": False}


def test_normalized_data_have_the_side_conditions_exactly():
    # what normalize_homotopy's side_conditions_hold asserts, on data that
    # lack the side conditions (perturbed) or the homotopy relations (scaled)
    total = 0
    for d, variant in [(2, Variant.mbcov()), (3, Variant.mbcov()),
                       (3, Variant.potential(2)), (4, Variant.potential(2))]:
        datum = build_datum(d, variant)
        for broken in (perturb_side_conditions(datum), scale_homotopy(datum, 2)):
            held, count = _exact_side_conditions(normalize_homotopy(broken))
            assert held == {"H_squared": True, "p_H": True, "H_iota": True}, (d, variant)
            total += count
    assert total == 996


def test_datum_is_carrier_plus_homotopy():
    from dataclasses import fields

    from polyvec.contraction import HomotopyDatum

    assert [f.name for f in fields(HomotopyDatum)] == ["carrier", "homotopy", "side_conditions_hold"]
    datum = build_datum(3, Variant.mbcov())
    assert datum.side_conditions_hold is True
    for derived in (scale_homotopy(datum, 2), perturb_side_conditions(datum),
                    normalize_homotopy(datum)):
        assert derived.carrier is datum.carrier and derived.homotopy is not datum.homotopy
    assert scale_homotopy(datum, 2).side_conditions_hold is False
    assert perturb_side_conditions(datum).side_conditions_hold is False
    assert normalize_homotopy(perturb_side_conditions(datum)).side_conditions_hold is True
    assert HomotopyDatum(datum.carrier, datum.homotopy).side_conditions_hold is False


def test_homotopy_rejects_a_field_of_another_complex():
    # an mbcov d = 3 field with a part at every summand; the potential(2)
    # datum's step table would keep only the parts at keys it shares
    psi = reduce(add, (random_field(3, Variant.mbcov(), key, 3, seed=i)
                       for i, key in enumerate(summands(3, Variant.mbcov()))))
    assert set(psi.parts) == set(summands(3, Variant.mbcov()))
    assert len(build_datum(3, Variant.mbcov()).homotopy(psi).parts) == 3
    with pytest.raises(ValueError, match="cannot project a field of a different complex"):
        build_datum(3, Variant.potential(2)).homotopy(psi)
