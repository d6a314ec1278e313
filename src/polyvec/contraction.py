"""Homotopy data (H, p, iota) between a field complex and its carrier.

This module holds homotopy data only; the contraction homotopy K of the
divergence lives in pvcalc, and is imported here (and so also resolves
as contraction.contraction_K) to build H.  A datum is the carrier, which
supplies p (CarrierModel.project), plus a homotopy H; a carrier element
is a field, so iota is the identity, and Q is complexes.differential.
The relations p iota = id and id - iota p = Q H + H Q are checked
summand by summand by verify_datum, the second through
homotopy_relations, which the homotopy suite's negative control runs
alone.  The side conditions H^2 = 0, H iota = 0, p H = 0 are not
required.  A datum states whether it has them (side_conditions_hold):
build_datum's H has them by construction, and normalize_homotopy
arranges them; every other datum, hand-built ones included, leaves the
flag False.  verify_datum reports them from the seeded probe
side_conditions, which can miss a failure, and is the only caller of
that probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from .complexes import (
    CarrierModel,
    DescendantField,
    Variant,
    check_complex,
    cohomology_model,
    differential,
    grid,
    random_field,
    step,
    summands,
)
from .pvcalc import contraction_K
from .reporting import Report
from .superpoly import SuperPoly, sample_seed


@dataclass(frozen=True)
class HomotopyDatum:
    """A homotopy H between a field complex and its carrier.

    The complex is the carrier's (carrier.d, carrier.variant), Q is
    complexes.differential, p is carrier.project and iota is the identity
    (a carrier element is a field); only H varies between data.
    side_conditions_hold states that H^2 = 0, H iota = 0 and p H = 0
    hold exactly; transfer normalizes a datum without it.
    """

    carrier: CarrierModel
    homotopy: Callable[[DescendantField], DescendantField]
    side_conditions_hold: bool = False


def build_datum(d: int, variant: Variant) -> HomotopyDatum:
    """The explicit homotopy datum for a complex.

    H = t^{-1} K: K moved one step down the grid, bound once per datum.  It
    vanishes on the minimal t^0 summands and on the final potential
    summand, which have no neighbour below.  The step table is this
    complex's, so a field of another complex raises the ValueError of
    CarrierModel.project.  H has the side conditions, so the datum sets
    side_conditions_hold; tier-1 certifies them exactly on every basis
    monomial through degree 3 for d = 2..5 and every variant.
    """
    carrier = cohomology_model(d, variant)
    down = grid(d, variant).down

    def homotopy(psi: DescendantField) -> DescendantField:
        check_complex(psi, d, variant)
        return step(psi, down, contraction_K)

    return HomotopyDatum(carrier, homotopy, side_conditions_hold=True)


def scale_homotopy(datum: HomotopyDatum, factor) -> HomotopyDatum:
    """Deliberately corrupted datum (negative control): H -> factor * H."""

    def homotopy(psi: DescendantField) -> DescendantField:
        return datum.homotopy(psi).scale(factor)

    return HomotopyDatum(datum.carrier, homotopy)


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


def normalize_homotopy(datum: HomotopyDatum) -> HomotopyDatum:
    """Arrange the side conditions H iota = 0, p H = 0, H^2 = 0.

    Applies the classical replacements H <- H (1 - iota p),
    H <- (1 - iota p) H, H <- H Q H; each step preserves the homotopy
    relations (Q iota = 0 and p Q = 0 hold for every datum built here),
    and the result has side_conditions_hold set.
    """
    carrier = datum.carrier

    def one_minus_ip(psi):
        return psi - carrier.project(psi)

    h1 = lambda psi: datum.homotopy(one_minus_ip(psi))
    h2 = lambda psi: one_minus_ip(h1(psi))
    h3 = lambda psi: h2(differential(h2(psi)))
    return HomotopyDatum(carrier, h3, side_conditions_hold=True)


def verify_datum(datum: HomotopyDatum, sample_budget: int = 50, seed: int = 0,
                 max_degree: int = 4) -> Report:
    """Exact checks of the homotopy relations on every summand and slot.

    Required: p iota = id on every carrier slot, and
    id - iota p = Q H + H Q on every summand of the complex
    (homotopy_relations).  Side conditions (H^2, H iota, p H) are
    reported informationally.
    """
    report = Report()
    carrier = datum.carrier
    d, variant = carrier.d, carrier.variant

    def p_iota(slot, draw, t):
        v = carrier.random_element(slot, max_degree, seed=draw())
        got = carrier.project(v)
        if got != v:
            yield {"slot": list(slot), "element": carrier.to_dict(v), "projected": carrier.to_dict(got)}

    # the sample budget is split evenly over the slots
    for slot in carrier.slots:
        report.sampled(f"datum.{variant.label}.d{d}.p_iota.{_key_id(slot)}", seed,
                       max(1, sample_budget // len(carrier.slots)), partial(p_iota, slot))
    report.extend(homotopy_relations(datum, sample_budget, seed, max_degree))

    # side conditions, informational only
    for name, ok in side_conditions(datum, seed, max_degree).items():
        report.add(f"datum.{variant.label}.d{d}.side.{name}", ok, required=False)
    return report


def homotopy_relations(datum: HomotopyDatum, sample_budget: int, seed: int, max_degree: int) -> Report:
    """The families id - iota p = Q H + H Q of verify_datum, one per summand.

    They are the only families of a datum that involve H, so a corrupted
    H is detected by these alone: the homotopy suite's negative control
    runs only them.  The sample budget is split evenly over the summands.
    """
    report = Report()
    carrier = datum.carrier
    d, variant = carrier.d, carrier.variant
    keys = summands(d, variant)

    def homotopy(key, draw, t):
        psi = random_field(d, variant, key, max_degree, seed=draw())
        lhs = psi - carrier.project(psi)
        rhs = differential(datum.homotopy(psi)) + datum.homotopy(differential(psi))
        if lhs != rhs:
            yield {"summand": list(key), "poly": str(psi.part(key))}

    for key in keys:
        report.sampled(f"datum.{variant.label}.d{d}.homotopy.{_key_id(key)}", seed,
                       max(1, sample_budget // len(keys)), partial(homotopy, key))
    return report


def side_conditions(datum: HomotopyDatum, seed: int, max_degree: int) -> dict[str, bool]:
    """Probe H^2 = 0 and p H = 0 on one seeded field per summand and
    H iota = 0 on one seeded element per carrier slot."""
    carrier = datum.carrier
    d, variant = carrier.d, carrier.variant
    keys = summands(d, variant)

    def fields(name):
        return (random_field(d, variant, key, max_degree, seed=sample_seed(seed, name, key))
                for key in keys)

    return {
        "H_squared": all(datum.homotopy(datum.homotopy(psi)).is_zero() for psi in fields("H_squared")),
        "p_H": all(carrier.project(datum.homotopy(psi)).is_zero() for psi in fields("p_H")),
        "H_iota": all(
            datum.homotopy(carrier.random_element(
                slot, max_degree, seed=sample_seed(seed, "Hi", slot))).is_zero()
            for slot in carrier.slots),
    }


def _key_id(key) -> str:
    return "_".join(str(s) for s in key)
