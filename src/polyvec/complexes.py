"""Graded field complexes over C^d with polynomial coefficients.

Two families of complexes are modelled, both with differential Q = t*Delta
where t is an even formal parameter:

* the minimal theory: summands t^i PV^j with i, j >= 0 and i + j <= d - 1;
* the k-potential variants (2 <= k <= d-1): the minimal summands with the
  diagonal i + j = k removed, together with a separate potential tower
  t^{-m} PV^{k+m+1} for 0 <= m <= d-k-1.  The self-pairing case
  k = (d-1)/2 for odd d is accepted; it lacks only the Poisson pairing.

Summand keys are ("f", i, j) for the minimal summands and ("p", m) for
the potential tower, and this module is the only one that reads them.
The summand grid of a complex (grid) holds each summand's xi-degree and
two step tables: each summand's neighbour one step up the diagonal
(t-power + 1, xi-degree - 1, within its family), where Q = t Delta moves
it, and one step down, where H = t^{-1} K moves it; a neighbour that is
not a summand is left out, so the tower's final summand carries no
outgoing differential.  The comparison map phi sends a potential complex
to the minimal complex by the divergence on the head ("p", 0) of the
tower and the identity on the minimal summands (phi_parts, the one
statement of that rule).  A carrier slot is placed at its home summand
(CarrierModel.home), so the layers above place parts through homes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import chain
from typing import NamedTuple

from . import pvcalc
from .superpoly import SuperPoly, homogeneous, random_coefficient, random_poly

FieldKey = tuple
SlotKey = tuple


@dataclass(frozen=True)
class Variant:
    kind: str  # "mbcov" | "potential"
    k: int | None = None

    @classmethod
    def mbcov(cls) -> "Variant":
        return cls("mbcov")

    @classmethod
    def potential(cls, k: int) -> "Variant":
        return cls("potential", k)

    def validate(self, d: int):
        if self.kind == "mbcov":
            if d < 2:
                raise ValueError("minimal theory requires d >= 2")
            return
        if self.kind == "potential":
            # The self-pairing case k = (d-1)/2 (d odd) lacks the Poisson
            # pairing but has the same complex and bracket structure, so it
            # is accepted here.
            k = self.k
            if k is None or not 2 <= k <= d - 1:
                raise ValueError(f"potential variant requires 2 <= k <= d-1, got k={k}, d={d}")
            return
        raise ValueError(f"unknown variant kind {self.kind!r}")

    @property
    def label(self) -> str:
        return "mbcov" if self.kind == "mbcov" else f"potential({self.k})"


def summands(d: int, variant: Variant) -> list[FieldKey]:
    variant.validate(d)
    keys: list[FieldKey] = []
    if variant.kind == "mbcov":
        for s in range(d):
            for i in range(s + 1):
                keys.append(("f", i, s - i))
        return keys
    k = variant.k
    for s in range(d):
        if s == k:
            continue
        for i in range(s + 1):
            keys.append(("f", i, s - i))
    for m in range(d - k):
        keys.append(("p", m))
    return keys


def xi_degree_of(key: FieldKey, variant: Variant) -> int:
    if key[0] == "f":
        return key[2]
    return variant.k + key[1] + 1


class Grid(NamedTuple):
    """The summand grid of one complex (see the module docstring)."""

    xi_degrees: dict[FieldKey, int]  # every summand's xi-degree
    up: dict[FieldKey, FieldKey]  # the neighbour one step up, where Q moves a part
    down: dict[FieldKey, FieldKey]  # the neighbour one step down, where H moves a part


@cache
def grid(d: int, variant: Variant) -> Grid:
    """The grid of the complex: a step of n moves ("f", i, j) to
    ("f", i+n, j-n) and ("p", m) to ("p", m-n), kept where that is a
    summand."""
    keys = summands(d, variant)
    degrees = {key: xi_degree_of(key, variant) for key in keys}

    def steps(n):
        moved = ((key, ("f", key[1] + n, key[2] - n) if key[0] == "f" else ("p", key[1] - n))
                 for key in keys)
        return {key: to for key, to in moved if to in degrees}

    return Grid(degrees, steps(1), steps(-1))


def t_power_of(key: FieldKey) -> int:
    if key[0] == "f":
        return key[1]
    return -key[1]


def parity_of(key: FieldKey, variant: Variant) -> int:
    """Parity used for Koszul bookkeeping (the shifted-symmetric convention).

    Minimal summands carry the xi-parity of their polyvector (t is even);
    a potential summand sits one degree off its underlying polyvector.
    """
    if key[0] == "f":
        return key[2] & 1
    return (variant.k + key[1]) & 1


def collect(pairs) -> dict:
    """Sum the (key, SuperPoly) pairs that share a key into one dict."""
    out: dict = {}
    for key, poly in pairs:
        out[key] = out[key] + poly if key in out else poly
    return out


def invalid_summand(key: FieldKey, d: int, variant: Variant) -> ValueError:
    """The error for a part placed at a key that is not a summand."""
    return ValueError(f"invalid summand {key} for {variant.label}, d={d}")


def check_complex(psi: DescendantField, d: int, variant: Variant) -> None:
    """Raise ValueError unless psi is a field of the (d, variant) complex:
    a map built on that complex's grid would misread another's parts."""
    if (psi.d, psi.variant) != (d, variant):
        raise ValueError("cannot project a field of a different complex")


@dataclass
class DescendantField:
    """Finitely supported map from summand keys to xi-homogeneous SuperPolys.

    Validation happens at the public edge: the constructor (and so single),
    CarrierModel.element and phi_map reject a key that is not a summand and
    a part of the wrong xi-degree with ValueError.  The field layer's own
    results (+, -, scale, step and so Q and H, CarrierModel.project and
    random_element) and linf's source b2, whose parts are valid by
    construction, are built by _trusted.  Both paths drop zero parts, so
    == compares the parts dicts.
    """

    d: int
    variant: Variant
    parts: dict[FieldKey, SuperPoly] = field(default_factory=dict)

    def __post_init__(self):
        degrees = grid(self.d, self.variant).xi_degrees
        cleaned = {}
        for key, poly in self.parts.items():
            if key not in degrees:
                raise invalid_summand(key, self.d, self.variant)
            if poly.is_zero():
                continue
            if poly.xi_degrees() - {degrees[key]}:
                raise ValueError(f"summand {key} holds a wrong xi-degree")
            cleaned[key] = poly
        self.parts = cleaned

    @classmethod
    def _trusted(cls, d: int, variant: Variant, parts: dict) -> "DescendantField":
        """The field with parts already valid summand parts (each key a
        summand, each poly of its xi-degree); only zero parts are dropped."""
        psi = cls.__new__(cls)
        psi.d = d
        psi.variant = variant
        psi.parts = {key: poly for key, poly in parts.items() if not poly.is_zero()}
        return psi

    @classmethod
    def zero(cls, d: int, variant: Variant) -> "DescendantField":
        return cls(d, variant, {})

    @classmethod
    def single(cls, d: int, variant: Variant, key: FieldKey, poly: SuperPoly) -> "DescendantField":
        return cls(d, variant, {key: poly})

    def __add__(self, other: "DescendantField") -> "DescendantField":
        if (self.d, self.variant) != (other.d, other.variant):
            raise ValueError("cannot add fields of different complexes")
        return DescendantField._trusted(self.d, self.variant,
                                        collect(chain(self.parts.items(), other.parts.items())))

    def __neg__(self) -> "DescendantField":
        return DescendantField._trusted(self.d, self.variant, {key: -poly for key, poly in self.parts.items()})

    def __sub__(self, other: "DescendantField") -> "DescendantField":
        return self + (-other)

    def scale(self, value) -> "DescendantField":
        """value * self, part by part."""
        return DescendantField._trusted(self.d, self.variant,
                                        {key: poly.scale(value) for key, poly in self.parts.items()})

    def is_zero(self) -> bool:
        return not self.parts

    def part(self, key: FieldKey) -> SuperPoly:
        return self.parts.get(key, SuperPoly.zero(self.d))

    def parity(self) -> int:
        """The Koszul parity of a parity-homogeneous field (0 for zero)."""
        return homogeneous((parity_of(key, self.variant) for key in self.parts),
                           "field is not parity-homogeneous")


def step(psi: DescendantField, table: dict, op) -> DescendantField:
    """op on every part of psi, moved to the part's neighbour in table, a
    step table of psi's grid; a part with no neighbour is dropped.  A step
    table is injective, so no two parts meet.  op must shift the xi-degree
    as the table does (Delta one down for up, K one up for down), so the
    moved parts are valid and the field is built trusted."""
    return DescendantField._trusted(psi.d, psi.variant, {
        table[key]: op(poly) for key, poly in psi.parts.items() if key in table})


def differential(psi: DescendantField) -> DescendantField:
    """Q = t * Delta: Delta moved one step up the grid, ("f", i, j) to
    ("f", i+1, j-1) and ("p", m) to ("p", m-1); the head ("p", 0) has no
    outgoing arrow and Delta vanishes on xi-degree 0."""
    return step(psi, grid(psi.d, psi.variant).up, pvcalc.divergence)


def phi_parts(psi: DescendantField, head_map):
    """The (minimal key, poly) parts of phi(psi): the minimal parts as they
    are, the head of the tower through head_map onto the removed diagonal
    ("f", 0, k), the rest of the tower dropped."""
    for key, poly in psi.parts.items():
        if key[0] == "f":
            yield key, poly
        elif key == ("p", 0):
            yield ("f", 0, psi.variant.k), head_map(poly)


def phi_map(psi: DescendantField) -> DescendantField:
    """Chain map from a potential complex to the minimal complex: phi_parts
    with the divergence on the head.  The diagonal is not a summand of the
    potential complex, so no two parts meet."""
    if psi.variant.kind != "potential":
        raise ValueError("phi_map expects a potential-variant field")
    return DescendantField(psi.d, Variant.mbcov(), dict(phi_parts(psi, pvcalc.divergence)))


# -- cohomology carriers ----------------------------------------------


@dataclass(frozen=True)
class CarrierModel:
    """A minimal-model carrier: each slot is a subspace of one summand of
    the field complex (its home), cut out by a canonical representative.

    No two slots share a home, so a carrier element is a DescendantField
    whose parts sit at the slots' homes in canonical form; the inclusion
    iota is the identity.
    """

    d: int
    variant: Variant
    slots: tuple[SlotKey, ...]

    def home(self, slot: SlotKey) -> FieldKey:
        """The summand the slot lives in: divergence-free polyvectors at
        t^0, PV^d or the quotient at the head of the potential tower, and
        the central line at its tail."""
        if slot not in self.slots:
            raise ValueError(f"slot {slot} is not in the carrier")
        if slot[0] == "pv":
            return ("f", 0, slot[1])
        if slot == ("c",):
            return ("p", self.d - self.variant.k - 1)
        return ("p", 0)

    def canonical(self, slot: SlotKey, poly: SuperPoly) -> SuperPoly:
        """The slot's canonical representative of poly, through pvcalc's K:
        the divergence-free part (id - K Delta) for pv, K Delta for the
        quotient, the constant top polyvector for the central line, poly
        itself for the full PV^d slot."""
        if slot[0] == "pv":
            return pvcalc.divergence_free_part(poly)
        if slot[0] == "quot":
            return pvcalc.contraction_K(pvcalc.divergence(poly))
        if slot == ("c",):
            return SuperPoly.top(self.d, poly.top_constant())
        return poly

    def slot_xi_degree(self, slot: SlotKey) -> int:
        return xi_degree_of(self.home(slot), self.variant)

    def membership(self, slot: SlotKey, poly: SuperPoly) -> bool:
        """Whether a SuperPoly is a valid value for the slot: of the slot's
        xi-degree and its own canonical representative (for pv, K Delta p = 0
        is Delta p = 0)."""
        if slot not in self.slots or poly.xi_degrees() - {self.slot_xi_degree(slot)}:
            return False
        return poly == self.canonical(slot, poly)

    def project(self, psi: DescendantField) -> DescendantField:
        """p: each slot reads its home summand and canonicalizes it.  A
        canonical form keeps the home's xi-degree, so psi, which must be a
        field of this complex, gives valid parts."""
        check_complex(psi, self.d, self.variant)
        homes = ((slot, self.home(slot)) for slot in self.slots)
        return DescendantField._trusted(self.d, self.variant, {
            key: self.canonical(slot, psi.parts[key]) for slot, key in homes if key in psi.parts})

    def element(self, parts: dict) -> DescendantField:
        """The projection of the field holding each slot's part at its home,
        so every part is stored in canonical form; an unknown slot or a
        part of the wrong xi-degree raises ValueError."""
        return self.project(DescendantField(self.d, self.variant, {
            self.home(slot): poly for slot, poly in parts.items()}))

    def random_element(self, slot: SlotKey, max_degree: int, seed: int) -> DescendantField:
        """Seeded slot-homogeneous element in canonical form."""
        if slot == ("c",):
            value = SuperPoly.top(self.d, random_coefficient(seed))
        else:
            raw = random_poly(self.d, max_degree, xi_degree_filter=self.slot_xi_degree(slot), seed=seed)
            value = self.canonical(slot, raw)
        return DescendantField._trusted(self.d, self.variant, {self.home(slot): value})

    def to_dict(self, v: DescendantField) -> dict:
        """Slot id -> polyvector text in sorted slot order; SuperPoly.parse
        reads each value back."""
        return {"/".join(map(str, slot)): str(v.parts[key])
                for slot in sorted(self.slots) if (key := self.home(slot)) in v.parts}


def cohomology_model(d: int, variant: Variant) -> CarrierModel:
    """The carrier of the minimal model for the given complex.

    * minimal theory: divergence-free polyvectors of degree 0..d-1;
    * k = d-1 potentials: full PV^d plus divergence-free degrees 0..d-2;
    * k < d-1 potentials: the central line c (constant top polyvectors at
      the tail of the potential tower), the quotient PV^{k+1} / Delta
      PV^{k+2} (stored via canonical representatives), and divergence-free
      degrees j <= d-1 with j != k.
    """
    variant.validate(d)
    if variant.kind == "mbcov":
        slots = tuple(("pv", j) for j in range(d))
    elif variant.k == d - 1:
        slots = tuple(("pv", j) for j in range(d - 1)) + (("pot",),)
    else:
        slots = tuple(("pv", j) for j in range(d) if j != variant.k) + (("quot",), ("c",))
    return CarrierModel(d, variant, slots)


def random_field(d: int, variant: Variant, key: FieldKey, max_degree: int, seed: int) -> DescendantField:
    """Seeded single-summand field."""
    j = xi_degree_of(key, variant)
    poly = random_poly(d, max_degree, xi_degree_filter=j, seed=seed)
    if poly.is_zero():
        poly = SuperPoly.monomial(d, (0,) * d, tuple(range(1, j + 1)))
    return DescendantField.single(d, variant, key, poly)
