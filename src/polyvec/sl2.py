"""The sl2 action on SHO(3|3), its central extension, and the field theory.

On generators, h is diagonal with eigenvalue (xi-degree - 1); e is the
adjoint action of the cubic generator c * xi1 xi2 xi3 (a member of
SHO' but not of SHO, so the derivation is outer); f is given by an
explicit table on the principal-degree 0 and 1 pieces and vanishes on
degree -1.  On the odd two-dimensional center the action is the
standard representation: h = diag(1, -1), e: e2 -> e1, f: e1 -> e2 in
the (e1, e2) basis.

The field side packages the Z/2 description of the 2-potential theory
in three dimensions: an even pair of functions (the e1 and e2
coordinates), an odd 1-polyvector, and an odd descendant function.  sl2
acts by the standard representation on the pair and by zero elsewhere;
embed() identifies the extension with field configurations, and the
equivariance comparison checks that the two actions agree through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from . import conventions, pvcalc
from ._linalg import solve_combination
from .contraction import contraction_K
from .reporting import Report
from .sho import (
    ExtElement,
    ext_bracket_d3,
    ext_element,
    levi_civita,
    random_sho_generator,
    sho_basis,
)
from .superpoly import SuperPoly, sample_seed


E_GENERATOR = SuperPoly.top(3, conventions.E_GENERATOR_COEFF)


def act_h(v: ExtElement) -> ExtElement:
    """h: a generator of xi-degree s has weight s - 1; h e1 = e1, h e2 = -e2."""
    _require_d3(v)
    return ExtElement(v.gen.scale_by_xi_degree(lambda s: s - 1), v.c1, -v.c2)


def act_e(v: ExtElement) -> ExtElement:
    """e: the adjoint of the outer generator; e e2 = e1, e e1 = 0.

    The Schouten bracket against the outer generator lands in the
    2-polyvectors, so it needs no carving and feeds no channel.
    """
    _require_d3(v)
    image = pvcalc.schouten(E_GENERATOR, v.gen)
    out = ext_element(image)
    return ExtElement(out.gen, out.c1 + v.c2, out.c2)


class OutsideVerifiedDomain(ValueError):
    """f is only defined on principal degrees <= 1 (plus the center)."""


def _in_f_domain(v: ExtElement) -> bool:
    """Whether f's table covers v: no component of principal degree above 1."""
    return all(deg <= 1 for deg in v.gen.principal_components())


def _leibniz_sides(action, a: ExtElement, b: ExtElement, ab: ExtElement):
    """Both sides of x.[a, b] = [x.a, b] + [a, x.b] for x = action, given ab = [a, b]."""
    return action(ab), ext_bracket_d3(action(a), b) + ext_bracket_d3(a, action(b))


def act_f(v: ExtElement) -> ExtElement:
    """f by its table on principal degrees -1, 0, 1; f e1 = e2, f e2 = 0.

    Raises OutsideVerifiedDomain when the generator has components of
    principal degree above 1.
    """
    _require_d3(v)
    if not _in_f_domain(v):
        raise OutsideVerifiedDomain("generator has principal degree above 1")
    gen = SuperPoly.zero(3)
    # only xi-degree-2 components map nontrivially
    two = v.gen.xi_component(2)
    for mono, coeff in two._terms.items():
        xdeg = sum(mono.exps)
        a, b = mono.odd
        if xdeg == 0:
            # f(xi_i xi_j) = sign * eps_{ijk} x_k
            k = ({1, 2, 3} - {a, b}).pop()
            gen = gen + SuperPoly.x(3, k).scale(
                conventions.F_TABLE_QUADRATIC * levi_civita(a, b, k) * coeff)
        else:
            l = next(idx + 1 for idx, e in enumerate(mono.exps) if e)
            if l not in (a, b):
                # f(x_i xi_j xi_k) = sign * (1/2) eps_{ijk} x_i^2
                square = SuperPoly.x(3, l) * SuperPoly.x(3, l)
                gen = gen + square.scale(
                    Fraction(conventions.F_TABLE_CUBIC * levi_civita(l, a, b), 2) * coeff)
            else:
                # diagonal terms pair up into x_i xi_i xi_j - x_k xi_k xi_j;
                # divergence freeness makes the decomposition unique
                j = b if l == a else a
                sign_order = 1 if l == a else -1  # x_l xi_l xi_j vs x_l xi_j xi_l
                i = l
                k = ({1, 2, 3} - {i, j}).pop()
                t = sign_order * coeff  # coefficient of x_i xi_i xi_j in product order
                value = SuperPoly.x(3, i) * SuperPoly.x(3, k)
                gen = gen + value.scale(
                    Fraction(conventions.F_TABLE_DIAGONAL * levi_civita(i, j, k) * t, 2))
    return ExtElement(gen, 0, v.c1)


def _require_d3(v: ExtElement):
    if v.d != 3:
        raise ValueError("the sl2 action is implemented for d = 3")


# Diagonal branch bookkeeping: divergence freeness forces the two diagonal
# coefficients t_{i,j}, t_{k,j} for a fixed j to be opposite, so assigning
# each monomial half of its difference's table value reproduces
# f(x_i xi_i xi_j - x_k xi_k xi_j) exactly.


def extend_f(v: ExtElement) -> ExtElement | None:
    """Best-effort extension of f above principal degree 1.

    Components of degree n >= 2 are decomposed as sums of brackets of a
    degree-1 generator with a degree-(n-1) generator; when a
    decomposition exists, f is propagated through the derivation rule.
    Returns None ("undetermined") when no decomposition is found.
    Different decompositions are not checked against each other.
    """
    _require_d3(v)
    by_degree = v.gen.principal_components()
    total = act_f(ExtElement(SuperPoly.zero(3), v.c1, v.c2))
    for deg, comp in by_degree.items():
        if deg <= 1:
            total = total + act_f(ExtElement(comp))
            continue
        ones = [g for g in sho_basis(3, 1)
                if set(g.principal_components()) == {1}]
        lowers = [g for g in sho_basis(3, deg - 1)
                  if set(g.principal_components()) == {deg - 1}]
        pairs = [(u, w) for u in ones for w in lowers]
        columns = [pvcalc.schouten(u, w)._terms for u, w in pairs]
        coeffs = solve_combination(columns, comp._terms)
        if coeffs is None:
            return None
        for c, (u, w) in zip(coeffs, pairs):
            if c == 0:
                continue
            fu = act_f(ext_element(u))
            fw = extend_f(ext_element(w)) if deg - 1 > 1 else act_f(ext_element(w))
            if fw is None:
                return None
            piece = ext_bracket_d3(fu, ext_element(w)) + ext_bracket_d3(ext_element(u), fw)
            total = total + piece.scale(c)
    return total


def sl2_relations_check(truncation: int = 3, trials: int = 40, seed: int = 0) -> Report:
    """Derivation properties and operator relations on the verified domain."""
    report = Report()

    # h and e are derivations at every sampled principal degree
    def derivation(name, action):
        for t in range(trials):
            a, b = (ext_element(random_sho_generator(
                truncation + 2, seed=sample_seed(seed, f"sl2.derivation.{name}", t, i))) for i in range(2))
            lhs, rhs = _leibniz_sides(action, a, b, ext_bracket_d3(a, b))
            if lhs != rhs:
                yield {"a": str(a), "b": str(b)}

    for name, action in (("h", act_h), ("e", act_e)):
        report.check(f"sl2.derivation.{name}", derivation(name, action))

    # f is a derivation on degree <= 1 pairs whose bracket stays in degree <= 1
    def derivation_f():
        checked = 0
        for t in range(8 * trials):
            a, b = (_random_low_degree(seed=sample_seed(seed, "sl2.derivation.f", t, i)) for i in range(2))
            ab = ext_bracket_d3(a, b)
            if not _in_f_domain(ab):
                continue
            checked += 1
            lhs, rhs = _leibniz_sides(act_f, a, b, ab)
            if lhs != rhs:
                yield {"a": str(a), "b": str(b)}
            if checked >= trials:
                break
        return {"pairs": checked}

    report.check("sl2.derivation.f", derivation_f())

    # operator relations
    def relation(name, lhs_fn, rhs_fn, domain):
        for t in range(trials):
            s = sample_seed(seed, f"sl2.relation.{name}", t)
            deg = sample_seed(s, "degree") % (domain + 2) - 1  # principal degree in [-1, domain]
            v = _random_principal(deg, seed=s)
            if v.gen.is_zero():
                continue
            if lhs_fn(v) != rhs_fn(v):
                yield {"element": str(v), "degree": deg}

    for name, lhs_fn, rhs_fn, domain in (
        ("h_e", lambda v: _comm(act_h, act_e, v), lambda v: act_e(v).scale(2), 4),
        ("h_f", lambda v: _comm(act_h, act_f, v), lambda v: act_f(v).scale(-2), 1),
        ("e_f", lambda v: _comm(act_e, act_f, v), act_h, 0),
    ):
        report.check(f"sl2.relation.{name}", relation(name, lhs_fn, rhs_fn, domain))
    return report


def _comm(first, second, v: ExtElement) -> ExtElement:
    return first(second(v)) - second(first(v))


def _random_low_degree(seed: int) -> ExtElement:
    """Seeded extension element of principal degree <= 1."""
    deg = (-1, 0, 0, 1, 1)[sample_seed(seed, "degree") % 5]
    return _random_principal(deg, seed=seed)


def _random_principal(deg: int, seed: int) -> ExtElement:
    """Seeded element concentrated in one principal degree (-1, 0, or up)."""
    gen = random_sho_generator(deg + 2, seed=seed)
    comp = gen.principal_components().get(deg, SuperPoly.zero(3))
    return ext_element(comp)


def equivariance_check_cocycle(trials: int = 30, seed: int = 0) -> Report:
    """The center action is compatible with the extension bracket.

    Runs the named cases on constant and linear fields for every index
    combination, then seeded pairs in the verified domain.
    """
    report = Report()
    actions = {"h": act_h, "e": act_e, "f": act_f}

    # named cases: a = d/dx_i (generator xi_i), b = xi_k d/dx_j - xi_j d/dx_k
    # (generator -xi_j xi_k), u = d/dxi_i (generator -x_i)
    def named(name, action):
        for i, j, k in permutations((1, 2, 3)):
            a = ext_element(SuperPoly.xi(3, i))
            b = ext_element(-(SuperPoly.xi(3, j) * SuperPoly.xi(3, k)))
            u = ext_element(-SuperPoly.x(3, i))
            aj = ext_element(SuperPoly.xi(3, j))
            for left, right in ((a, b), (u, aj)):
                lhs, rhs = _leibniz_sides(action, left, right, ext_bracket_d3(left, right))
                if lhs != rhs:
                    yield {"x": name, "left": str(left), "right": str(right),
                           "lhs": str(lhs), "rhs": str(rhs)}

    for name, action in actions.items():
        report.check(f"sl2.cocycle_equivariance.named.{name}", named(name, action))

    def seeded(name, action):
        for t in range(trials):
            a, b = (_random_low_degree(seed=sample_seed(seed, f"sl2.cocycle_equivariance.seeded.{name}", t, i))
                    for i in range(2))
            ab = ext_bracket_d3(a, b)
            if name == "f" and not _in_f_domain(ab):
                continue
            lhs, rhs = _leibniz_sides(action, a, b, ab)
            if lhs != rhs:
                yield {"x": name, "a": str(a), "b": str(b)}

    for name, action in actions.items():
        report.check(f"sl2.cocycle_equivariance.seeded.{name}", seeded(name, action))
    return report


# -- the field side -----------------------------------------------------


@dataclass
class ZTwoField:
    """Fields of the Z/2 form of the 2-potential theory on C^3.

    phi1 and phi2 are the two function coordinates of the even pair (the
    e1 and e2 directions), mu the odd 1-polyvector, nu the odd
    descendant function.
    """

    phi1: SuperPoly
    phi2: SuperPoly
    mu: SuperPoly
    nu: SuperPoly

    @classmethod
    def zero(cls) -> "ZTwoField":
        z = SuperPoly.zero(3)
        return cls(z, z, z, z)

    def __post_init__(self):
        for name, part, degs in (("phi1", self.phi1, {0}), ("phi2", self.phi2, {0}),
                                 ("mu", self.mu, {1}), ("nu", self.nu, {0})):
            if part.xi_degrees() - degs:
                raise ValueError(f"{name} has a wrong xi-degree")

    def __add__(self, other: "ZTwoField") -> "ZTwoField":
        return ZTwoField(self.phi1 + other.phi1, self.phi2 + other.phi2,
                         self.mu + other.mu, self.nu + other.nu)

    def __neg__(self) -> "ZTwoField":
        return ZTwoField(-self.phi1, -self.phi2, -self.mu, -self.nu)

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in (self.phi1, self.phi2, self.mu, self.nu))


def field_action(x: str, psi: ZTwoField) -> ZTwoField:
    """Infinitesimal action of the generator x in {"e", "h", "f"}: the
    standard representation on the pair (phi1, phi2), zero on mu and nu."""
    z = SuperPoly.zero(3)
    phi1, phi2 = {"e": (psi.phi2, z), "h": (psi.phi1, -psi.phi2), "f": (z, psi.phi1)}[x]
    return ZTwoField(phi1, phi2, z, z)


def symplectic_pair(psi: ZTwoField, chi: ZTwoField) -> SuperPoly:
    """The antisymmetric pairing on the function pair: w(psi, chi) =
    phi1 phi2' - phi2 phi1'."""
    return psi.phi1 * chi.phi2 - psi.phi2 * chi.phi1


def embed(v: ExtElement) -> ZTwoField:
    """Identify the extension with field configurations.

    The degree-0 generator part and the e2 coordinate feed phi2; the
    degree-1 part feeds mu; the degree-2 part, lifted to a potential by
    the pinned sign times K, and the e1 coordinate feed phi1 through the
    contraction with the volume element.
    """
    _require_d3(v)
    parts = v.gen.xi_components()
    pot = SuperPoly.top(3, v.c1) + contraction_K(parts.get(2, SuperPoly.zero(3))).scale(conventions.EMBED_K_SIGN)
    phi1 = pvcalc.vee_omega(pot)
    phi2 = parts.get(0, SuperPoly.zero(3)) + SuperPoly.const(3, v.c2)
    mu = parts.get(1, SuperPoly.zero(3))
    return ZTwoField(phi1, phi2, mu, SuperPoly.zero(3))


def equivariance_compare_theorem(truncation: int = 3, trials: int = 40, seed: int = 0) -> Report:
    """Compare the two sl2 actions through embed().

    For x in {e, h} on all sampled truncation elements and for f on its
    verified domain: embed(x . v) must equal x acting on embed(v) by the
    field representation.  Mismatches are reported with witnesses.
    """
    report = Report()
    named = {
        "h.on_e1": ("h", ExtElement(SuperPoly.zero(3), 1, 0)),
        "h.on_gen_xi1": ("h", ext_element(SuperPoly.xi(3, 1))),
        "e.on_e2": ("e", ExtElement(SuperPoly.zero(3), 0, 1)),
    }
    actions = {"e": act_e, "h": act_h, "f": act_f}
    for label, (name, v) in named.items():
        lhs = embed(actions[name](v))
        rhs = field_action(name, embed(v))
        report.add(f"sl2.field_equivariance.named.{label}", lhs == rhs,
                   **({} if lhs == rhs else {"witness": {"x": name, "v": str(v)}}))

    def seeded(name):
        tried = 0
        for t in range(4 * trials):
            s = sample_seed(seed, f"sl2.field_equivariance.seeded.{name}", t)
            deg = sample_seed(s, "degree") % (truncation + 2) - 1
            v = _random_principal(deg, seed=s) + ExtElement(
                SuperPoly.zero(3), sample_seed(s, "e1") % 5 - 2, sample_seed(s, "e2") % 5 - 2)
            if name == "f" and not _in_f_domain(v):
                continue
            tried += 1
            lhs = embed(actions[name](v))
            rhs = field_action(name, embed(v))
            if lhs != rhs:
                yield {"x": name, "v": str(v)}
            if tried >= trials:
                break
        return {"elements": tried}

    for name in ("e", "h", "f"):
        report.check(f"sl2.field_equivariance.seeded.{name}", seeded(name))
    return report
