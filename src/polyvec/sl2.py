"""The sl2 action on SHO(3|3), its central extension, and the field theory.

On generators, h is diagonal with eigenvalue (xi-degree - 1); e is the
adjoint action of the cubic generator c * xi1 xi2 xi3 (a member of
SHO' but not of SHO, so the derivation is outer); f is the closed form
f(v) = F_SIGN * vee_omega(K(v_2)) on every principal degree, v_2 being
the xi-degree-2 part of the generator, lifted to PV^3 by the Euler
homotopy K and contracted with the volume form.  On the odd
two-dimensional center the action is the standard representation:
h = diag(1, -1), e: e2 -> e1, f: e1 -> e2 in the (e1, e2) basis.

The field side is the 2-potential complex in three dimensions: its
potential summand ("p", 0), which holds PV^3, and its function summand
("f", 0, 0) form the even pair (the e1 and e2 directions); ("f", 0, 1)
holds the odd 1-polyvector and ("f", 1, 0) the odd descendant function.
sl2 acts by the standard representation on the pair and by zero
elsewhere; embed() identifies the extension with fields of that
complex, and the equivariance comparison checks that the two actions
agree through it.
"""

from __future__ import annotations

from functools import partial

from . import conventions, pvcalc
from ._linalg import solve_combination
from .complexes import DescendantField, Variant, cohomology_model
from .pvcalc import contraction_K
from .reporting import Report
from .sho import ExtElement, ext_bracket_d3, ext_element, random_sho_generator, sho_basis, verbatim_pairs
from .superpoly import SuperPoly, sample_seed


def act_h(v: ExtElement) -> ExtElement:
    """h: a generator of xi-degree s has weight s - 1; h e1 = e1, h e2 = -e2."""
    _require_d3(v)
    return ExtElement(v.gen.scale_by_xi_degree(lambda s: s - 1), v.c1, -v.c2)


def act_e(v: ExtElement) -> ExtElement:
    """e: the adjoint of the outer generator; e e2 = e1, e e1 = 0.

    The outer generator's coefficient is read at call time, and its Schouten
    bracket lands in the 2-polyvectors: it needs no carving, feeds no channel.
    """
    _require_d3(v)
    image = pvcalc.schouten(SuperPoly.top(3, conventions.E_GENERATOR_COEFF), v.gen)
    out = ext_element(image)
    return ExtElement(out.gen, out.c1 + v.c2, out.c2)


def _leibniz_failures(name: str, action, pairs):
    """Witnesses of the pairs on which x.[a, b] = [x.a, b] + [a, x.b] fails
    for the generator x = name acting by action."""
    for a, b in pairs:
        lhs = action(ext_bracket_d3(a, b))
        rhs = ext_bracket_d3(action(a), b) + ext_bracket_d3(a, action(b))
        if lhs != rhs:
            yield {"x": name, "a": str(a), "b": str(b), "lhs": str(lhs), "rhs": str(rhs)}


def act_f(v: ExtElement) -> ExtElement:
    """f: the xi-degree-2 part of the generator, lifted to PV^3 by K and
    contracted with the volume form, times F_SIGN; f e1 = e2, f e2 = 0.

    The other xi-components map to zero: f lowers the xi-degree by two,
    and no generator of SHO(3|3) has xi-degree 3.
    """
    _require_d3(v)
    lift = contraction_K(v.gen.xi_component(2))
    return ExtElement(pvcalc.vee_omega(lift).scale(conventions.F_SIGN), 0, v.c1)


def _require_d3(v: ExtElement):
    if v.d != 3:
        raise ValueError("the sl2 action is implemented for d = 3")


def _actions() -> dict:
    """The actions of h, e and f by name, read at call time so that a
    rebound act_h, act_e or act_f (a patch or a wrapper) is used."""
    return {"h": act_h, "e": act_e, "f": act_f}


def extend_f(v: ExtElement) -> ExtElement | None:
    """f propagated from principal degrees <= 1 through the derivation rule.

    Components of degree n >= 2 are decomposed as sums of brackets of a
    degree-1 generator with a degree-(n-1) generator, and f of each
    bracket is [f u, w] + [u, f w], with act_f on degrees <= 1.  A
    reference for the closed form of act_f, which it must equal.
    Returns None ("undetermined") when no decomposition is found.
    Different decompositions are not checked against each other.
    """
    _require_d3(v)
    return _extend_f(v, {})


def _principal_basis(n: int, bases: dict) -> list[SuperPoly]:
    """The SHO(3|3) basis generators of principal degree exactly n, built
    once per extend_f call and kept in bases."""
    if n not in bases:
        bases[n] = [g for g in sho_basis(3, n) if set(g.principal_components()) == {n}]
    return bases[n]


def _extend_f(v: ExtElement, bases: dict) -> ExtElement | None:
    by_degree = v.gen.principal_components()
    total = act_f(ExtElement(SuperPoly.zero(3), v.c1, v.c2))
    for deg, comp in by_degree.items():
        if deg <= 1:
            total = total + act_f(ExtElement(comp))
            continue
        ones, lowers = _principal_basis(1, bases), _principal_basis(deg - 1, bases)
        pairs = [(u, w) for u in ones for w in lowers]
        columns = [pvcalc.schouten(u, w).key_values() for u, w in pairs]
        coeffs = solve_combination(columns, comp.key_values())
        if coeffs is None:
            return None
        for c, (u, w) in zip(coeffs, pairs):
            if c == 0:
                continue
            fu = act_f(ext_element(u))
            fw = _extend_f(ext_element(w), bases) if deg - 1 > 1 else act_f(ext_element(w))
            if fw is None:
                return None
            piece = ext_bracket_d3(fu, ext_element(w)) + ext_bracket_d3(ext_element(u), fw)
            total = total + piece.scale(c)
    return total


def sl2_relations_check(truncation: int = 3, trials: int = 40, seed: int = 0) -> Report:
    """h, e and f are derivations of the extension bracket, and [h, e] = 2e,
    [h, f] = -2f, [e, f] = h hold, on seeded elements of SHO(3|3)."""
    report = Report()

    # h, e and f are derivations at every sampled principal degree; the
    # report schema gives only the f record a pair count
    generator = lambda s: ext_element(random_sho_generator(truncation + 2, seed=s))
    for name, action in _actions().items():
        report.sampled(f"sl2.derivation.{name}", seed, trials, partial(_seeded_leibniz, name, action, generator),
                       count="pairs" if name == "f" else None)

    # operator relations on elements of one principal degree in [-1, 4]
    def relation(lhs_fn, rhs_fn, draw, t):
        s = draw()
        deg = sample_seed(s, "degree") % 6 - 1
        v = _random_principal(deg, seed=s)
        if lhs_fn(v) != rhs_fn(v):
            yield {"element": str(v), "degree": deg}

    for name, lhs_fn, rhs_fn in (
        ("h_e", lambda v: _comm(act_h, act_e, v), lambda v: act_e(v).scale(2)),
        ("h_f", lambda v: _comm(act_h, act_f, v), lambda v: act_f(v).scale(-2)),
        ("e_f", lambda v: _comm(act_e, act_f, v), act_h),
    ):
        report.sampled(f"sl2.relation.{name}", seed, trials, partial(relation, lhs_fn, rhs_fn))
    return report


def _seeded_leibniz(name: str, action, element, draw, t):
    """The Leibniz failures of x = name on trial t's pair (element(draw(0)),
    element(draw(1))), for Report.sampled."""
    return _leibniz_failures(name, action, [(element(draw(0)), element(draw(1)))])


def _comm(first, second, v: ExtElement) -> ExtElement:
    return first(second(v)) - second(first(v))


def _random_low_degree(seed: int) -> ExtElement:
    """Seeded extension element of principal degree <= 1."""
    deg = (-1, 0, 0, 1, 1)[sample_seed(seed, "degree") % 5]
    return _random_principal(deg, seed=seed)


def _random_principal(deg: int, seed: int) -> ExtElement:
    """Seeded nonzero element concentrated in one principal degree (-1, 0,
    or up).  A draw with no part in that degree is redrawn with
    sample_seed(seed, "redraw", r) for r = 1..8."""
    for r in range(9):
        s = sample_seed(seed, "redraw", r) if r else seed
        comp = random_sho_generator(deg + 2, seed=s).principal_components().get(deg)
        if comp is not None:
            return ext_element(comp)
    raise ValueError(f"nine draws of principal degree {deg} were all zero")


def equivariance_check_cocycle(trials: int = 30, seed: int = 0) -> Report:
    """The center action is compatible with the extension bracket.

    Runs the named cases, the pairs of both verbatim identities
    (sho.verbatim_pairs: every index combination, so the diagonal
    [d/dxi_i, d/dx_i] = e2 pairs fire the e2 channel), then seeded pairs
    of principal degree <= 1, where the central channels fire.
    """
    report = Report()
    named = [(a, b) for pairs in verbatim_pairs().values() for _, a, b, _ in pairs]
    for name, action in _actions().items():
        report.check(f"sl2.cocycle_equivariance.named.{name}", _leibniz_failures(name, action, named))

    for name, action in _actions().items():
        report.sampled(f"sl2.cocycle_equivariance.seeded.{name}", seed, trials,
                       partial(_seeded_leibniz, name, action, _random_low_degree))
    return report


# -- the field side -----------------------------------------------------

# The even pair (e1 and e2 directions) and the odd 1-polyvector of the
# 2-potential complex at d = 3, at the homes of its carrier's pot, pv/0
# and pv/1 slots; embed() feeds only these summands.
FIELD_VARIANT = Variant.potential(2)
PHI1, PHI2, MU = map(cohomology_model(3, FIELD_VARIANT).home, [("pot",), ("pv", 0), ("pv", 1)])


def field_action(x: str, psi: DescendantField) -> DescendantField:
    """Infinitesimal action of the generator x in {"e", "h", "f"}: the
    standard representation on the pair (PHI1, PHI2), identified through
    vee_omega, and zero on the other summands.  Only x's image is computed."""
    z = SuperPoly.zero(3)
    phi1, phi2 = psi.part(PHI1), psi.part(PHI2)
    image = {"e": lambda: (pvcalc.vee_omega_inv(phi2), z), "h": lambda: (phi1, -phi2),
             "f": lambda: (z, pvcalc.vee_omega(phi1))}[x]()
    return DescendantField(3, FIELD_VARIANT, dict(zip((PHI1, PHI2), image)))


def embed(v: ExtElement) -> DescendantField:
    """Identify the extension with fields of the 2-potential complex.

    The e1 coordinate, as the constant top polyvector, and the
    xi-degree-2 part of the generator, lifted to PV^3 by the pinned sign
    times K, feed PHI1; the xi-degree-0 part and the e2 coordinate feed
    PHI2; the xi-degree-1 part feeds MU.
    """
    _require_d3(v)
    pot = SuperPoly.top(3, v.c1) + contraction_K(v.gen.xi_component(2)).scale(conventions.EMBED_K_SIGN)
    return DescendantField(3, FIELD_VARIANT, {
        PHI1: pot, PHI2: v.gen.xi_component(0) + SuperPoly.const(3, v.c2), MU: v.gen.xi_component(1)})


def equivariance_compare_theorem(truncation: int = 3, trials: int = 40, seed: int = 0) -> Report:
    """Compare the two sl2 actions through embed().

    For each x in {e, h, f} on named and seeded elements: embed(x . v)
    must equal x acting on embed(v) by the field representation.
    Mismatches are reported with witnesses.
    """
    report = Report()
    actions = _actions()

    def mismatch(name, v):
        if embed(actions[name](v)) != field_action(name, embed(v)):
            yield {"x": name, "v": str(v)}

    named = {
        "h.on_e1": ("h", ExtElement(SuperPoly.zero(3), 1, 0)),
        "h.on_gen_xi1": ("h", ext_element(SuperPoly.xi(3, 1))),
        "e.on_e2": ("e", ExtElement(SuperPoly.zero(3), 0, 1)),
    }
    for label, (name, v) in named.items():
        report.check(f"sl2.field_equivariance.named.{label}", mismatch(name, v))

    def seeded(name, draw, t):
        s = draw()
        deg = sample_seed(s, "degree") % (truncation + 2) - 1
        v = _random_principal(deg, seed=s) + ExtElement(
            SuperPoly.zero(3), sample_seed(s, "e1") % 5 - 2, sample_seed(s, "e2") % 5 - 2)
        return mismatch(name, v)

    for name in ("e", "h", "f"):
        report.sampled(f"sl2.field_equivariance.seeded.{name}", seed, trials, partial(seeded, name),
                       count="elements")
    return report
