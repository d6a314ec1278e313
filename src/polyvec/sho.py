"""Vector fields on C^{d|d}, Hamiltonian generators, and SHO(d|d).

A function f on C^{d|d} generates the odd-Hamiltonian vector field

    Ham(f) = sum_i df/dx_i d/dxi_i + (-1)^{|f|} df/dxi_i d/dx_i

(left derivatives).  The super-divergence of Ham(f) is a fixed multiple
of the divergence of f, so divergence-free generators give exactly the
super-divergence-free symplectic fields: the SHO' filtration.  SHO(d|d)
is cut out by dropping the constants (the center) and the top monomial
xi_1...xi_d.

ExtElement realizes, for d = 3, the odd two-dimensional central
extension of SHO(3|3): Hamiltonian generators with the Schouten bracket
plus two central coordinates fed by the constant-term channel (c2) and
the top-constant pairing channel (c1).  Sign pinnings live in
conventions.py; with them the extension satisfies

    [d/dx_i, xi_k d/dx_j - xi_j d/dx_k] = eps_{ijk} e1
    [d/dxi_i, d/dx_j] = delta_ij e2

verbatim, with vector fields named through X = -Ham(f).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, permutations
from math import lcm

from . import conventions, pvcalc
from ._linalg import independent_indices
from .pvcalc import divergence_free_part
from .reporting import Report
from .superpoly import (
    SuperPoly,
    field_applications,
    homogeneous,
    joint_xi_degrees,
    monomial_basis,
    partial_terms,
    random_poly,
    sample_seed,
    term_sum,
)


@dataclass
class SuperVectorField:
    """sum mu_x[i] d/dx_{i+1} + sum mu_xi[i] d/dxi_{i+1} with SuperPoly coefficients."""

    d: int
    mu_x: tuple[SuperPoly, ...]
    mu_xi: tuple[SuperPoly, ...]

    @classmethod
    def zero(cls, d: int) -> "SuperVectorField":
        z = SuperPoly.zero(d)
        return cls(d, (z,) * d, (z,) * d)

    def apply(self, g: SuperPoly) -> SuperPoly:
        """sum_i mu_x[i] dg/dx_i + mu_xi[i] dg/dxi_i: one job of the
        field_applications kernel."""
        if g.d != self.d:
            raise ValueError(f"dimension mismatch: {self.d} != {g.d}")
        return field_applications(self.d, [(*self._coefficient_lists(), [g], 1)])[0]

    def _coefficient_lists(self) -> tuple[list, int]:
        """The terms of the 2d coefficients, mu_x before mu_xi, over the lcm
        of their denominators, and that lcm: a field as field_applications
        takes it."""
        coeffs = self.mu_x + self.mu_xi
        den = lcm(*(c._den for c in coeffs))
        return [c._terms.items() if c._den == den else [(k, den // c._den * n) for k, n in c._terms.items()]
                for c in coeffs], den

    def __add__(self, other: "SuperVectorField") -> "SuperVectorField":
        return SuperVectorField(
            self.d,
            tuple(a + b for a, b in zip(self.mu_x, other.mu_x)),
            tuple(a + b for a, b in zip(self.mu_xi, other.mu_xi)),
        )

    def scale(self, c) -> "SuperVectorField":
        return SuperVectorField(self.d, tuple(a.scale(c) for a in self.mu_x),
                                tuple(a.scale(c) for a in self.mu_xi))

    def parity(self) -> int:
        """Parity of a parity-homogeneous field (0 for zero): a coefficient
        on d/dx_i contributes its own parity, one on d/dxi_i the opposite."""
        return homogeneous([k & 1 for k in joint_xi_degrees(self.d, self.mu_x)]
                           + [~k & 1 for k in joint_xi_degrees(self.d, self.mu_xi)],
                           "vector field is not parity-homogeneous")


def hamiltonian_vf(f: SuperPoly) -> SuperVectorField:
    """The odd-Hamiltonian field of a parity-homogeneous generator, every
    coefficient read from one pass over f's first partials."""
    d = f.d
    d_xi, d_x = partial_terms(f)
    sign = -1 if f.parity() else 1
    den = f._den
    return SuperVectorField(d, tuple(SuperPoly._of(d, {k: sign * c for k, c in t}, den) for t in d_xi),
                            tuple(SuperPoly._of(d, dict(t), den) for t in d_x))


def super_divergence(mu: SuperVectorField) -> SuperPoly:
    """D(mu) = sum dmu_x_i/dx_i + sum (-1)^{|mu_xi_i|} dmu_xi_i/dxi_i; on a
    parity-homogeneous field every mu_xi_i has the field's opposite parity.
    The 2d derivative terms are accumulated once."""
    sign = 1 if mu.parity() else -1
    return term_sum(mu.d, chain.from_iterable(
        ((partial_terms(a)[1][i], a._den),
         (((k, sign * c) for k, c in partial_terms(b)[0][i]), b._den))
        for i, (a, b) in enumerate(zip(mu.mu_x, mu.mu_xi))))


def vf_bracket(a: SuperVectorField, b: SuperVectorField) -> SuperVectorField:
    """Super-commutator [a, b] = a b - (-1)^{|a||b|} b a of parity-homogeneous
    fields.  A field's value on a coordinate is its coefficient there, so
    [a, b]_j = a(b_j) - (-1)^{|a||b|} b(a_j): one field_applications call
    with two jobs, a on b's coefficients and b on a's."""
    d = a.d
    if b.d != d:
        raise ValueError(f"dimension mismatch: {d} != {b.d}")
    sign = -1 if a.parity() & b.parity() else 1
    out = field_applications(d, [(*a._coefficient_lists(), b.mu_x + b.mu_xi, 1),
                                 (*b._coefficient_lists(), a.mu_x + a.mu_xi, -sign)])
    return SuperVectorField(d, tuple(out[:d]), tuple(out[d:]))


def ham_generator(x: SuperVectorField) -> SuperPoly | None:
    """The generator f with no constant term and Ham(f) = x, or None when
    x is not Hamiltonian; a mixed-parity field raises ValueError.

    Ham is odd, so |f| = |x| + 1.  By the Euler identities
    sum_i x_i mu_xi[i] + (-1)^{|f|} xi_i mu_x[i] = sum_n n f_n, f_n the
    part of f of total degree n, so f is that sum with its degree-n part,
    of principal degree n - 2, divided by n.
    """
    d = x.d
    sign = 1 if x.parity() else -1  # (-1)^{|f|}
    euler = SuperPoly.zero(d)
    for i, (a, b) in enumerate(zip(x.mu_x, x.mu_xi), 1):
        euler = euler + SuperPoly.x(d, i) * b + (SuperPoly.xi(d, i) * a).scale(sign)
    f = term_sum(d, ((part._terms.items(), (n + 2) * part._den)
                     for n, part in euler.principal_components().items()))
    return f if hamiltonian_vf(f) == x else None


def membership(f: SuperPoly) -> str:
    """Classify the Hamiltonian field of a generator.

    Returns one of "not-HO-generator" (constants: the field vanishes),
    "HO" (symplectic only), "SHO-prime" (super-divergence-free, contains
    the top monomial), "SHO".  Constant parts are disregarded, matching
    the carving of the center; the constant top monomial has no divergence.
    """
    core, top = f.without_constant_and_top(), f.top_constant()
    if core.is_zero() and top == 0:
        return "not-HO-generator"
    if not pvcalc.divergence(core).is_zero():
        return "HO"
    if top != 0:
        return "SHO-prime"
    return "SHO"


def levi_civita(i: int, j: int, k: int) -> int:
    """The sign of (i, j, k) as a permutation of (1, 2, 3), or 0."""
    if {i, j, k} != {1, 2, 3}:
        return 0
    return 1 if (i, j, k) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)) else -1


# -- the d = 3 central extension ---------------------------------------


@dataclass
class ExtElement:
    """Element of the odd two-dimensional central extension of SHO(3|3).

    gen is a divergence-free generator with no constant term and no top
    monomial; c1, c2 are the central coordinates along e1 (top-pairing
    channel) and e2 (constant-term channel): ints, or Fractions where a
    division entered, like SuperPoly coefficients.
    """

    gen: SuperPoly
    c1: int | Fraction = 0
    c2: int | Fraction = 0

    @property
    def d(self) -> int:
        return self.gen.d

    def __add__(self, other: "ExtElement") -> "ExtElement":
        return ExtElement(self.gen + other.gen, self.c1 + other.c1, self.c2 + other.c2)

    def __neg__(self) -> "ExtElement":
        return ExtElement(-self.gen, -self.c1, -self.c2)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "ExtElement":
        return ExtElement(self.gen.scale(c), self.c1 * c, self.c2 * c)

    def is_zero(self) -> bool:
        return self.gen.is_zero() and self.c1 == 0 and self.c2 == 0

    def __str__(self) -> str:
        return f"({self.gen}) + ({self.c1})e1 + ({self.c2})e2"


def ext_element(f: SuperPoly, c1=0, c2=0) -> ExtElement:
    """Build an extension element, carving constants and the top monomial
    out of the generator into the central slots."""
    if f.d != 3:
        raise ValueError("the extension is implemented for d = 3")
    if not pvcalc.divergence(f).is_zero():
        raise ValueError("generator must be divergence free")
    return _carved(f, c1, c2)


def _carved(f: SuperPoly, c1, c2) -> ExtElement:
    """ext_element of a generator known to be divergence free."""
    return ExtElement(f.without_constant_and_top(), c1 + f.top_constant(), c2 + f.constant_term())


def ext_bracket_d3(a: ExtElement, b: ExtElement) -> ExtElement:
    """Bracket of the extension: Schouten on generators plus the two
    central channels.

    The constant term of the Schouten bracket feeds c2; the top-pairing
    cocycle feeds c1 with the decalage sign per xi-degree and the pinned
    global sign (conventions.EXT_C1_SIGN).  Central coordinates of the
    inputs are inert.
    """
    if a.d != 3 or b.d != 3:
        raise ValueError("d = 3 only")
    # a Schouten bracket of divergence-free generators is divergence free
    raw = pvcalc.schouten(a.gen, b.gen)
    c2 = (conventions.EXT_C2_SIGN - 1) * raw.constant_term()  # carving supplies the +1 part
    return _carved(raw, c1_pairing(a.gen, b.gen), c2)


def verbatim_pairs() -> dict[str, list]:
    """The basis pairs of the two verbatim identities, vector fields named
    through X = -Ham(f), each as (indices, a, b, (c1, c2)) with [a, b] =
    c1 e1 + c2 e2: under "eps_e1", d/dx_i and xi_k d/dx_j - xi_j d/dx_k for
    every permutation (i, j, k) of (1, 2, 3), with c1 = eps_ijk; under
    "delta_e2", d/dxi_i and d/dx_j for every i, j in 1..3, with c2 = delta_ij."""
    xi, x = (lambda i: SuperPoly.xi(3, i)), (lambda i: SuperPoly.x(3, i))
    return {
        "eps_e1": [((i, j, k), ext_element(xi(i)), ext_element(-(xi(j) * xi(k))), (levi_civita(i, j, k), 0))
                   for i, j, k in permutations((1, 2, 3))],
        "delta_e2": [((i, j), ext_element(-x(i)), ext_element(xi(j)), (0, int(i == j)))
                     for i in (1, 2, 3) for j in (1, 2, 3)],
    }


def c1_pairing(f: SuperPoly, g: SuperPoly) -> int | Fraction:
    """The top-pairing cocycle of the c1 channel: the top-constant pairing
    of each xi-component of f with g, times its decalage sign and the
    pinned global sign."""
    signed = f.x_constant_part().scale_by_xi_degree(pvcalc.decalage_sign)
    return conventions.EXT_C1_SIGN * pvcalc.top_constant_pairing(signed, g)


def ext_parity(v: ExtElement) -> int:
    """Lie-algebra parity: a generator of xi-degree k has parity k + 1, the
    top-pairing line e1 that of d (odd at d = 3) and e2 is odd."""
    central = [v.d & 1] * (v.c1 != 0) + [1] * (v.c2 != 0)
    return homogeneous([(k + 1) & 1 for k in v.gen.xi_degrees()] + central,
                       "element is not parity-homogeneous")


def lie_jacobi_defect(a: ExtElement, b: ExtElement, c: ExtElement) -> ExtElement:
    """[a,[b,c]] - [[a,b],c] - (-1)^{|a||b|} [b,[a,c]] for the extension."""
    pa, pb = ext_parity(a), ext_parity(b)
    sign = -1 if pa & pb else 1
    first = ext_bracket_d3(a, ext_bracket_d3(b, c))
    second = ext_bracket_d3(ext_bracket_d3(a, b), c)
    third = ext_bracket_d3(b, ext_bracket_d3(a, c)).scale(sign)
    return first - second - third


def random_sho_generator(max_degree: int, seed: int, d: int = 3) -> SuperPoly:
    """Seeded divergence-free generator with constants and top carved off.

    The output is xi-homogeneous (the divergence-free projection
    preserves xi-degree), hence parity-homogeneous.  Its coefficients are
    ints: the projection is scaled by its common denominator, which
    cannot change whether a multilinear identity's defect vanishes.
    """
    # the top xi-degree d has no SHO part: its divergence-free part is
    # the constant top monomial, which the carving removes; a xi-degree
    # above max_degree has no monomial at all
    xi_degree = sample_seed(seed, "xi_degree") % min(d, max_degree + 1)
    raw = random_poly(d, max_degree, xi_degree_filter=xi_degree, seed=seed, n_terms=5)
    gen = _sho_part(raw)
    return gen.scale(gen._den)


def _sho_part(p: SuperPoly) -> SuperPoly:
    """The divergence-free part of p with its constant term and top monomial carved off."""
    return divergence_free_part(p).without_constant_and_top()


def _named_triples():
    """Basis triples that expose the likely faults of a central pairing:
    a value on (xi_j, constant) on (xi_i, xi_j, x_i), a dropped decalage
    sign in the c1 channel on (xi_i, xi_i xi_j, x_i xi_k), and the
    symmetric bracket in place of the Lie bracket in the c2 channel on
    (xi_i, x_j, x_i xi_j)."""
    xi = lambda i: SuperPoly.xi(3, i)
    x = lambda i: SuperPoly.x(3, i)
    for i, j, k in permutations((1, 2, 3)):
        yield xi(i), xi(j), x(i)
        yield xi(i), xi(i) * xi(j), x(i) * xi(k)
        yield xi(i), x(j), x(i) * xi(j)


def cocycle_check(pairing, trials: int = 50, seed: int = 0, max_degree: int = 4,
                  label: str = "cocycle") -> Report:
    """Verify the super 2-cocycle identity of a central pairing over the
    Schouten algebra of divergence-free generators (d = 3).

    The identity is the central component of the extension Jacobi:
    c(a,[b,x]) - c([a,b],x) - (-1)^{|a||b|} c(b,[a,x]) = 0 with
    Lie parities |f| + 1.  Named basis triples come first, then seeded
    ones, drawn under the check id.
    """

    def witnesses(a, b, x):
        if a.is_zero() or b.is_zero():
            return
        sign = -1 if (a.parity() + 1) & (b.parity() + 1) & 1 else 1  # Lie parities |f| + 1
        defect = (pairing(a, pvcalc.schouten(b, x)) - pairing(pvcalc.schouten(a, b), x)
                  - sign * pairing(b, pvcalc.schouten(a, x)))
        if defect != 0:
            yield {"a": str(a), "b": str(b), "x": str(x), "defect": str(defect)}

    def seeded(draw, t):
        return witnesses(*(random_sho_generator(max_degree, seed=draw(i)) for i in range(3)))

    report = Report()
    report.sampled(f"{label}.identity", seed, trials, seeded,
                   named=chain.from_iterable(witnesses(*abc) for abc in _named_triples()))
    return report


# -- structure constants ------------------------------------------------


def sho_basis(d: int, max_principal_degree: int):
    """A basis of SHO(d|d) generators through a principal-degree cap."""
    cap = max_principal_degree + 2
    projected = []
    for m in monomial_basis(d, cap):
        ker = _sho_part(SuperPoly(d, {m: Fraction(1)}))
        if not ker.is_zero() and ker.total_degree() <= cap:
            projected.append(ker)
    vectors = [p.key_values() for p in projected]
    return [projected[i] for i in independent_indices(vectors)]


def structure_constants(max_principal_degree: int) -> list[dict]:
    """Extension brackets of all SHO(3|3) basis-generator pairs through a
    principal-degree cap, with both central channels."""
    basis = sho_basis(3, max_principal_degree)
    rows = []
    for i, f in enumerate(basis):
        for g in basis[i:]:
            out = ext_bracket_d3(ext_element(f), ext_element(g))
            rows.append({
                "left": str(f), "right": str(g),
                "bracket": str(out.gen), "e1": str(out.c1), "e2": str(out.c2),
            })
    return rows
