"""Named verification suites assembled into reports.

Each suite checks exact identities and emits one CheckRecord per
identity family; a seeded family draws its samples through
Report.sampled, under its check id.  The CLI composes them into
campaigns; the acceptance tests call them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from . import conventions, pvcalc
from .complexes import Variant, cohomology_model
from .contraction import build_datum, homotopy_relations, scale_homotopy, verify_datum
from .linf import (
    field_structure,
    jacobi_defect,
    minimal_model_structure,
    transfer,
)
from .pvcalc import contraction_K
from .reporting import Report
from .sho import (
    c1_pairing,
    cocycle_check,
    ext_bracket_d3,
    ext_element,
    hamiltonian_vf,
    lie_jacobi_defect,
    membership,
    random_sho_generator,
    super_divergence,
    verbatim_pairs,
    vf_bracket,
)
from .sl2 import equivariance_check_cocycle, equivariance_compare_theorem, sl2_relations_check
from .superpoly import EXP_CAP, MAX_D, SuperPoly, basis_elements, monomial_basis, random_poly, sample_seed


@dataclass
class CampaignConfig:
    d: int = 3
    variant: Variant = field(default_factory=Variant.mbcov)
    max_degree: int = 4
    trials: int = 100
    seed: int = 42
    arity_cap: int = 3
    checks: tuple[str, ...] = ()

    def validate(self):
        if not 1 <= self.d <= MAX_D:
            raise ValueError(f"d must be between 1 and {MAX_D}")
        if self.max_degree < 0 or self.trials <= 0 or self.arity_cap < 2:
            raise ValueError("budgets must be positive and arity cap >= 2")
        self.variant.validate(self.d)
        unknown = set(self.checks) - set(SUITES)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        if len(set(self.checks)) < len(self.checks):
            raise ValueError(f"repeated checks: {sorted({c for c in self.checks if self.checks.count(c) > 1})}")
        for name in self.checks:
            if need := _unmet_prerequisite(name, self):
                raise ValueError(f"suite {name!r} requires {need}")
        factor, suite = max((SAMPLE_FACTORS.get(s, lambda cfg: 1)(self), s)
                            for s in self.checks or default_checks(self))
        bound = (EXP_CAP - RAISE_HEADROOM) // factor
        if self.max_degree > bound:
            raise ValueError(f"max_degree must be at most {bound}: suite {suite!r} multiplies {factor} "
                             f"samples, and {factor} * max_degree + {RAISE_HEADROOM} must stay within "
                             f"the exponent cap {EXP_CAP}")


def _homog(d, deg, seed) -> SuperPoly:
    j = sample_seed(seed, "xi_degree") % (min(d, deg) + 1)
    return random_poly(d, deg, xi_degree_filter=j, seed=seed)


def suite_algebra(cfg: CampaignConfig) -> Report:
    """Ring axioms plus the shifted Lie axioms of the Schouten bracket."""
    report = Report()
    d, deg, seed = cfg.d, cfg.max_degree, cfg.seed
    n = cfg.trials

    def ring(draw, t):
        a, b, c = (_homog(d, deg, draw(i)) for i in range(3))
        ab = a * b
        if ab * c != a * (b * c):
            yield {"a": str(a), "b": str(b), "c": str(c)}
        pa, pb = a.parity(), b.parity()
        sign = -1 if pa & pb else 1
        if ab != (b * a).scale(sign):
            yield {"a": str(a), "b": str(b)}

    report.sampled(f"algebra.d{d}.ring", seed, n, ring)

    def leibniz(draw, t):
        a, b = (_homog(d, deg, draw(i)) for i in range(2))
        i = 1 + (t % d)
        lhs = (a * b).d_odd(i)
        rhs = a.d_odd(i) * b + (a * b.d_odd(i)).scale(-1 if a.parity() else 1)
        if lhs != rhs:
            yield {"a": str(a), "b": str(b), "i": i}
        j = 1 + ((t + 1) % d)
        if a.d_odd(i).d_odd(j) != -(a.d_odd(j).d_odd(i)):
            yield {"a": str(a), "i": i, "j": j}

    report.sampled(f"algebra.d{d}.leibniz", seed, n, leibniz)

    def laplacian(draw, t):
        mu = _homog(d, deg, draw())
        if not pvcalc.divergence(pvcalc.divergence(mu)).is_zero():
            yield {"mu": str(mu)}

    report.sampled(f"algebra.d{d}.laplacian_squares_to_zero", seed, n, laplacian)

    def antisymmetry(draw, t):
        a, b = (_homog(d, deg, draw(i)) for i in range(2))
        pa, pb = a.xi_degree(), b.xi_degree()
        sign = -1 if ((pa - 1) * (pb - 1)) & 1 else 1
        if pvcalc.schouten(a, b) != pvcalc.schouten(b, a).scale(-sign):
            yield {"a": str(a), "b": str(b)}

    report.sampled(f"algebra.d{d}.shifted_antisymmetry", seed, n, antisymmetry)

    def jacobi(draw, t):
        a, b, c = (_homog(d, deg, draw(i)) for i in range(3))
        sign = -1 if ((a.xi_degree() - 1) * (b.xi_degree() - 1)) & 1 else 1
        lhs = pvcalc.schouten(a, pvcalc.schouten(b, c))
        rhs = pvcalc.schouten(pvcalc.schouten(a, b), c) + pvcalc.schouten(b, pvcalc.schouten(a, c)).scale(sign)
        if lhs != rhs:
            yield {"a": str(a), "b": str(b), "c": str(c)}

    report.sampled(f"algebra.d{d}.shifted_jacobi", seed, n, jacobi)

    def derived(k, delta_ab, delta_a_b, a_delta_b):
        # Delta's own derived bracket of a, of xi-degree k, with b, with the
        # decalage sign, from Delta(ab), (Delta a) b and a (Delta b)
        raw = delta_ab - delta_a_b - a_delta_b.scale(-1 if k & 1 else 1)
        return raw.scale(pvcalc.decalage_sign(k))

    def derivation(draw, t):
        # Delta is read at call time, so the family tests whatever
        # pvcalc.divergence is; each Laplacian and product is taken once
        delta = pvcalc.divergence
        mu, nu = (_homog(d, deg, draw(i)) for i in range(2))
        k = mu.xi_degree()
        d_mu, d_nu = delta(mu), delta(nu)
        d_mu_nu, mu_d_nu, d_mu_d_nu = d_mu * nu, mu * d_nu, d_mu * d_nu
        # Delta's bracket of (mu, nu), read by all three comparisons
        mu_nu = derived(k, delta(mu * nu), d_mu_nu, mu_d_nu)
        sign = -1 if (k - 1) & 1 else 1
        lhs = delta(mu_nu)
        rhs = (derived(d_mu.xi_degree(), delta(d_mu_nu), delta(d_mu) * nu, d_mu_d_nu)
               + derived(k, delta(mu_d_nu), d_mu_d_nu, mu * delta(d_nu)).scale(sign))
        if lhs != rhs:
            yield {"mu": str(mu), "nu": str(nu)}
        # Gerstenhaber Leibniz rule: holds exactly when Delta is second order
        rho = _homog(d, deg, draw(2))
        nu_rho = nu * rho
        sign = -1 if ((k - 1) * nu.xi_degree()) & 1 else 1
        lhs = derived(k, delta(mu * nu_rho), d_mu * nu_rho, mu * delta(nu_rho))
        rhs = mu_nu * rho + (nu * derived(k, delta(mu * rho), d_mu * rho, mu * delta(rho))).scale(sign)
        if lhs != rhs:
            yield {"mu": str(mu), "nu": str(nu), "rho": str(rho), "kind": "second-order"}
        # the bidifferential Schouten kernel is the bracket Delta derives
        if pvcalc.schouten(mu, nu) != mu_nu:
            yield {"mu": str(mu), "nu": str(nu), "kind": "kernel"}

    report.sampled(f"algebra.d{d}.derivation_and_second_order", seed, n, derivation)

    top = SuperPoly.top(3, 1)

    def lifted_bracket(draw, t):
        mu = random_poly(3, deg, xi_degree_filter=1, seed=draw(0))
        beta = random_poly(3, deg, xi_degree_filter=0, seed=draw(1))
        lhs = mu * pvcalc.divergence(beta * top)
        rhs = (pvcalc.schouten(mu, beta) * top).scale(conventions.LIFT_SIGN)
        if lhs != rhs:
            yield {"mu": str(mu), "beta": str(beta)}

    if d == 3:
        report.sampled("algebra.d3.lifted_bracket_identity", seed, n, lifted_bracket)
    return report


def suite_contraction(cfg: CampaignConfig) -> Report:
    """Delta K + K Delta = id and the vanishing top constant term."""
    report = Report()
    d, deg, seed = cfg.d, cfg.max_degree, cfg.seed
    per_degree = max(1, cfg.trials // max(1, d))

    def homotopy_identity(draw, key):
        j = key[0]
        mu = random_poly(d, deg, xi_degree_filter=j, seed=draw())
        if pvcalc.divergence(contraction_K(mu)) + contraction_K(pvcalc.divergence(mu)) != mu:
            yield {"xi_degree": j, "mu": str(mu)}

    report.sampled(f"contraction.d{d}.homotopy_identity", seed,
                   [(j, t) for j in range(d) for t in range(per_degree)], homotopy_identity)

    def top_constant(draw, t):
        mu = random_poly(d, deg, xi_degree_filter=d - 1, seed=draw())
        if contraction_K(mu).top_constant() != 0:
            yield {"mu": str(mu)}

    report.sampled(f"contraction.d{d}.top_constant_vanishes", seed, cfg.trials, top_constant)

    def transport_sign(draw, key):
        j = key[0]
        mu = random_poly(d, deg, xi_degree_filter=j, seed=draw())
        want = pvcalc.divergence(mu).scale(conventions.transport_sign(j))
        if pvcalc.divergence_via_transport(mu) != want:
            yield {"xi_degree": j, "mu": str(mu)}

    report.sampled(f"contraction.d{d}.transport_sign", seed,
                   [(j, t) for j in range(d + 1) for t in range(max(1, per_degree // 2))], transport_sign)
    return report


def suite_homotopy(cfg: CampaignConfig) -> Report:
    """Homotopy data for the configured complex, every summand sampled."""
    datum = build_datum(cfg.d, cfg.variant)
    report = verify_datum(datum, sample_budget=cfg.trials, seed=cfg.seed,
                          max_degree=cfg.max_degree)
    # negative control: a corrupted homotopy must be rejected.  Only the
    # homotopy relations involve H, so only they run on the corrupted datum
    bad = homotopy_relations(scale_homotopy(datum, 2), sample_budget=max(10, cfg.trials // 5),
                             seed=cfg.seed, max_degree=cfg.max_degree)
    report.add(f"datum.{cfg.variant.label}.d{cfg.d}.negative_control", not bad.ok)
    return report


def suite_transfer(cfg: CampaignConfig) -> Report:
    """Tree-sum transfer against the closed-form minimal model (minimal
    theory); the higher brackets are checked at an arity cap above 2."""
    report = Report()
    d = cfg.d
    variant = Variant.mbcov()
    datum = build_datum(d, variant)
    structure = field_structure(d)
    transferred = transfer(structure, datum, arity_cap=cfg.arity_cap)
    model = minimal_model_structure(d, variant)
    carrier = datum.carrier
    slots = carrier.slots
    per = max(1, cfg.trials // max(1, len(slots) ** 2))

    def l2(draw, key):
        s1, s2, _ = key
        a, b = (carrier.random_element(s, cfg.max_degree, seed=draw(i)) for i, s in enumerate((s1, s2)))
        if transferred.brackets[2](a, b) != model.brackets[2](a, b):
            yield {"slots": [list(s1), list(s2)], "inputs": [carrier.to_dict(a), carrier.to_dict(b)]}
        if not transferred.brackets[1](a).is_zero():
            yield {"kind": "differential", "slot": list(s1), "inputs": [carrier.to_dict(a)]}

    report.sampled(f"transfer.d{d}.l2_matches_schouten", cfg.seed,
                   [(s1, s2, t) for s1 in slots for s2 in slots for t in range(per)], l2)

    def higher(draw, key):
        n, t = key
        xs = [carrier.random_element(slots[(t + i) % len(slots)], cfg.max_degree, seed=draw(i)) for i in range(n)]
        if not transferred.brackets[n](*xs).is_zero():
            yield {"arity": n, "inputs": [carrier.to_dict(x) for x in xs]}

    if cfg.arity_cap >= 3:  # a cap of 2 transfers no higher bracket
        report.sampled(f"transfer.d{d}.higher_brackets_vanish", cfg.seed,
                       [(n, t) for n in range(3, cfg.arity_cap + 1) for t in range(max(1, cfg.trials // 2))], higher)
    return report


def _jacobi_range(top_arity: int) -> range:
    return range(2, max(4, top_arity + 2))


def suite_jacobi(cfg: CampaignConfig) -> Report:
    """Generalized Jacobi identities of the configured minimal model.

    jacobi_defect sums only the splits (i, n-i+1) whose two brackets the
    model has.  Where an arity has no such split the family sums absent
    brackets only and cannot fail: arity 2 on every minimal model, which
    has no b1, and arities 2 and 4 at d = 5, k = 2, whose brackets are b2
    and the 4-ary central one.  Those check ids stay, as every campaign
    lists them.  A draw with a zero input is zero by multilinearity; at
    d = 5, k = 2 most arity-4 and arity-5 draws have one.
    """
    report = Report()
    d, variant = cfg.d, cfg.variant
    structure = minimal_model_structure(d, variant)
    carrier = cohomology_model(d, variant)
    slots = carrier.slots
    arities = [n for n in structure.arities() if n >= 2]
    top_arity = max(arities)
    jacobi_range = _jacobi_range(top_arity)

    def element(s):
        """The element drawn with seed s, which also picks its slot."""
        return carrier.random_element(slots[sample_seed(s, "slot") % len(slots)], cfg.max_degree, seed=s)

    def jacobi(n, draw, t):
        if not jacobi_defect(structure, n, [element(draw(i)) for i in range(n)]).is_zero():
            yield {"arity": n}

    for n in jacobi_range:
        report.sampled(f"jacobi.{variant.label}.d{d}.arity{n}", cfg.seed,
                       max(1, cfg.trials // len(jacobi_range)), partial(jacobi, n))

    def centrality(draw, t):
        out = structure.brackets[top_arity](*(element(draw(i)) for i in range(top_arity)))
        if set(out.parts) - {carrier.home(("c",))}:
            yield {"witness": "non-central output"}
        probe = carrier.random_element(slots[t % len(slots)], cfg.max_degree, seed=draw(top_arity))
        if not structure.brackets[2](out, probe).is_zero():
            yield {"witness": "center is not central"}

    if top_arity > 2:
        report.sampled(f"jacobi.{variant.label}.d{d}.centrality", cfg.seed, max(1, cfg.trials // 2), centrality)
    return report


def suite_sho(cfg: CampaignConfig) -> Report:
    """The super-divergence law, the Lie anti-map law, and membership."""
    report = Report()
    d, deg, seed = cfg.d, cfg.max_degree, cfg.seed

    def divergence_law(draw, t):
        f = _homog(d, deg, draw())
        if f.is_zero():
            return
        kappa = conventions.KAPPA_EVEN if f.parity() == 0 else conventions.KAPPA_ODD
        lhs, div = super_divergence(hamiltonian_vf(f)), pvcalc.divergence(f)
        if lhs != div.scale(kappa):
            yield {"f": str(f)}
        if div.is_zero() != lhs.is_zero():
            yield {"f": str(f), "kind": "kernel"}

    report.sampled(f"sho.d{d}.divergence_law", seed, cfg.trials, divergence_law)

    def anti_map(draw, t):
        f, g = (_homog(d, deg, draw(i)) for i in range(2))
        if f.is_zero() or g.is_zero():
            return
        lhs = vf_bracket(hamiltonian_vf(f), hamiltonian_vf(g))
        rhs = hamiltonian_vf(pvcalc.schouten(f, g)).scale(conventions.SIGMA)
        if lhs != rhs:
            yield {"f": str(f), "g": str(g)}

    report.sampled(f"sho.d{d}.hamiltonian_anti_map", seed, cfg.trials, anti_map)

    def membership_criterion():
        n = min(5, deg + 2)
        for mono, poly in zip(monomial_basis(d, n), basis_elements(d, n)):
            got = membership(poly)
            # read off the monomial: Delta x^a xi_S is nonzero exactly when
            # some i in S has a_i > 0
            if not any(mono.exps) and not mono.odd:
                want = "not-HO-generator"
            elif any(mono.exps[i - 1] for i in mono.odd):
                want = "HO"
            elif not any(mono.exps) and mono.odd == tuple(range(1, d + 1)):
                want = "SHO-prime"
            else:
                want = "SHO"
            if got != want:
                yield {"monomial": str(poly), "got": got, "want": want}

    report.check(f"sho.d{d}.membership_criterion", membership_criterion())

    def principal_grading(draw, t):
        f, g = (random_sho_generator(deg, seed=draw(i), d=d) for i in range(2))
        br = pvcalc.schouten(f, g)
        degs_f = set(f.principal_components())
        degs_g = set(g.principal_components())
        if len(degs_f) == 1 and len(degs_g) == 1 and not br.is_zero():
            want = {degs_f.pop() + degs_g.pop()}
            if set(br.principal_components()) - want:
                yield {"f": str(f), "g": str(g)}

    report.sampled(f"sho.d{d}.principal_grading", seed, max(1, cfg.trials // 2), principal_grading)
    return report


def suite_cocycles(cfg: CampaignConfig) -> Report:
    """The d = 3 extension: verbatim bracket identities, Jacobi, cocycles."""
    report = Report()
    pairs = verbatim_pairs()

    def identity(name, key):
        for indices, a, b, central in pairs[name]:
            out = ext_bracket_d3(a, b)
            if not (out.gen.is_zero() and (out.c1, out.c2) == central):
                yield {key: list(indices), "got": str(out)}

    report.check("extension.identity_eps_e1", identity("eps_e1", "ijk"))
    report.check("extension.identity_delta_e2", identity("delta_e2", "ij"))

    def super_jacobi(draw, t):
        a, b, c = (ext_element(random_sho_generator(cfg.max_degree, seed=draw(i))) for i in range(3))
        if not lie_jacobi_defect(a, b, c).is_zero():
            yield {"a": str(a), "b": str(b), "c": str(c)}

    report.sampled("extension.super_jacobi", cfg.seed, cfg.trials, super_jacobi)

    report.extend(cocycle_check(c1_pairing, trials=max(1, cfg.trials // 2), seed=cfg.seed,
                                max_degree=cfg.max_degree, label="extension.c1_cocycle"))
    report.extend(cocycle_check(lambda f, g: pvcalc.schouten(f, g).constant_term(),
                                trials=max(1, cfg.trials // 2), seed=cfg.seed,
                                max_degree=cfg.max_degree, label="extension.c2_cocycle"))
    # negative control: a perturbed pairing is not a cocycle
    def perturbed(f, g):
        return c1_pairing(f, g) + sum((f * g).key_values().values(), Fraction(0))

    broken = cocycle_check(perturbed, trials=cfg.trials, seed=cfg.seed,
                           max_degree=cfg.max_degree, label="extension.broken_pairing")
    report.add("extension.negative_control", not broken.ok)

    center = ext_element(SuperPoly.zero(3), c1=1, c2=-2)

    def centrality(draw, t):
        v = ext_element(random_sho_generator(cfg.max_degree, seed=draw()))
        if not ext_bracket_d3(center, v).is_zero() or not ext_bracket_d3(v, center).is_zero():
            yield {"v": str(v)}

    report.sampled("extension.centrality", cfg.seed, max(1, cfg.trials // 2), centrality)
    return report


def suite_sl2(cfg: CampaignConfig) -> Report:
    report = Report()
    half = max(1, cfg.trials // 2)
    report.extend(sl2_relations_check(truncation=min(4, cfg.max_degree), trials=half, seed=cfg.seed))
    report.extend(equivariance_check_cocycle(trials=half, seed=cfg.seed))
    report.extend(equivariance_compare_theorem(truncation=min(3, cfg.max_degree), trials=half, seed=cfg.seed))
    return report


# in the order of a default campaign
SUITES = {
    "algebra": suite_algebra,
    "contraction": suite_contraction,
    "homotopy": suite_homotopy,
    "transfer": suite_transfer,
    "sho": suite_sho,
    "jacobi": suite_jacobi,
    "cocycles": suite_cocycles,
    "sl2": suite_sl2,
}

# suite -> (what it needs, whether a configuration has it); a default
# campaign leaves the suite out without it, and --check rejects it
PREREQUISITES = {
    "transfer": ("the mbcov variant", lambda cfg: cfg.variant.kind == "mbcov"),
    "cocycles": ("d = 3", lambda cfg: cfg.d == 3),
    "sl2": ("d = 3", lambda cfg: cfg.d == 3),
}


# suite -> the most samples of degree max_degree it multiplies together,
# as a product or through brackets; a suite not listed draws one at a time
SAMPLE_FACTORS = {
    "algebra": lambda cfg: 3,
    "transfer": lambda cfg: cfg.arity_cap,
    "sho": lambda cfg: 2,
    "jacobi": lambda cfg: _jacobi_range(max(minimal_model_structure(cfg.d, cfg.variant).arities()))[-1],
    "cocycles": lambda cfg: 3,
}
# brackets lower the degree, K raises it by one, and the side conditions
# apply the homotopy twice
RAISE_HEADROOM = 2


def _unmet_prerequisite(name: str, cfg: CampaignConfig) -> str | None:
    need, holds = PREREQUISITES.get(name, (None, lambda cfg: True))
    return None if holds(cfg) else need


def default_checks(cfg: CampaignConfig) -> tuple[str, ...]:
    return tuple(name for name in SUITES if not _unmet_prerequisite(name, cfg))


def run_campaign(cfg: CampaignConfig) -> Report:
    cfg.validate()
    checks = cfg.checks or default_checks(cfg)
    report = Report()
    for name in checks:
        report.extend(SUITES[name](cfg))
    return report
