"""The fused Schouten kernel against Delta's derived bracket, and the
copies it must not make.

symmetric_bracket is one call of superpoly.bracket_products, which pairs
first partials only at the indices both inputs carry; schouten signs that
bracket's output by mu's parity.  The bracket is bilinear, so agreement on
every ordered pair of basis monomials proves both at the truncation, pairs
with an index on one side only included.  The remaining tests pin what
the kernel path leaves alone: a mixed-parity mu is signed per component,
inputs are never mutated by _of's in-place zero filter, and one bracket
builds at most one SuperPoly (the exponent cap is tested with the
product's in test_superpoly.py).
"""

import random

import pytest

from polyvec import pvcalc, superpoly
from polyvec.superpoly import SuperPoly, monomial_basis, random_poly


def _derived_bracket(mu, nu):
    """Delta(mu nu) - (Delta mu) nu - (-1)^|mu| mu (Delta nu), from the
    divergence and the product only."""
    div = pvcalc.divergence
    second = mu * div(nu)
    return div(mu * nu) - div(mu) * nu - (second if mu.parity() == 0 else -second)


@pytest.mark.parametrize("d, pairs, nontrivial", [(2, 169, 68), (3, 625, 222), (4, 1681, 520), (5, 3721, 1010)])
def test_kernel_equals_derived_bracket_on_every_basis_pair(d, pairs, nontrivial):
    basis = [SuperPoly(d, {m: 1}) for m in monomial_basis(d, 2)]
    seen = 0
    for mu in basis:
        sign = pvcalc.decalage_sign(mu.xi_degree())
        for nu in basis:
            want = _derived_bracket(mu, nu)
            got = pvcalc.symmetric_bracket(mu, nu)
            assert got == want, (str(mu), str(nu))
            assert pvcalc.schouten(mu, nu) == want.scale(sign), (str(mu), str(nu))
            seen += not got.is_zero()
    assert (len(basis) ** 2, seen) == (pairs, nontrivial)


def _split_draws(d, seed):
    """(mu0, mu1, nu): a nonzero even and a nonzero odd draw, and any nu."""
    rng = random.Random(seed)
    even = [j for j in range(min(d, 3) + 1) if j % 2 == 0]
    odd = [j for j in range(min(d, 3) + 1) if j % 2 == 1]
    mu0 = random_poly(d, 3, xi_degree_filter=rng.choice(even), seed=seed, n_terms=5)
    mu1 = random_poly(d, 3, xi_degree_filter=rng.choice(odd), seed=seed + 1, n_terms=5)
    nu = random_poly(d, 3, xi_degree_filter=rng.randrange(d + 1), seed=seed + 2, n_terms=5)
    return mu0, mu1, nu


def _additivity_failures(d, seeds):
    """The seeds at which schouten(mu0 + mu1, nu) differs from
    schouten(mu0, nu) + schouten(mu1, nu), mu0 even and mu1 odd."""
    failures = []
    for seed in seeds:
        mu0, mu1, nu = _split_draws(d, seed)
        assert mu0.parity() == 0 and mu1.parity() == 1 and not (mu0.is_zero() or mu1.is_zero())
        if pvcalc.schouten(mu0 + mu1, nu) != pvcalc.schouten(mu0, nu) + pvcalc.schouten(mu1, nu):
            failures.append(seed)
    return failures


@pytest.mark.parametrize("d", [3, 5])
def test_mixed_parity_mu_is_signed_per_component(d):
    assert _additivity_failures(d, range(40)) == []


@pytest.mark.parametrize("d", [3, 5])
def test_one_sign_on_a_mixed_mu_fails_the_additivity_check(monkeypatch, d):
    # negative control: a parity rule that sees only the top xi-degree of
    # mu signs the whole of a mixed mu by it
    true_degrees = SuperPoly.xi_degrees
    monkeypatch.setattr(SuperPoly, "xi_degrees", lambda self: {max(true_degrees(self), default=0)})
    assert len(_additivity_failures(d, range(40))) >= 20


def test_operations_leave_their_inputs_unchanged(monkeypatch):
    d = 3
    a = random_poly(d, 3, seed=1, n_terms=6)
    b = a.scale(2) + random_poly(d, 3, seed=2, n_terms=6)
    # mu = x2 xi1 + x1 xi2 is odd, so b2(mu, mu) = 0 by cancelling terms
    mu = SuperPoly.x(d, 2) * SuperPoly.xi(d, 1) + SuperPoly.x(d, 1) * SuperPoly.xi(d, 2)
    raw = []
    checked = superpoly.guard_checked
    monkeypatch.setattr(superpoly, "guard_checked", lambda layout, out: raw.append(dict(out)) or checked(layout, out))
    inputs = (a, b, mu)
    before = [dict(p._terms) for p in inputs]
    results = [a - b, a + (-a), b - b, a.scale(0), a.scale(3), b.scale(-1), pvcalc.symmetric_bracket(mu, mu)]
    assert [dict(p._terms) for p in inputs] == before
    assert results[1].is_zero() and results[2].is_zero() and results[-1].is_zero()
    assert raw and 0 in raw[-1].values()  # the bracket really cancelled
    assert all(r._terms is not p._terms for r in results for p in inputs)


def _counting(monkeypatch):
    """A list that grows by one for every SuperPoly built through _reduced
    or _trusted (every internal constructor) while the patch holds."""
    built = []
    for name in ("_reduced", "_trusted"):
        original = vars(SuperPoly)[name].__func__

        def counted(cls, *args, _original=original):
            built.append(1)
            return _original(cls, *args)

        monkeypatch.setattr(SuperPoly, name, classmethod(counted))
    return built


@pytest.mark.parametrize("d", [3, 5])
def test_one_bracket_builds_at_most_one_superpoly(monkeypatch, d):
    # a host-independent guard on the bracket path: the kernel builds its
    # output once and schouten adds at most a negation, for an even mu only
    draws = []
    for seed in range(20):
        rng = random.Random(seed)
        mu = random_poly(d, 3, xi_degree_filter=rng.randrange(d + 1), seed=seed, n_terms=6)
        nu = random_poly(d, 3, xi_degree_filter=rng.randrange(d + 1), seed=seed + 50, n_terms=6)
        draws.append((mu, nu, mu.parity()))
    assert {parity for _, _, parity in draws} == {0, 1}
    built = _counting(monkeypatch)
    for mu, nu, parity in draws:
        del built[:]
        pvcalc.symmetric_bracket(mu, nu)
        assert len(built) <= 1
        del built[:]
        pvcalc.schouten(mu, nu)
        assert len(built) <= (1 if parity else 2)
