"""The sampler kernel draws what random.Random(seed).choice draws.

random_poly and the central-line draw read bounded integers from one
generator of random.Random's C base class with getrandbits and
rejection.  The reference here is the plain library path: a
random.Random(seed) choosing basis monomials (Monomial tuples, not
keys) and coefficients with choice.  Every draw of every campaign goes
through the kernel, so equality on these draws is what keeps the seeds,
goldens and witnesses of the reports unchanged.
"""

import random
from itertools import combinations

import pytest

from polyvec import superpoly
from polyvec.complexes import Variant, cohomology_model
from polyvec.superpoly import (
    SuperPoly,
    basis_elements,
    monomial_basis,
    random_coefficient,
    random_poly,
    sample_seed,
)

COEFFICIENTS = [-3, -2, -1, 1, 2, 3]


def reference_poly(d, max_total_degree, xi_degree_filter=None, seed=0, n_terms=4) -> SuperPoly:
    xi = {xi_degree_filter} if isinstance(xi_degree_filter, int) else xi_degree_filter
    basis = monomial_basis(d, max_total_degree, xi)
    rng = random.Random(seed)
    terms = {}
    for _ in range(min(n_terms, len(basis))):
        mono = rng.choice(basis)
        terms[mono] = terms.get(mono, 0) + rng.choice(COEFFICIENTS)
    return SuperPoly(d, terms)


def _seeds(label, count):
    return [0] + [sample_seed(label, i) for i in range(count - 1)]


def _size(d, n, xi) -> int:
    return len(monomial_basis(d, n, {xi} if isinstance(xi, int) else xi))


def _grid_cases():
    """(d, max degree, xi filter) over d = 1..5, the filter given as None,
    an int and a set, an empty basis among them."""
    out = []
    for d in range(1, 6):
        for n in range(5 if d < 4 else 4):
            top = min(d, n)
            for xi in (None, 0, top, {0, top}, set(range(1, top + 1)), {top + 1}):
                out.append((d, n, xi))
    return out


def _power_cases():
    """For each size 2^k and 2^k + 1, k = 1..7, where one is found, the
    first (d, max degree, xi set) whose basis has that size: n = 2^k reads
    k + 1 bits and rejects half of the values, n = 2^k + 1 all but n of
    2^(k + 1)."""
    targets = {2 ** k + e for k in range(1, 8) for e in (0, 1)}
    found = {}
    for d, top_n in ((1, 16), (2, 8), (3, 5), (4, 3), (5, 3)):
        for n in range(top_n + 1):
            degrees = range(min(d, n) + 1)
            for r in range(1, len(degrees) + 1):
                for xi in combinations(degrees, r):
                    found.setdefault(_size(d, n, set(xi)), (d, n, set(xi)))
    return {size: found[size] for size in sorted(targets & set(found))}


GRID = _grid_cases()
POWERS = _power_cases()


def test_the_cases_cover_the_rejection_path_and_every_filter_form():
    assert {2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65, 129} <= set(POWERS)
    assert all(_size(*case) == size for size, case in POWERS.items())
    assert {type(xi) for _, _, xi in GRID} == {type(None), int, set}
    assert {d for d, _, _ in GRID} == {1, 2, 3, 4, 5}
    assert any(_size(*case) == 0 for case in GRID)


def test_random_poly_draws_as_random_choice():
    draws = 0
    cases = [(case, 20) for case in GRID] + [(case, 200) for case in POWERS.values()]
    for (d, n, xi), count in cases:
        size = _size(d, n, xi)
        # n_terms at the default and above the basis size
        for seed in _seeds(("poly", d, n, repr(xi)), count):
            for k in (4, size + 3):
                got = random_poly(d, n, xi, seed=seed, n_terms=k)
                assert got == reference_poly(d, n, xi, seed=seed, n_terms=k), (d, n, xi, seed, k)
                draws += 1
    assert draws >= 10_000


def test_a_campaign_draw_matches_the_reference():
    # the arguments as the datum families pass them, 4-term draws at (5, 3)
    for j in range(6):
        for seed in _seeds(("field", j), 50):
            assert random_poly(5, 3, xi_degree_filter=j, seed=seed) == reference_poly(5, 3, j, seed)


def test_the_central_line_draws_as_random_choice():
    seeds = _seeds("central", 10_000)
    assert [random_coefficient(s) for s in seeds] == [random.Random(s).choice(COEFFICIENTS) for s in seeds]
    carrier = cohomology_model(5, Variant.potential(2))
    for s in seeds[:200]:
        got = carrier.random_element(("c",), 3, seed=s)
        assert got.parts[carrier.home(("c",))] == SuperPoly.top(5, random.Random(s).choice(COEFFICIENTS))


def test_seeds_of_other_types_draw_as_random_random():
    # random.Random hashes a str or bytes seed with SHA-512 before seeding;
    # the C generator alone would hash it with the salted hash()
    for seed in ("abc", b"abc", "", 2.5, True, -7, 2 ** 100):
        assert random_poly(3, 3, seed=seed) == reference_poly(3, 3, seed=seed), seed
        assert random_coefficient(seed) == random.Random(seed).choice(COEFFICIENTS), seed


def test_an_empty_basis_gives_zero_before_seeding(monkeypatch):
    def fail(seed):
        raise AssertionError("a generator was seeded for an empty basis")

    monkeypatch.setattr(superpoly, "_Generator", fail)
    # ("pv", 4) at degree 3 on (5, 2): xi-degree 4 is past the budget
    assert random_poly(5, 3, xi_degree_filter=4, seed=sample_seed(42, "x")).is_zero()
    assert random_poly(2, 1, xi_degree_filter={2}, seed=0) == SuperPoly.zero(2)
    with pytest.raises(AssertionError):
        random_poly(2, 1, seed=0)


@pytest.mark.parametrize("d", range(1, 6))
def test_basis_elements_are_the_basis_monomials_in_order(d):
    for n in range(6):
        got = list(basis_elements(d, n))
        assert got == [SuperPoly(d, {mono: 1}) for mono in monomial_basis(d, n)]
        assert all(p._den == 1 and list(p._terms.values()) == [1] for p in got)
