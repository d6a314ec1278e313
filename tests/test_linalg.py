import random
from fractions import Fraction

import pytest

from polyvec import sho
from polyvec._linalg import independent_indices, solve_combination


def greedy_reference(vectors):
    """The greedy definition: keep a nonzero vector unless it solves as a
    combination of the vectors kept so far."""
    basis, out = [], []
    for idx, vec in enumerate(vectors):
        if not vec:
            continue
        if basis and solve_combination(basis, vec) is not None:
            continue
        basis.append(vec)
        out.append(idx)
    return out


def sparse_family(seed: int):
    """Sparse vectors over tuple keys, mixed with zero vectors, repeats and
    random combinations of earlier members."""
    rng = random.Random(seed)
    keys = [(rng.randrange(3), rng.randrange(4)) for _ in range(8)]
    family = []
    for _ in range(rng.randrange(4, 14)):
        roll = rng.random()
        if family and roll < 0.35:
            combo = {}
            for vec in rng.sample(family, min(len(family), rng.randrange(1, 4))):
                c = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
                for key, v in vec.items():
                    combo[key] = combo.get(key, 0) + c * v
            family.append({key: v for key, v in combo.items() if v})
        elif roll < 0.45:
            family.append({})
        elif family and roll < 0.5:
            family.append(dict(rng.choice(family)))
        else:
            family.append({rng.choice(keys): Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                           for _ in range(rng.randrange(1, 4))})
    return [{key: v for key, v in vec.items() if v} for vec in family]


@pytest.mark.parametrize("seed", range(40))
def test_independent_indices_match_greedy_reference(seed):
    family = sparse_family(seed)
    assert independent_indices(family) == greedy_reference(family)


def test_families_include_dependent_vectors():
    families = [sparse_family(seed) for seed in range(40)]
    skipped = sum(len([v for v in f if v]) - len(greedy_reference(f)) for f in families)
    assert skipped >= 40


def test_sho_basis_unchanged_by_echelon(monkeypatch):
    got = sho.sho_basis(3, 2)
    monkeypatch.setattr(sho, "independent_indices", greedy_reference)
    assert sho.sho_basis(3, 2) == got
