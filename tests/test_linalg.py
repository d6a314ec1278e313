import random
from fractions import Fraction

import pytest

from polyvec import sho
from polyvec._linalg import independent_indices, solve_combination


def greedy_reference(vectors):
    """The greedy definition: keep a vector exactly when it raises the rank
    of the vectors before it.  Those are the pivot columns of a dense row
    echelon form over Fraction of the matrix whose columns are the vectors,
    its rows taken over the keys in first-seen order."""
    keys = list(dict.fromkeys(key for vec in vectors for key in vec))
    rows = [[Fraction(vec.get(key, 0)) for vec in vectors] for key in keys]
    out, r = [], 0
    for col in range(len(vectors)):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col] / rows[r][col]
                rows[i] = [a - factor * b if b else a for a, b in zip(rows[i], rows[r])]
        out.append(col)
        r += 1
    return out


def dense_rank(vectors) -> int:
    return len(greedy_reference(vectors))


def sparse_family(seed: int, mixed_keys: bool = False):
    """Sparse vectors over tuple keys, mixed with zero vectors, repeats and
    random combinations of earlier members.  With mixed_keys each key is
    drawn as its tuple, its str or an int, so keys cannot be ordered."""
    rng = random.Random(seed)
    keys = [(rng.randrange(3), rng.randrange(4)) for _ in range(8)]
    if mixed_keys:
        keys = [rng.choice((key, str(key), 4 * key[0] + key[1])) for key in keys]
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


def combination(vectors, coeffs) -> dict:
    out = {}
    for c, vec in zip(coeffs, vectors):
        for key, v in vec.items():
            out[key] = out.get(key, 0) + c * v
    return {key: v for key, v in out.items() if v}


def targets(family, seed: int):
    """Random combinations of the family (inside its span) and random sparse
    vectors, some on a key no member uses (mostly outside it)."""
    rng = random.Random(1000 + seed)
    keys = list(dict.fromkeys(key for vec in family for key in vec)) + ["fresh"]
    for _ in range(4):
        yield combination(family, [Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in family])
        yield {rng.choice(keys): Fraction(rng.randrange(1, 5), rng.randrange(1, 3))
               for _ in range(rng.randrange(1, 4))}


@pytest.mark.parametrize("seed", range(40))
def test_independent_indices_match_greedy_reference(seed):
    family = sparse_family(seed)
    assert independent_indices(family) == greedy_reference(family)


@pytest.mark.parametrize("seed", range(40))
def test_independent_indices_on_mixed_keys(seed):
    family = sparse_family(seed, mixed_keys=True)
    assert independent_indices(family) == greedy_reference(family)


def check_solutions(family, seed: int):
    """solve_combination on targets in and out of the family's span: None
    exactly when the target raises the rank, else an exact combination."""
    kept = set(greedy_reference(family))
    rank = len(kept)
    for target in targets(family, seed):
        coeffs = solve_combination(family, target)
        assert (coeffs is None) == (dense_rank(family + [target]) > rank)
        if coeffs is not None:
            assert combination(family, coeffs) == target
            # the pivot solution: a dependent vector gets 0
            assert all(c == 0 for i, c in enumerate(coeffs) if i not in kept)


@pytest.mark.parametrize("seed", range(40))
def test_solve_combination_against_dense_rank(seed):
    check_solutions(sparse_family(seed), seed)


@pytest.mark.parametrize("seed", range(40))
def test_solve_combination_on_mixed_keys(seed):
    check_solutions(sparse_family(seed, mixed_keys=True), seed)


def test_solve_combination_hits_both_outcomes():
    outcomes = [solve_combination(sparse_family(seed), target) is None
                for seed in range(40) for target in targets(sparse_family(seed), seed)]
    assert outcomes.count(True) >= 80 and outcomes.count(False) >= 200


def test_mixed_keys_are_never_compared():
    assert independent_indices([{"a": 1, 3: 2}, {3: 1}]) == [0, 1]
    assert solve_combination([{"a": 1}, {3: 1}], {"a": 2, 3: 1}) == [2, 1]
    family = [{"a": 1, (0, 1): 2}, {}, {3: 1}, {"a": 2, (0, 1): 4, 3: -1}, {(0, 1): 1}]
    assert independent_indices(family) == [0, 2, 4]
    assert solve_combination(family, {"a": 1, (0, 1): 3, 3: 5}) == [1, 0, 5, 0, 1]
    assert solve_combination(family, {"b": 1}) is None
    assert solve_combination(family, {}) == [0] * 5


def test_families_include_dependent_vectors():
    families = [sparse_family(seed) for seed in range(40)]
    skipped = sum(len([v for v in f if v]) - len(greedy_reference(f)) for f in families)
    assert skipped >= 40


def test_sho_basis_unchanged_by_echelon(monkeypatch):
    got = sho.sho_basis(3, 2)
    monkeypatch.setattr(sho, "independent_indices", greedy_reference)
    assert sho.sho_basis(3, 2) == got
