"""Small exact linear algebra over Fraction on sparse dict vectors.

One elimination serves both solvers.  A pivot row is zero at every earlier
pivot key, so reducing against the rows in the order they were kept clears
them all, and a new row may pivot at any key of its remainder (the first
in insertion order): keys of any hashable type are never compared.
"""

from __future__ import annotations

from fractions import Fraction


def _reduce(vec: dict, rows: list) -> tuple[dict, dict]:
    """The remainder of vec against the pivot rows, and the combination of
    input vectors (index -> coefficient) taken off it."""
    rem = {key: Fraction(c) for key, c in vec.items() if c}
    taken: dict[int, Fraction] = {}
    for _, pivot, row, combo in rows:
        factor = rem.get(pivot)
        if factor:
            for key, c in row.items():
                rem[key] = rem.get(key, 0) - factor * c
            for idx, c in combo.items():
                taken[idx] = taken.get(idx, 0) + factor * c
    return {key: c for key, c in rem.items() if c}, taken


def _echelon(vectors: list[dict]) -> list[tuple]:
    """(index, pivot key, row, combination) for each vector that leaves a
    remainder: the remainder scaled to 1 at its pivot, and the input
    vectors it combines."""
    rows: list[tuple] = []
    for idx, vec in enumerate(vectors):
        rem, taken = _reduce(vec, rows)
        if rem:
            pivot = next(iter(rem))
            inv = 1 / rem[pivot]
            combo = {i: -c * inv for i, c in taken.items()}
            combo[idx] = inv
            rows.append((idx, pivot, {key: c * inv for key, c in rem.items()}, combo))
    return rows


def solve_combination(vectors: list[dict], target: dict):
    """Coefficients c with sum c_i vectors[i] = target, or None; a vector in
    the span of the ones before it gets 0."""
    rem, taken = _reduce(target, _echelon(vectors))
    if rem:
        return None
    return [taken.get(idx, Fraction(0)) for idx in range(len(vectors))]


def independent_indices(vectors: list[dict]) -> list[int]:
    """Indices of a maximal linearly independent subfamily (greedy): each
    vector is kept unless it lies in the span of the vectors before it."""
    return [row[0] for row in _echelon(vectors)]
