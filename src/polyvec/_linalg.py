"""Small exact linear algebra over Fraction on sparse dict vectors."""

from __future__ import annotations

from fractions import Fraction


def solve_combination(vectors: list[dict], target: dict):
    """Coefficients c with sum c_i vectors[i] = target, or None.

    Vectors are sparse mappings key -> Fraction with comparable keys.
    """
    keys = sorted({k for v in vectors for k in v} | set(target))
    n = len(vectors)
    rows = [[Fraction(v.get(key, 0)) for v in vectors] + [Fraction(target.get(key, 0))]
            for key in keys]
    pivots: list[tuple[int, int]] = []  # (row, column)
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        pv = rows[row][col]
        rows[row] = [x / pv for x in rows[row]]
        for r in range(len(rows)):
            if r != row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[row])]
        pivots.append((row, col))
        row += 1
        if row == len(rows):
            break
    # inconsistent system?
    for r in range(len(rows)):
        if all(rows[r][c] == 0 for c in range(n)) and rows[r][n] != 0:
            return None
    coeffs = [Fraction(0)] * n
    for r, c in pivots:
        coeffs[c] = rows[r][n]
    return coeffs


def independent_indices(vectors: list[dict]) -> list[int]:
    """Indices of a maximal linearly independent subfamily (greedy).

    Each vector is reduced against the pivot rows kept so far and kept
    when a remainder is left; its remainder, scaled to 1 at its least
    key, becomes the next pivot row.
    """
    pivots: list[tuple] = []  # (pivot key, row with 1 there and 0 at earlier pivot keys)
    out: list[int] = []
    for idx, vec in enumerate(vectors):
        rem = {key: Fraction(c) for key, c in vec.items() if c}
        for pivot, row in pivots:
            factor = rem.get(pivot)
            if factor:
                for key, c in row.items():
                    rem[key] = rem.get(key, 0) - factor * c
                rem = {key: c for key, c in rem.items() if c}
        if rem:
            pivot = min(rem)
            scale = rem[pivot]
            pivots.append((pivot, {key: c / scale for key, c in rem.items()}))
            out.append(idx)
    return out
