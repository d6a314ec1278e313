"""Exact supercommutative polynomial arithmetic on C^{d|d}.

Elements live in Q[x_1..x_d] (x) Lambda[xi_1..xi_d] with exact rational
coefficients.  Each stored coefficient is an int, or a Fraction whose
denominator is not 1: arithmetic stays on Python ints until a division
(such as the weights of contraction_K) forces a Fraction.  A monomial
stores an even exponent vector and a strictly increasing tuple of odd
indices; xi_i^2 = 0 is enforced by the subset representation.  Values
are immutable once built and every operation is a pure function, so
concurrent use needs no synchronization.

Odd derivatives use the LEFT convention throughout: d_odd(i) anticommutes
xi_i to the front of the odd factor and strikes it.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import add
from typing import Iterable, Iterator, NamedTuple

# hashlib.blake2b is this class; importing hashlib also loads OpenSSL,
# which adds about 3.5 MB of resident memory to every process
from _blake2 import blake2b


class Monomial(NamedTuple):
    """x^exps * xi_{odd[0]} ... xi_{odd[-1]}, odd indices ascending."""

    exps: tuple[int, ...]
    odd: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.exps) + len(self.odd)

    @property
    def xi_degree(self) -> int:
        return len(self.odd)

    @property
    def parity(self) -> int:
        return len(self.odd) & 1

    def sort_key(self):
        # graded lexicographic; fixes serialization byte order
        return (self.degree, self.exps, self.odd)


def koszul_sign(seq) -> int:
    """(-1)^(number of inversions of seq): the Koszul sign of sorting
    a sequence of distinct odd factors."""
    inv = 0
    for i, a in enumerate(seq):
        for b in seq[i + 1 :]:
            if a > b:
                inv += 1
    return -1 if inv & 1 else 1


def _merge_odd(a: tuple[int, ...], b: tuple[int, ...]):
    """Merge two ascending odd-index tuples.

    Returns (sign, merged) where sign is the Koszul sign of sorting the
    concatenation, or None if an index repeats (xi_i^2 = 0).
    """
    if not a:
        return 1, b
    if not b:
        return 1, a
    if set(a) & set(b):
        return None
    return koszul_sign(a + b), tuple(sorted(a + b))


class SuperPoly:
    """A finite Q-linear combination of monomials on C^{d|d}."""

    __slots__ = ("d", "_terms")

    def __init__(self, d: int, terms: dict[Monomial, int | Fraction] | None = None):
        # the one place the coefficient invariant is enforced: zero terms
        # are dropped and an integral Fraction is stored as its numerator
        self.d = d
        self._terms = {m: c if type(c) is int or c.denominator != 1 else c.numerator
                       for m, c in (terms or {}).items() if c}

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> "SuperPoly":
        return cls(d)

    @classmethod
    def const(cls, d: int, value) -> "SuperPoly":
        return cls(d, {Monomial((0,) * d, ()): value})

    @classmethod
    def x(cls, d: int, i: int) -> "SuperPoly":
        _check_index(d, i)
        exps = tuple(1 if j == i - 1 else 0 for j in range(d))
        return cls(d, {Monomial(exps, ()): 1})

    @classmethod
    def xi(cls, d: int, i: int) -> "SuperPoly":
        _check_index(d, i)
        return cls(d, {Monomial((0,) * d, (i,)): 1})

    @classmethod
    def monomial(cls, d: int, exps: Iterable[int], odd: Iterable[int], coeff=1) -> "SuperPoly":
        exps = tuple(exps)
        odd = tuple(odd)
        if len(exps) != d or list(odd) != sorted(set(odd)):
            raise ValueError("malformed monomial")
        return cls(d, {Monomial(exps, odd): coeff})

    # -- basic queries -----------------------------------------------

    def terms(self) -> Iterator[tuple[Monomial, int | Fraction]]:
        return iter(sorted(self._terms.items(), key=lambda t: t[0].sort_key()))

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, mono: Monomial) -> int | Fraction:
        return self._terms.get(mono, 0)

    def constant_term(self) -> int | Fraction:
        return self._terms.get(Monomial((0,) * self.d, ()), 0)

    @classmethod
    def top(cls, d: int, value) -> "SuperPoly":
        """The constant top polyvector value * xi_1...xi_d."""
        return cls(d, {Monomial((0,) * d, tuple(range(1, d + 1))): value})

    def top_constant(self) -> int | Fraction:
        """Coefficient of xi_1...xi_d with all even exponents zero."""
        return self._terms.get(Monomial((0,) * self.d, tuple(range(1, self.d + 1))), 0)

    def xi_degrees(self) -> set[int]:
        return {m.xi_degree for m in self._terms}

    def total_degree(self) -> int:
        return max((m.degree for m in self._terms), default=0)

    def xi_degree(self) -> int:
        """The xi-degree of a xi-homogeneous element (0 for the zero element)."""
        degs = self.xi_degrees()
        if len(degs) > 1:
            raise ValueError("element is not xi-homogeneous")
        return degs.pop() if degs else 0

    def parity(self) -> int:
        """Parity of a parity-homogeneous element (0 for zero)."""
        pars = {m.parity for m in self._terms}
        if len(pars) > 1:
            raise ValueError("element is not parity-homogeneous")
        return pars.pop() if pars else 0

    # -- algebra -----------------------------------------------------

    def __add__(self, other: "SuperPoly") -> "SuperPoly":
        self._check_same(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            terms[m] = terms.get(m, 0) + c
        return SuperPoly(self.d, terms)

    def __neg__(self) -> "SuperPoly":
        return SuperPoly(self.d, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "SuperPoly") -> "SuperPoly":
        return self + (-other)

    def scale(self, value) -> "SuperPoly":
        if not value:
            return SuperPoly(self.d)
        return SuperPoly(self.d, {m: value * v for m, v in self._terms.items()})

    def __mul__(self, other: "SuperPoly") -> "SuperPoly":
        self._check_same(other)
        return term_products(self.d, ((self._terms.items(), other._terms.items()),))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SuperPoly)
            and self.d == other.d
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.d, frozenset(self._terms.items())))

    def _check_same(self, other: "SuperPoly"):
        if not isinstance(other, SuperPoly):
            raise TypeError(f"expected SuperPoly, got {type(other).__name__}")
        if self.d != other.d:
            raise ValueError(f"dimension mismatch: {self.d} != {other.d}")

    # -- linear operators --------------------------------------------

    def map_monomials(self, rule) -> "SuperPoly":
        """The linear operator sending each monomial m to the sum of
        coeff * mono over the (mono, coeff) pairs that rule(m) yields."""
        out: dict[Monomial, int | Fraction] = {}
        for m, c in self._terms.items():
            for mono, k in rule(m):
                out[mono] = out.get(mono, 0) + k * c
        return SuperPoly(self.d, out)

    def scale_by_xi_degree(self, factor) -> "SuperPoly":
        """Scale the xi-degree-k part by factor(k)."""
        return self.map_monomials(lambda m: ((m, factor(len(m.odd))),))

    def d_even(self, i: int) -> "SuperPoly":
        """Partial derivative with respect to x_i."""
        _check_index(self.d, i)
        return self.map_monomials(lambda m: d_even_rule(m, i))

    def d_odd(self, i: int) -> "SuperPoly":
        """Left derivative with respect to xi_i."""
        _check_index(self.d, i)
        return self.map_monomials(lambda m: d_odd_rule(m, i))

    # -- decompositions ----------------------------------------------

    def xi_component(self, k: int) -> "SuperPoly":
        return SuperPoly(self.d, {m: c for m, c in self._terms.items() if m.xi_degree == k})

    def x_constant_part(self) -> "SuperPoly":
        """The terms with no x-dependence."""
        return SuperPoly(self.d, {m: c for m, c in self._terms.items() if not any(m.exps)})

    def xi_components(self) -> dict[int, "SuperPoly"]:
        return {k: self.xi_component(k) for k in sorted(self.xi_degrees())}

    def principal_components(self) -> dict[int, "SuperPoly"]:
        """Decompose by the principal grading, which assigns a monomial of
        total degree n the degree n - 2 (quadratic generators sit in
        degree 0)."""
        out: dict[int, dict] = {}
        for m, c in self._terms.items():
            out.setdefault(m.degree - 2, {})[m] = c
        return {k: SuperPoly(self.d, v) for k, v in sorted(out.items())}

    # -- serialization -----------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in self.terms():
            factors = []
            for j, e in enumerate(mono.exps):
                if e == 1:
                    factors.append(f"x{j + 1}")
                elif e > 1:
                    factors.append(f"x{j + 1}^{e}")
            for i in mono.odd:
                factors.append(f"xi{i}")
            body = "*".join(factors)
            mag = abs(coeff)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not parts:
                parts.append(text if coeff > 0 else f"-{text}")
            else:
                parts.append(("+ " if coeff > 0 else "- ") + text)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"SuperPoly(d={self.d}, {self})"

    @classmethod
    def parse(cls, d: int, text: str) -> "SuperPoly":
        """Parse the canonical text form; inverse of str()."""
        text = text.strip()
        if text in ("", "0"):
            return cls(d)
        # split into signed terms
        chunks = re.findall(r"[+-]?[^+-]+", text.replace(" ", ""))
        result = cls(d)
        for chunk in chunks:
            sign = 1
            if chunk.startswith("-"):
                sign = -1
                chunk = chunk[1:]
            elif chunk.startswith("+"):
                chunk = chunk[1:]
            coeff = sign
            exps = [0] * d
            odd: list[int] = []
            for factor in chunk.split("*"):
                if not factor:
                    raise ValueError(f"empty factor in {chunk!r}")
                m = re.fullmatch(r"xi(\d+)", factor)
                if m:
                    odd.append(int(m.group(1)))
                    continue
                m = re.fullmatch(r"x(\d+)(?:\^(\d+))?", factor)
                if m:
                    exps[int(m.group(1)) - 1] += int(m.group(2) or 1)
                    continue
                m = re.fullmatch(r"(\d+)(?:/(\d+))?", factor)
                if m:
                    num, den = m.groups()
                    coeff *= Fraction(int(num), int(den)) if den else int(num)
                    continue
                raise ValueError(f"cannot parse factor {factor!r}")
            if odd != sorted(set(odd)):
                raise ValueError(f"odd factors out of order in {chunk!r}")
            result = result + cls(d, {Monomial(tuple(exps), tuple(odd)): coeff})
        return result


def _check_index(d: int, i: int):
    if not 1 <= i <= d:
        raise IndexError(f"index {i} out of range for dimension {d}")


def d_even_rule(m: Monomial, i: int):
    """d/dx_i on one monomial, as (monomial, coefficient) pairs."""
    e = m.exps[i - 1]
    if e == 0:
        return ()
    return ((Monomial(m.exps[: i - 1] + (e - 1,) + m.exps[i:], m.odd), e),)


def d_odd_rule(m: Monomial, i: int):
    """The left derivative d/dxi_i on one monomial."""
    if i not in m.odd:
        return ()
    pos = m.odd.index(i)
    return ((Monomial(m.exps, m.odd[:pos] + m.odd[pos + 1 :]), -1 if pos & 1 else 1),)


def term_products(d: int, pairs) -> SuperPoly:
    """The sum, over the (left, right) pairs of term lists, of the product
    of every left term with every right term, left factor first.

    A term is ((exps, odd), coeff), as SuperPoly items and partial_terms
    give them; each product is accumulated in place, with no SuperPoly
    built per pair.
    """
    out: dict[Monomial, int | Fraction] = {}
    for left, right in pairs:
        for (exps_a, odd_a), ca in left:
            for (exps_b, odd_b), cb in right:
                merged = _merge_odd(odd_a, odd_b)
                if merged is None:
                    continue
                sign, odd = merged
                mono = Monomial(tuple(map(add, exps_a, exps_b)), odd)
                out[mono] = out.get(mono, 0) + sign * ca * cb
    return SuperPoly(d, out)


def partial_terms(p: SuperPoly, signed: bool):
    """Per index i, the terms of d/dxi_i p and of d/dx_i p, as d_odd_rule
    and d_even_rule give them, in one pass over p; with signed, each
    d/dx_i term carries (-1)^(xi-degree of its monomial)."""
    d_xi = [[] for _ in range(p.d)]
    d_x = [[] for _ in range(p.d)]
    for (exps, odd), c in p._terms.items():
        for pos, i in enumerate(odd):
            d_xi[i - 1].append(((exps, odd[:pos] + odd[pos + 1 :]), -c if pos & 1 else c))
        c_x = -c if signed and len(odd) & 1 else c
        for i, e in enumerate(exps):
            if e:
                d_x[i].append(((exps[:i] + (e - 1,) + exps[i + 1 :], odd), e * c_x))
    return d_xi, d_x


def monomial_basis(d: int, max_degree: int, xi_degrees=None) -> tuple[Monomial, ...]:
    """All monomials of total degree <= max_degree, sorted canonically.

    xi_degrees restricts the xi-degrees that appear (all by default).
    """
    top = min(d, max_degree)
    if xi_degrees is None:
        xi_degrees = range(top + 1)
    return _basis(d, max_degree, tuple(sorted({k for k in xi_degrees if k <= top})))


@lru_cache(maxsize=None)
def _basis(d: int, max_degree: int, xi_degrees: tuple[int, ...]) -> tuple[Monomial, ...]:
    out = []
    for k in xi_degrees:
        for odd in combinations(range(1, d + 1), k):
            for exps in _exponents_up_to(d, max_degree - k):
                out.append(Monomial(exps, odd))
    return tuple(sorted(out, key=lambda m: m.sort_key()))


def _exponents_up_to(d: int, budget: int) -> Iterator[tuple[int, ...]]:
    if d == 0:
        yield ()
        return
    for e in range(budget + 1):
        for rest in _exponents_up_to(d - 1, budget - e):
            yield (e,) + rest


def sample_seed(*parts) -> int:
    """A sample seed derived from the repr of parts, equal in every process.

    Every sampled input is drawn with seed=sample_seed(campaign seed,
    family, [degree, slot or arity,] trial[, position]), family being a
    label unique within the campaign (the check id where there is one).
    A draw's secondary choice, such as its xi-degree, is sample_seed(seed,
    "<choice>") % n of the draw's own seed.  Seeds go to random.Random
    unreduced.  hash() would salt str per process and differ in each run.
    """
    return int.from_bytes(blake2b(repr(parts).encode(), digest_size=8).digest(), "big")


def random_poly(d: int, max_total_degree: int, xi_degree_filter=None, seed: int = 0,
                n_terms: int = 4) -> SuperPoly:
    """Deterministic random element with coefficients in {-3..3} \\ {0}.

    xi_degree_filter restricts the xi-degrees that may appear; it can be
    an int or an iterable of ints.
    """
    if max_total_degree < 0:
        raise ValueError("max_total_degree must be >= 0")
    if isinstance(xi_degree_filter, int):
        xi_degree_filter = {xi_degree_filter}
    basis = monomial_basis(d, max_total_degree, xi_degree_filter)
    rng = random.Random(seed)
    terms: dict[Monomial, int] = {}
    for _ in range(min(n_terms, len(basis))):
        mono = rng.choice(basis)
        terms[mono] = terms.get(mono, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
    return SuperPoly(d, terms)
