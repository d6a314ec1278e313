"""Exact supercommutative polynomial arithmetic on C^{d|d}.

Elements live in Q[x_1..x_d] (x) Lambda[xi_1..xi_d] with exact rational
coefficients, stored as integer numerators over one common denominator:
the value of an element is (1/_den) * sum _terms[k] m_k.  In canonical
form every numerator is a nonzero int, _den >= 1, gcd(_den, numerators)
= 1 and zero has _den = 1, so equal values have equal storage.  Every
element is built by SuperPoly._of, the one normalizer, which brings its
terms to that form, so no constructor or kernel argues that its output
is canonical already.  Every kernel runs on ints and only multiplies
denominators (a division, such as a weight of contraction_K, multiplies
_den); Fraction appears only at the edge, in the values that terms(),
coefficient() and str give (an int when integral) and in rational
inputs.  Values are immutable once built and every operation is a pure
function, so concurrent use needs no synchronization.

Key layout.  A term is stored under one int key.  Bit i-1 holds xi_i, so
the low d bits are the odd part as a bitmask and xi_i^2 = 0 is a
collision of masks.  The exponent of x_i sits in an 8-bit field at shift
d + 8(i-1), whose top bit is a guard: an exponent is at most EXP_CAP =
127.  With this layout

* the product of two terms with disjoint odd masks has key ka + kb: two
  fields of at most 127 add to at most 254, so nothing carries into the
  next field, and a sum that reaches 128 sets its guard bit;
* the Koszul sign of merging odd masks a and b (a first) is the parity
  of popcount(a & S[b]), where S[b] has bit i set when an odd number of
  b's bits lie below bit i -- a per-d table of 2^d entries, built on
  first use (key_layout);
* d/dx_i subtracts 1 << (d + 8(i-1)); d/dxi_i clears bit i-1 and takes
  its sign from the popcount of the mask bits below it (bit i-1 of
  S[mask]), as xi_i * does when it sets the bit: Delta, K, de Rham and
  the Euler contraction are modes of one kernel (_index_operator), beside
  which sit K's weight prescale (_euler_homotopy) and the top pairing.

A vector field stores its 2d coefficients as one table: each term's key
plus the tag of its component, t << 9d, in the bits above the last
exponent field (tags 0..d-1 name d/dx_1..d/dx_d, tags d..2d-1
d/dxi_1..d/dxi_d).  A key sum stays below the tag, so products and
partials keep it and the guard check reads the same bits.

The kernels run on (key, numerator) terms and build no intermediate
polynomial: sums (term_sum), products (term_products), the index operator
with K's prescale, the top pairing and the complement transport, the
Schouten bracket (bracket_products), and the vector-field kernels: the
Hamiltonian field (hamiltonian_table), the super-divergence
(field_divergence) and the application of fields to a polynomial or to
another field's table (field_applications, which gives the commutator of
two fields in one call).  Every first partial of a whole polynomial comes
from one walk, _pairing_partials, indexed only at the indices the terms
carry and already in the pairing form: d_even and d_odd read one of its
lists, hamiltonian_table re-keys them all with component tags, and the
pairing kernels pair each left term only with the list at its index.  The
exception is bracket_products' left side, derived inline only at the
indices its right input carries, which measured faster.

The table bounds d by MAX_D = 16; key_layout rejects a larger d.

Every kernel that raises an exponent checks the guard bits of its
output keys and raises OverflowError before anything is stored, so a
wrong key is never kept.  The layout is an internal detail: a key's
meaning depends on d, and int order is not the canonical graded order.
So the public view stays Monomial, an even exponent vector and a
strictly increasing tuple of odd indices: the constructor, terms(),
coefficient(), str/parse and monomial_basis speak Monomial and pack or
unpack at that edge, and reports, goldens and callers never see a key.

Odd derivatives use the LEFT convention throughout: d_odd(i) anticommutes
xi_i to the front of the odd factor and strikes it.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import gcd, lcm
from operator import or_
from typing import Iterable, Iterator, NamedTuple

# hashlib.blake2b is this class; importing hashlib also loads OpenSSL,
# which adds about 3.5 MB of resident memory to every process
from _blake2 import blake2b

EXP_BITS = 8
EXP_CAP = (1 << (EXP_BITS - 1)) - 1
EXP_FIELD = (1 << EXP_BITS) - 1
MAX_D = 16


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


class KeyLayout(NamedTuple):
    """The packed-key layout of dimension d (see the module docstring)."""

    odd_mask: int  # the low d bits, (1 << d) - 1
    shifts: tuple[int, ...]  # shifts[i] = d + 8i, the field of x_{i+1}
    ones: tuple[int, ...]  # ones[i] = 1 << shifts[i], exponent one of x_{i+1}
    guard: int  # the top bit of every exponent field
    sign_table: tuple[int, ...]  # S[b]: bit i set when odd-many bits of b lie below bit i
    tag_shift: int  # 9d, just above the last exponent field: a vector field's component tag


@lru_cache(maxsize=None)
def key_layout(d: int) -> KeyLayout:
    """The layout of dimension d, built on first use; d is at most MAX_D."""
    if d > MAX_D:
        raise ValueError(f"dimension {d} exceeds the maximum {MAX_D}")
    shifts = tuple(d + EXP_BITS * i for i in range(d))
    table = []
    for b in range(1 << d):
        s = below = 0
        for i in range(d):
            if below:
                s |= 1 << i
            below ^= (b >> i) & 1
        table.append(s)
    return KeyLayout((1 << d) - 1, shifts, tuple(1 << s for s in shifts),
                     sum(1 << (s + EXP_BITS - 1) for s in shifts), tuple(table), d + EXP_BITS * d)


def pack(d: int, mono: Monomial) -> int:
    """The key of a monomial; raises on a malformed one and OverflowError
    on an exponent above EXP_CAP."""
    exps, odd = mono
    if len(exps) != d or list(odd) != sorted(set(odd)) or not all(1 <= i <= d for i in odd):
        raise ValueError(f"malformed monomial {mono!r} for dimension {d}")
    key = 0
    for i in odd:
        key |= 1 << (i - 1)
    for s, e in enumerate(exps):
        if e < 0:
            raise ValueError(f"negative exponent in {mono!r}")
        if e > EXP_CAP:
            raise OverflowError(f"exponent {e} exceeds the cap {EXP_CAP}")
        key |= e << (d + EXP_BITS * s)
    return key


def unpack(d: int, key: int) -> Monomial:
    """The monomial of a key."""
    return Monomial(tuple((key >> (d + EXP_BITS * i)) & EXP_FIELD for i in range(d)),
                    tuple(i + 1 for i in range(d) if key >> i & 1))


def x_degree_of(layout: KeyLayout, key: int) -> int:
    """The x-degree of a key: the sum of its exponent fields."""
    return sum((key >> s) & EXP_FIELD for s in layout.shifts)


def _key_degree(d: int, key: int) -> int:
    return (key & ((1 << d) - 1)).bit_count() + x_degree_of(key_layout(d), key)


def guard_checked(layout: KeyLayout, out: dict) -> dict:
    """out, after checking that no exponent of its keys passed the cap."""
    if reduce(or_, out, 0) & layout.guard:
        raise OverflowError(f"an exponent exceeds the cap {EXP_CAP}")
    return out


class SuperPoly:
    """A finite Q-linear combination of monomials on C^{d|d}.

    _terms maps packed keys to int numerators over the common denominator
    _den (see the module docstring); SuperPoly(d, {Monomial: c}) is the
    public constructor and _of(d, {key: numerator}, den) the internal one.
    """

    __slots__ = ("d", "_terms", "_den")

    def __new__(cls, d: int, terms: dict[Monomial, int | Fraction] | None = None):
        return cls._rational(d, {pack(d, m): c for m, c in (terms or {}).items()})

    @classmethod
    def _of(cls, d: int, terms: dict[int, int], den: int = 1) -> "SuperPoly":
        """The element (1/den) sum terms[k] m_k, den >= 1: the one normalizer,
        which drops zero numerators and divides out gcd(den, numerators).
        Every element is built here and nowhere else sets its fields.

        It takes ownership of terms: the zeros are deleted from that dict
        in place and the element may keep it, so every caller passes a
        fresh dict that it does not touch again."""
        if 0 in terms.values():
            for k in [k for k, c in terms.items() if not c]:
                del terms[k]
        if den > 1:
            g = gcd(den, *terms.values())
            if g > 1:
                den //= g
                terms = {k: c // g for k, c in terms.items()}
        p = object.__new__(cls)
        p.d = d
        p._terms = terms
        p._den = den
        return p

    @classmethod
    def _rational(cls, d: int, values: dict) -> "SuperPoly":
        """The element with the given int or Fraction values under packed
        keys, brought over the lcm of their denominators: the one path of
        rational inputs."""
        dens = [c.denominator for c in values.values() if type(c) is not int]
        if not dens:
            return cls._of(d, values)
        den = lcm(*dens)
        return cls._of(d, {k: c.numerator * (den // c.denominator) for k, c in values.items()}, den)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> "SuperPoly":
        return cls._of(d, {})

    @classmethod
    def const(cls, d: int, value) -> "SuperPoly":
        return cls._rational(d, {0: value})

    @classmethod
    def x(cls, d: int, i: int) -> "SuperPoly":
        _check_index(d, i)
        return cls._of(d, {key_layout(d).ones[i - 1]: 1})

    @classmethod
    def xi(cls, d: int, i: int) -> "SuperPoly":
        _check_index(d, i)
        return cls._of(d, {1 << (i - 1): 1})

    @classmethod
    def monomial(cls, d: int, exps: Iterable[int], odd: Iterable[int], coeff=1) -> "SuperPoly":
        return cls(d, {Monomial(tuple(exps), tuple(odd)): coeff})

    # -- basic queries -----------------------------------------------

    def terms(self) -> Iterator[tuple[Monomial, int | Fraction]]:
        d, den = self.d, self._den
        return iter(sorted(((unpack(d, k), value_of(c, den)) for k, c in self._terms.items()),
                           key=lambda t: t[0].sort_key()))

    def key_values(self) -> dict[int, int | Fraction]:
        """The coefficient values under their packed keys, each an int when
        integral and a Fraction otherwise, as terms() gives them."""
        den = self._den
        if den == 1:
            return dict(self._terms)
        return {k: value_of(c, den) for k, c in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        """Whether the constant term is the only term (zero included)."""
        return self._terms.keys() <= {0}

    def coefficient(self, mono: Monomial) -> int | Fraction:
        return value_of(self._terms.get(pack(self.d, mono), 0), self._den)

    def constant_term(self) -> int | Fraction:
        return value_of(self._terms.get(0, 0), self._den)

    @classmethod
    def top(cls, d: int, value) -> "SuperPoly":
        """The constant top polyvector value * xi_1...xi_d."""
        return cls._rational(d, {(1 << d) - 1: value})

    def top_constant(self) -> int | Fraction:
        """Coefficient of xi_1...xi_d with all even exponents zero."""
        return value_of(self._terms.get((1 << self.d) - 1, 0), self._den)

    def without_constant_and_top(self) -> "SuperPoly":
        """self without the two terms that constant_term() and top_constant() read."""
        top = (1 << self.d) - 1
        return SuperPoly._of(self.d, {k: c for k, c in self._terms.items() if k and k != top}, self._den)

    def xi_degrees(self) -> set[int]:
        mask = (1 << self.d) - 1
        return {(k & mask).bit_count() for k in self._terms}

    def total_degree(self) -> int:
        return max((_key_degree(self.d, k) for k in self._terms), default=0)

    def xi_degree(self) -> int:
        """The xi-degree of a xi-homogeneous element (0 for the zero element)."""
        return homogeneous(self.xi_degrees(), "element is not xi-homogeneous")

    def parity(self) -> int:
        """Parity of a parity-homogeneous element (0 for zero)."""
        return homogeneous((k & 1 for k in self.xi_degrees()), "element is not parity-homogeneous")

    # -- algebra -----------------------------------------------------

    def __add__(self, other: "SuperPoly") -> "SuperPoly":
        return self._plus(other, 1)

    def __sub__(self, other: "SuperPoly") -> "SuperPoly":
        return self._plus(other, -1)

    def _plus(self, other: "SuperPoly", sign: int) -> "SuperPoly":
        """self + sign * other, accumulated over the lcm of the denominators."""
        self._check_same(other)
        a, b = self._den, other._den
        den = a if a == b else lcm(a, b)
        fa, fb = den // a, sign * den // b
        terms = dict(self._terms) if fa == 1 else {k: fa * c for k, c in self._terms.items()}
        get = terms.get
        if fb == 1:
            for k, c in other._terms.items():
                terms[k] = get(k, 0) + c
        else:
            for k, c in other._terms.items():
                terms[k] = get(k, 0) + fb * c
        return SuperPoly._of(self.d, terms, den)

    def __neg__(self) -> "SuperPoly":
        return SuperPoly._of(self.d, {k: -c for k, c in self._terms.items()}, self._den)

    def scale(self, value) -> "SuperPoly":
        """value * self for an int or Fraction value."""
        num = value.numerator
        return SuperPoly._of(self.d, {k: num * c for k, c in self._terms.items()}, value.denominator * self._den)

    def __mul__(self, other: "SuperPoly") -> "SuperPoly":
        self._check_same(other)
        return term_products(self.d, self._terms.items(), other._terms.items(), self._den * other._den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SuperPoly)
            and self.d == other.d
            and self._den == other._den
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.d, self._den, frozenset(self._terms.items())))

    def _check_same(self, other: "SuperPoly"):
        if not isinstance(other, SuperPoly):
            raise TypeError(f"expected SuperPoly, got {type(other).__name__}")
        if self.d != other.d:
            raise ValueError(f"dimension mismatch: {self.d} != {other.d}")

    # -- linear operators --------------------------------------------

    def scale_by_xi_degree(self, factor) -> "SuperPoly":
        """Scale the xi-degree-k part by the int factor(k)."""
        mask = (1 << self.d) - 1
        return SuperPoly._of(self.d, {k: factor((k & mask).bit_count()) * c
                                      for k, c in self._terms.items()}, self._den)

    def d_even(self, i: int) -> "SuperPoly":
        """Partial derivative with respect to x_i."""
        return self._partial(i, 0)

    def d_odd(self, i: int) -> "SuperPoly":
        """Left derivative with respect to xi_i."""
        return self._partial(i, 1)

    def _partial(self, i: int, kind: int) -> "SuperPoly":
        """One list of _pairing_partials, of x_i (kind 0) or xi_i (kind 1)."""
        d = self.d
        _check_index(d, i)
        terms = _pairing_partials(d, key_layout(d), self._terms.items())[kind].get(1 << (i - 1), ())
        return SuperPoly._of(d, {k: c for k, _, _, c in terms}, self._den)

    # -- decompositions ----------------------------------------------

    def xi_component(self, k: int) -> "SuperPoly":
        mask = (1 << self.d) - 1
        return SuperPoly._of(self.d, {m: c for m, c in self._terms.items()
                                      if (m & mask).bit_count() == k}, self._den)

    def x_constant_part(self) -> "SuperPoly":
        """The terms with no x-dependence."""
        mask = (1 << self.d) - 1
        return SuperPoly._of(self.d, {m: c for m, c in self._terms.items() if m <= mask}, self._den)

    def xi_components(self) -> dict[int, "SuperPoly"]:
        return {k: self.xi_component(k) for k in sorted(self.xi_degrees())}

    def principal_components(self) -> dict[int, "SuperPoly"]:
        """Decompose by the principal grading, which assigns a monomial of
        total degree n the degree n - 2 (quadratic generators sit in
        degree 0)."""
        out: dict[int, dict] = {}
        for m, c in self._terms.items():
            out.setdefault(_key_degree(self.d, m) - 2, {})[m] = c
        return {k: SuperPoly._of(self.d, v, self._den) for k, v in sorted(out.items())}

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
        text = text.replace(" ", "")
        if not re.fullmatch(r"[+-]?[^+-]+(?:[+-][^+-]+)*", text):  # at most one sign per term
            raise ValueError(f"malformed signs in {text!r}")
        chunks = re.findall(r"[+-]?[^+-]+", text)
        values: dict[int, int | Fraction] = {}
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
                    i = int(m.group(1))
                    if not 1 <= i <= d:
                        raise ValueError(f"no coordinate {factor!r} in dimension {d}")
                    exps[i - 1] += int(m.group(2) or 1)
                    continue
                m = re.fullmatch(r"(\d+)(?:/(\d*[1-9]\d*))?", factor)  # no zero denominator
                if m:
                    num, den = m.groups()
                    coeff *= Fraction(int(num), int(den)) if den else int(num)
                    continue
                raise ValueError(f"cannot parse factor {factor!r}")
            if odd != sorted(set(odd)):
                raise ValueError(f"odd factors out of order in {chunk!r}")
            key = pack(d, Monomial(tuple(exps), tuple(odd)))
            values[key] = values.get(key, 0) + coeff
        return cls._rational(d, values)


def value_of(c: int, den: int) -> int | Fraction:
    """The value of numerator c over den: an int when integral."""
    if den == 1:
        return c
    q, r = divmod(c, den)
    return Fraction(c, den) if r else q


def homogeneous(values, message: str) -> int:
    """The one value of a homogeneous grading: 0 when values is empty, and
    ValueError(message) when it holds two different values."""
    values = set(values)
    if len(values) > 1:
        raise ValueError(message)
    return values.pop() if values else 0


def _check_index(d: int, i: int):
    if not 1 <= i <= d:
        raise IndexError(f"index {i} out of range for dimension {d}")


def term_sum(d: int, term_lists) -> SuperPoly:
    """The sum of the given (terms, den) lists, each (1/den) times its
    (key, numerator) terms, accumulated once over the lcm of the dens."""
    term_lists = list(term_lists)
    den = lcm(*(list_den for _, list_den in term_lists))
    out: dict[int, int] = {}
    get = out.get
    for terms, list_den in term_lists:
        f = den // list_den
        for k, c in terms:
            out[k] = get(k, 0) + f * c
    return SuperPoly._of(d, out, den)


def term_products(d: int, left, right, den: int) -> SuperPoly:
    """1/den times the sum of the products of every left term with every
    right term, left factor first.

    A term is (key, numerator), as SuperPoly items give them; a product of
    disjoint odd masks a and b has key ka + kb and the sign of
    popcount(a & S[b]), and is accumulated in place, with no SuperPoly
    built per pair.
    """
    layout = key_layout(d)
    mask, table = layout.odd_mask, layout.sign_table
    right = [(kb, kb & mask, table[kb & mask], cb) for kb, cb in right]
    out: dict[int, int] = {}
    get = out.get
    for ka, ca in left:
        a = ka & mask
        for kb, b, sb, cb in right:
            if a & b:
                continue
            k = ka + kb
            out[k] = get(k, 0) + (-ca * cb if (a & sb).bit_count() & 1 else ca * cb)
    return SuperPoly._of(d, guard_checked(layout, out), den)


def _pairing_partials(d: int, layout: KeyLayout, terms):
    """The first partials of the (key, numerator) terms, indexed only at the
    indices they carry and already in term_products' (key, odd, S[odd],
    numerator) pairing form: (by_x, by_xi) map the bit of index i to the
    terms of d/dx_i and of the left d/dxi_i.  A key may carry a field
    table's component tag, which its partials keep."""
    mask, table, ones = layout.odd_mask, layout.sign_table, layout.ones
    low = (1 << layout.tag_shift) - 1
    by_x: dict[int, list] = {}
    by_xi: dict[int, list] = {}
    for k, c in terms:
        odd = k & mask
        if odd:
            signs = table[odd]
            rest = odd
            while rest:
                bit = rest & -rest
                rest ^= bit
                b = odd ^ bit
                by_xi.setdefault(bit, []).append((k ^ bit, b, table[b], -c if signs & bit else c))
        xs = (k & low) >> d
        i = 0
        while xs:
            e = xs & EXP_FIELD
            if e:
                by_x.setdefault(1 << i, []).append((k - ones[i], odd, table[odd], e * c))
            xs >>= EXP_BITS
            i += 1
    return by_x, by_xi


def bracket_products(d: int, left, right, den: int) -> SuperPoly:
    """1/den times sum_i d_xi_i(L) d_x_i(R) + (-1)^|L| d_x_i(L) d_xi_i(R)
    of the (key, numerator) terms of L and R (left odd derivatives, |L|
    the xi-degree of each term of L): the Schouten bracket in the
    shifted-symmetric convention, in one pass.

    R's first partials come from _pairing_partials.  Each term of L then
    derives only at the indices R carries, and each derived term is
    paired with R's list there, so an index on one side only costs
    nothing.  No SuperPoly is built on the way.
    """
    layout = key_layout(d)
    mask, table, shifts, ones = layout.odd_mask, layout.sign_table, layout.shifts, layout.ones
    r_x, r_xi = _pairing_partials(d, layout, right)
    x_reach = reduce(or_, r_x, 0)
    xi_lists = [(shifts[bit.bit_length() - 1], ones[bit.bit_length() - 1], terms)
                for bit, terms in r_xi.items()]
    out: dict[int, int] = {}
    get = out.get
    for k, c in left:
        odd = k & mask
        derived = []
        reach = odd & x_reach
        if reach:
            signs = table[odd]
            while reach:
                bit = reach & -reach
                reach ^= bit
                derived.append((k ^ bit, odd ^ bit, -c if signs & bit else c, r_x[bit]))
        if k > mask:
            c_x = -c if odd.bit_count() & 1 else c
            for shift, one, terms in xi_lists:
                e = (k >> shift) & EXP_FIELD
                if e:
                    derived.append((k - one, odd, e * c_x, terms))
        for ka, a, ca, terms in derived:
            for kb, b, sb, cb in terms:
                if a & b:
                    continue
                key = ka + kb
                out[key] = get(key, 0) + (-ca * cb if (a & sb).bit_count() & 1 else ca * cb)
    return SuperPoly._of(d, guard_checked(layout, out), den)


# -- vector fields ---------------------------------------------------------
#
# A field's table (see the module docstring) is held in a SuperPoly of
# dimension d whose keys carry the component tag.  Only SuperPoly's
# operations that read no key (+, -, scale, ==, is_zero and _of) are
# applied to a table; the kernels below read its keys.


def field_table(d: int, coefficients) -> SuperPoly:
    """The table of the field with the 2d given coefficients, those on
    d/dx_1..d/dx_d first, over the lcm of their denominators."""
    coefficients = tuple(coefficients)
    if len(coefficients) != 2 * d or any(c.d != d for c in coefficients):
        raise ValueError(f"a field of dimension {d} takes 2d coefficients of dimension {d}")
    shift = key_layout(d).tag_shift
    den = lcm(*(c._den for c in coefficients))
    terms: dict[int, int] = {}
    for t, c in enumerate(coefficients):
        tag, f = t << shift, den // c._den
        for k, n in c._terms.items():
            terms[k + tag] = f * n
    return SuperPoly._of(d, terms, den)


def field_coefficients(table: SuperPoly) -> list[SuperPoly]:
    """The 2d coefficients of a field's table, those on d/dx_1..d/dx_d first."""
    d = table.d
    shift = key_layout(d).tag_shift
    low = (1 << shift) - 1
    parts: list[dict[int, int]] = [{} for _ in range(2 * d)]
    for k, c in table._terms.items():
        parts[k >> shift][k & low] = c
    return [SuperPoly._of(d, part, table._den) for part in parts]


def field_parities(table: SuperPoly) -> set[int]:
    """The parities of a field table's entries: a term of a coefficient on
    d/dx_i contributes its own parity, one on d/dxi_i the opposite."""
    d = table.d
    layout = key_layout(d)
    mask, shift = layout.odd_mask, layout.tag_shift
    return {((k & mask).bit_count() + (k >> shift >= d)) & 1 for k in table._terms}


def hamiltonian_table(f: SuperPoly) -> SuperPoly:
    """The table of sum_i (-1)^|f| df/dxi_i d/dx_i + df/dx_i d/dxi_i (left
    odd derivatives): f's _pairing_partials re-keyed with the component
    tags, an entry of d/dxi_i, of odd mask b, negated when |b| = |f| - 1 is
    even."""
    d = f.d
    layout = key_layout(d)
    shift = layout.tag_shift
    by_x, by_xi = _pairing_partials(d, layout, f._terms.items())
    out: dict[int, int] = {}
    for bit, terms in by_xi.items():
        tag = (bit.bit_length() - 1) << shift
        for k, b, _, c in terms:
            out[k + tag] = c if b.bit_count() & 1 else -c
    for bit, terms in by_x.items():
        tag = (d + bit.bit_length() - 1) << shift
        for k, _, _, c in terms:
            out[k + tag] = c
    return SuperPoly._of(d, out, f._den)


def field_divergence(table: SuperPoly, xi_sign: int) -> SuperPoly:
    """sum_i d(mu_x[i])/dx_i + xi_sign * d(mu_xi[i])/dxi_i (left) of a field's
    table: each entry derives only at its own index, and the terms are
    accumulated in one pass and normalized once."""
    d = table.d
    layout = key_layout(d)
    mask, signs, shifts, ones, shift = (layout.odd_mask, layout.sign_table, layout.shifts,
                                        layout.ones, layout.tag_shift)
    low = (1 << shift) - 1
    out: dict[int, int] = {}
    get = out.get
    for k, c in table._terms.items():
        t = k >> shift
        k &= low
        if t < d:
            e = (k >> shifts[t]) & EXP_FIELD
            if e:
                key = k - ones[t]
                out[key] = get(key, 0) + e * c
        else:
            bit = 1 << (t - d)
            if k & bit:
                key = k ^ bit
                c *= xi_sign
                out[key] = get(key, 0) + (-c if signs[k & mask] & bit else c)
    return SuperPoly._of(d, out, table._den)


def _field_groups(table: SuperPoly, factor: int) -> tuple[dict[int, list], dict[int, list]]:
    """factor times the terms of a field table's coefficients, in the
    pairing form (key, odd, numerator) and grouped by the bit of their
    index: (those on d/dx_i, those on d/dxi_i)."""
    d = table.d
    layout = key_layout(d)
    mask, shift = layout.odd_mask, layout.tag_shift
    low = (1 << shift) - 1
    on_x: dict[int, list] = {}
    on_xi: dict[int, list] = {}
    for k, c in table._terms.items():
        t = k >> shift
        k &= low
        group = on_x.setdefault(1 << t, []) if t < d else on_xi.setdefault(1 << (t - d), [])
        group.append((k, k & mask, factor * c))
    return on_x, on_xi


def field_applications(jobs) -> SuperPoly:
    """The sum over the jobs of factor * field(right), in one pass.

    A job is (table, right, factor): a field's table, a SuperPoly or
    another field's table, and an int.  field(g) is sum_i mu_x[i] dg/dx_i +
    mu_xi[i] dg/dxi_i, coefficient first; on a table each partial keeps its
    entry's tag, so field(table) is the table of the field's values on the
    other field's coefficients.  Each job's coefficients are grouped once
    (_field_groups) and paired with the first partials of the whole right
    side, read in one _pairing_partials call, each group only with the list
    at its index.  The sum is accumulated over the lcm of the jobs'
    table._den * right._den (one value for vf_bracket's two jobs, a on b
    and b on a), normalized once, and no SuperPoly is built on the way.
    """
    d = jobs[0][0].d
    den = lcm(*(table._den * right._den for table, right, _ in jobs))
    layout = key_layout(d)
    out: dict[int, int] = {}
    get = out.get
    for table, right, factor in jobs:
        factor *= den // (table._den * right._den)
        for groups, partials in zip(_field_groups(table, factor),
                                    _pairing_partials(d, layout, right._terms.items())):
            for bit, terms in partials.items():
                for ka, a, ca in groups.get(bit, ()):
                    for kb, b, sb, cb in terms:
                        if a & b:
                            continue
                        key = ka + kb
                        out[key] = get(key, 0) + (-ca * cb if (a & sb).bit_count() & 1 else ca * cb)
    return SuperPoly._of(d, guard_checked(layout, out), den)


@lru_cache(maxsize=None)
def _index_deltas(d: int, raise_xi: bool, raise_x: bool) -> tuple:
    """Per index i, the bit of xi_i, the shift of x_i and the key delta of a
    mode of _index_operator."""
    layout = key_layout(d)
    return tuple((1 << i, shift, (1 << i if raise_xi else -(1 << i)) + (one if raise_x else -one))
                 for i, (shift, one) in enumerate(zip(layout.shifts, layout.ones)))


def _index_operator(d: int, terms, den: int, *, raise_xi: bool, raise_x: bool) -> SuperPoly:
    """1/den times sum_i A_i B_i of the (key, numerator) terms: A_i is xi_i *
    when raise_xi, else the left d/dxi_i; B_i is x_i * when raise_x, else
    d/dx_i.  Either A_i signs by bit i of S[mask]; the mode fixes which
    mask bits reach an index (flip) and each index's key delta.
    """
    layout = key_layout(d)
    mask, table = layout.odd_mask, layout.sign_table
    flip = mask if raise_xi else 0
    deltas = _index_deltas(d, raise_xi, raise_x)
    out: dict[int, int] = {}
    get = out.get
    if raise_x:
        for k, c in terms:
            odd = k & mask
            reach, signs = odd ^ flip, table[odd]
            for bit, _, delta in deltas:
                if reach & bit:
                    key = k + delta
                    out[key] = get(key, 0) + (-c if signs & bit else c)
        guard_checked(layout, out)
    else:
        for k, c in terms:
            odd = k & mask
            reach = odd ^ flip
            if not reach or k <= mask:
                continue
            signs = table[odd]
            for bit, shift, delta in deltas:
                if reach & bit:
                    e = (k >> shift) & EXP_FIELD
                    if e:
                        key = k + delta
                        out[key] = get(key, 0) + (-e * c if signs & bit else e * c)
    return SuperPoly._of(d, out, den)


def _euler_homotopy(p: SuperPoly, sign) -> SuperPoly:
    """K(x^a xi_S) = s_k / w * sum_{j not in S} x_j x^a xi_j xi_S, of weight
    w = |a| + d - k on xi-degree k, with s_k = sign(k) (-1)^k; the constant
    top monomial, of weight 0, is annihilated.  The weights present are
    brought over their lcm L once: the (xi_j *, x_j *) mode of
    _index_operator runs on numerators prescaled by s_k L / w, over p's
    denominator times L."""
    d = p.d
    layout = key_layout(d)
    mask = layout.odd_mask
    rows = []
    for key, c in p._terms.items():
        k = (key & mask).bit_count()
        weight = x_degree_of(layout, key) + d - k
        if weight:
            rows.append((key, sign(k) * (-c if k & 1 else c), weight))
    den = lcm(*{weight for _, _, weight in rows})
    return _index_operator(d, [(key, (den // weight) * c) for key, c, weight in rows], p._den * den,
                           raise_xi=True, raise_x=True)


def top_constant_pairing(a: SuperPoly, b: SuperPoly) -> int | Fraction:
    """(a ^ b)(0) contracted with Omega: the constant top coefficient of a*b.

    Only x-constant terms reach the constant top monomial: each of a's is
    paired with b's on the complementary odd mask, signed by the sign
    table, and the sum of numerators divided once by both denominators."""
    if a.d != b.d:
        raise ValueError("dimension mismatch")
    layout = key_layout(a.d)
    mask, table = layout.odd_mask, layout.sign_table
    b_terms = b._terms
    total = 0
    for k, c in a._terms.items():
        if k <= mask:
            cb = b_terms.get(mask ^ k)
            if cb:
                total += -c * cb if (k & table[mask ^ k]).bit_count() & 1 else c * cb
    return value_of(total, a._den * b._den)


def _complement_transport(p: SuperPoly, *, inverse: bool) -> SuperPoly:
    """x^a xi_S -> sign x^a xi_(S^c), the sign that of merging S and S^c
    (S^c and S when inverse)."""
    layout = key_layout(p.d)
    mask, table = layout.odd_mask, layout.sign_table
    out: dict[int, int] = {}
    for k, c in p._terms.items():
        odd = k & mask
        first, second = (odd ^ mask, odd) if inverse else (odd, odd ^ mask)
        out[k ^ mask] = -c if (first & table[second]).bit_count() & 1 else c
    return SuperPoly._of(p.d, out, p._den)


def monomial_basis(d: int, max_degree: int, xi_degrees=None) -> tuple[Monomial, ...]:
    """All monomials of total degree <= max_degree, sorted canonically.

    xi_degrees restricts the xi-degrees that appear (all by default).
    """
    return _basis(d, max_degree, _xi_filter(d, max_degree, xi_degrees))


def basis_elements(d: int, max_degree: int) -> Iterator[SuperPoly]:
    """The elements of monomial_basis(d, max_degree), each with coefficient
    1 and in its order, built from the memoized keys without packing.
    Each is a fresh SuperPoly: the elements themselves are not memoized."""
    for key in _basis_keys(d, max_degree, _xi_filter(d, max_degree, None)):
        yield SuperPoly._of(d, {key: 1})


def _xi_filter(d: int, max_degree: int, xi_degrees) -> tuple[int, ...]:
    top = min(d, max_degree)
    if xi_degrees is None:
        xi_degrees = range(top + 1)
    return tuple(sorted({k for k in xi_degrees if k <= top}))


@lru_cache(maxsize=None)
def _basis(d: int, max_degree: int, xi_degrees: tuple[int, ...]) -> tuple[Monomial, ...]:
    out = []
    for k in xi_degrees:
        # one exponent tuple per vector, shared by every odd set: the memo
        # of monomial_basis(5, 5) holds 462 of them for 1,683 monomials
        exponents = list(_exponents_up_to(d, max_degree - k))
        for odd in combinations(range(1, d + 1), k):
            for exps in exponents:
                out.append(Monomial(exps, odd))
    return tuple(sorted(out, key=lambda m: m.sort_key()))


@lru_cache(maxsize=None)
def _basis_keys(d: int, max_degree: int, xi_degrees: tuple[int, ...]) -> tuple[int, ...]:
    """The keys of _basis(d, max_degree, xi_degrees), in its order."""
    return tuple(pack(d, m) for m in _basis(d, max_degree, xi_degrees))


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
    "<choice>") % n of the draw's own seed.  A draw seeds one Mersenne
    Twister with its seed unreduced and reads the stream that
    random.Random(seed) gives (see random_poly).  hash() would salt str
    per process and differ in each run.
    """
    return int.from_bytes(blake2b(repr(parts).encode(), digest_size=8).digest(), "big")


# The C generator under random.Random: an int seeds it as it seeds
# random.Random, with the same getrandbits stream.  One is built per draw
# and none is kept.
_Generator = random.Random.__mro__[1]
_COEFFICIENTS = (-3, -2, -1, 1, 2, 3)
_N_COEFFICIENTS = len(_COEFFICIENTS)
_COEFFICIENT_BITS = _N_COEFFICIENTS.bit_length()


def random_poly(d: int, max_total_degree: int, xi_degree_filter=None, seed: int = 0,
                n_terms: int = 4) -> SuperPoly:
    """Deterministic random element with coefficients in {-3..3} \\ {0}.

    xi_degree_filter restricts the xi-degrees that may appear; it can be
    an int or an iterable of ints.  The draws index monomial_basis, whose
    keys are memoized beside it.

    The kernel's contract: the draw is random.Random(seed) choosing
    min(n_terms, len(basis)) times a basis element, then a coefficient.
    Each choice below n reads getrandbits(n.bit_length()) until the value
    is below n, as choice does, from one _Generator (a random.Random for
    a seed that is not an int).  An empty basis gives zero unseeded.
    """
    if max_total_degree < 0:
        raise ValueError("max_total_degree must be >= 0")
    if isinstance(xi_degree_filter, int):
        xi_degree_filter = {xi_degree_filter}
    basis = _basis_keys(d, max_total_degree, _xi_filter(d, max_total_degree, xi_degree_filter))
    n = len(basis)
    if not n:
        return SuperPoly.zero(d)
    bits = (_Generator if type(seed) is int else random.Random)(seed).getrandbits
    width = n.bit_length()
    terms: dict[int, int] = {}
    for _ in range(min(n_terms, n)):
        i = bits(width)
        while i >= n:
            i = bits(width)
        c = bits(_COEFFICIENT_BITS)
        while c >= _N_COEFFICIENTS:
            c = bits(_COEFFICIENT_BITS)
        key = basis[i]
        terms[key] = terms.get(key, 0) + _COEFFICIENTS[c]
    return SuperPoly._of(d, terms)


def random_coefficient(seed: int) -> int:
    """The coefficient random.Random(seed).choice((-3, -2, -1, 1, 2, 3))
    draws, read from random_poly's generator."""
    bits = (_Generator if type(seed) is int else random.Random)(seed).getrandbits
    c = bits(_COEFFICIENT_BITS)
    while c >= _N_COEFFICIENTS:
        c = bits(_COEFFICIENT_BITS)
    return _COEFFICIENTS[c]
