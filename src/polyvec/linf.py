"""L-infinity structures, generalized Jacobi checks, and homotopy transfer.

Everything uses the shifted-symmetric convention: all multibrackets are
graded symmetric for the plain xi-parity of the carrier, every bracket
is odd, and the generalized Jacobi identity reads

    sum over 1 <= i <= n and (i, n-i)-unshuffles sigma of
    eps(sigma) * b_{n-i+1}(b_i(x_{sigma(1..i)}), x_{sigma(i+1..n)}) = 0

with eps the Koszul sign and no further sign factors.  A differential
graded Lie structure enters through decalage; in particular the
symmetric form of the Schouten bracket is Delta(mu nu) on divergence
free inputs.

Homotopy transfer is the standard sum over rooted trees with the
carrier elements themselves on the leaves (a carrier element is a field,
so iota is the identity), the homotopy on internal edges, and the
projection at the root, organized as a recursion over set partitions of
the inputs; within one bracket call each input subset's subtree is
evaluated once.  It requires the side conditions (H^2 = 0, H iota = 0,
p H = 0): transfer reads them from the datum's side_conditions_hold flag,
set by build_datum and normalize_homotopy, and normalizes once every
datum without it; it runs no sampled probe.

Both sums skip every term that multilinearity already makes zero: a
bracket the structure lacks is zero, and so is a bracket with a zero
argument.  jacobi_defect returns structure.zero() on a zero input before
any parity or bracket: every term of the combination holds each input in
its inner or its outer bracket, so the whole combination is zero.
Otherwise it visits only the splits (i, n-i+1) whose two arities are both
brackets of the structure, and drops a zero inner value before its sign,
its remaining inputs and its outer bracket.  tree_sum visits only the
partitions whose block count is a vertex arity of the source, read from
one memoized table per (index subset, vertex arities) that gives each
partition's blocks in global indices with their concatenation, the order
its Koszul sign reads; the table holds indices only, never a value, so
it spares no bracket or homotopy call.  tree_sum drops a partition at
its first zero block (a zero input, a zero sum of trees, or one the
homotopy kills) before its bracket is called; the homotopy is linear, so
a zero sum is never passed to it.  A sum starts at its first term, and
one with no term is structure.zero().
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Any, Callable

from . import pvcalc
from .complexes import (
    DescendantField,
    Variant,
    cohomology_model,
    collect,
    differential,
    grid,
    invalid_summand,
    phi_parts,
    t_power_of,
)
from .contraction import HomotopyDatum, normalize_homotopy
from .pvcalc import contraction_K
from .superpoly import SuperPoly, koszul_sign, term_sum


class LInftyStructure:
    """A differential (arity-1 bracket) plus finitely many multibrackets.

    Brackets not present in the table are zero.  Elements of the carrier
    must support +, unary -, is_zero() and parity(), the Koszul parity of
    a parity-homogeneous element.
    """

    def __init__(self, zero: Callable[[], Any], brackets: dict[int, Callable]):
        self.zero = zero
        self.brackets = dict(brackets)

    def arities(self) -> list[int]:
        return sorted(self.brackets)

    def bracket(self, n: int) -> Callable:
        if n in self.brackets:
            return self.brackets[n]
        return lambda *args: self.zero()


def koszul_reorder_sign(order, parities) -> int:
    """Sign for reordering x_0..x_{n-1} into the given index order: the
    sign of sorting the odd inputs, as only they anticommute."""
    return koszul_sign([i for i in order if parities[i] & 1])


def jacobi_defect(structure: LInftyStructure, n: int, inputs) -> Any:
    """The arity-n generalized Jacobi combination; zero iff the identity
    holds.  A zero input returns structure.zero() before any parity or
    bracket, and splits with an absent bracket and zero inner values add
    no term (see the module docstring)."""
    inputs = tuple(inputs)
    if len(inputs) != n or n < 1:
        raise ValueError("need exactly n >= 1 inputs")
    if any(x.is_zero() for x in inputs):
        return structure.zero()
    parities = [x.parity() for x in inputs]
    brackets = structure.brackets
    acc = None  # no accumulator until the first term
    for i in range(1, n + 1):
        if i not in brackets or n - i + 1 not in brackets:
            continue
        inner_bracket, outer_bracket = brackets[i], brackets[n - i + 1]
        for subset in combinations(range(n), i):
            inner = inner_bracket(*(inputs[j] for j in subset))
            if inner.is_zero():
                continue
            rest = tuple(j for j in range(n) if j not in subset)
            sign = koszul_reorder_sign(subset + rest, parities)
            term = outer_bracket(inner, *(inputs[j] for j in rest))
            term = term if sign > 0 else -term
            acc = term if acc is None else acc + term
    return structure.zero() if acc is None else acc


# -- concrete structures ----------------------------------------------


def schouten_structure(d: int, with_differential: bool = True) -> LInftyStructure:
    """The (Delta, Schouten) structure on all polyvectors, symmetric form."""
    brackets: dict[int, Callable] = {2: pvcalc.symmetric_bracket}
    if with_differential:
        brackets[1] = pvcalc.divergence
    return LInftyStructure(zero=lambda: SuperPoly.zero(d), brackets=brackets)


def field_structure(d: int) -> LInftyStructure:
    """(Q = t Delta, t-linear symmetric Schouten) on the minimal complex.

    An output outside the family of summands raises ValueError, as any
    DescendantField does; this never happens for the inputs reached
    during transfer onto the divergence-free carrier.  Each output part
    is keyed by its own xi-degree, so b2 checks only that the key is a
    summand and builds its result trusted.
    """
    variant = Variant.mbcov()
    degrees = grid(d, variant).xi_degrees

    def b2(psi: DescendantField, chi: DescendantField) -> DescendantField:
        def pairs():
            for key1, p1 in psi.parts.items():
                for key2, p2 in chi.parts.items():
                    val = pvcalc.symmetric_bracket(p1, p2)
                    if not val.is_zero():
                        key = ("f", t_power_of(key1) + t_power_of(key2), val.xi_degree())
                        if key not in degrees:
                            raise invalid_summand(key, d, variant)
                        yield key, val

        return DescendantField._trusted(d, variant, collect(pairs()))

    return LInftyStructure(zero=lambda: DescendantField.zero(d, variant), brackets={1: differential, 2: b2})


# -- minimal models ----------------------------------------------------


def _content(v: DescendantField) -> SuperPoly:
    """Flatten a carrier element to a divergence-free polyvector: the sum
    of the parts of phi(v).  The central line at the tower's tail
    (constant top polyvectors) contributes nothing.  The parts are
    accumulated once."""
    return term_sum(v.d, ((poly._terms.items(), poly._den)
                          for _, poly in phi_parts(v, pvcalc.divergence)))


def _x_constant_content(v: DescendantField) -> SuperPoly:
    """_content(v).x_constant_part() without a full divergence: Delta
    lowers the x-degree by one, so only the x-linear terms of the tower
    head reach the x-constant terms."""
    parts = (poly.x_constant_part() for _, poly in
             phi_parts(v, lambda head: pvcalc.divergence(head.x_linear_part())))
    return term_sum(v.d, ((poly._terms.items(), poly._den) for poly in parts))


def minimal_model_structure(d: int, variant: Variant) -> LInftyStructure:
    """The transferred minimal model, in closed form.

    * minimal theory: b2 = Delta(content product), placed by xi-degree;
      the contents are divergence free, so this is their symmetric
      bracket.
    * k = d-1 potentials: the same, with xi-degree d-1 output lifted into
      the full PV^d slot through K and the top-constant channel; this
      reproduces the wedge and wedge-of-divergence bracket families.
    * k < d-1 potentials: b2 as above with xi-degree k output lifted to a
      quotient class, plus the (d-k+1)-ary bracket into the central slot
      c: the constant top part of the content product.

    Inputs and outputs are carrier elements: fields whose parts sit at
    the slots' homes, read once per structure from CarrierModel.home.
    """
    carrier = cohomology_model(d, variant)
    homes = {slot: carrier.home(slot) for slot in carrier.slots}
    k = variant.k
    # the home of the slot that takes the lifted xi-degree k output
    # (none on mbcov, which lifts nothing)
    lifted = homes.get(("pot",) if k == d - 1 else ("quot",))

    def b2(v: DescendantField, w: DescendantField) -> DescendantField:
        # the contents are divergence free, so Delta of their product is
        # their symmetric bracket, which needs no product
        cv, cw = _content(v), _content(w)
        pairs = [(homes[("pv", j)], comp) if j != k else (lifted, contraction_K(comp))
                 for j, comp in pvcalc.symmetric_bracket(cv, cw).xi_components().items()]
        if k == d - 1:
            pairs.append((lifted, SuperPoly.top(d, pvcalc.top_constant_pairing(cv, cw))))
        return DescendantField(d, variant, collect(pairs))

    brackets: dict[int, Callable] = {2: b2}

    if ("c",) in homes:
        arity = d - k + 1
        central_home = homes[("c",)]

        def l_top(*vs: DescendantField) -> DescendantField:
            if len(vs) != arity:
                raise ValueError(f"bracket has arity {arity}")
            # only x-constant terms reach the constant top monomial
            prod = SuperPoly.const(d, 1)
            for v in vs:
                prod = prod * _x_constant_content(v)
            central = SuperPoly.top(d, prod.top_constant())
            return DescendantField.single(d, variant, central_home, central)

        brackets[arity] = l_top

    return LInftyStructure(zero=lambda: DescendantField.zero(d, variant), brackets=brackets)


# -- homotopy transfer --------------------------------------------------


@lru_cache(maxsize=None)
def _subset_partitions(idx: tuple, arities: frozenset) -> tuple:
    """Partitions of the increasing index tuple idx whose block count is in
    arities, as (blocks, order) pairs: each block a sorted tuple of idx's
    own elements, blocks ordered by least element, and order their
    concatenation, the input order koszul_reorder_sign reads.

    The Bell recursion over idx (partitions of the tail, then the head as
    a new block or joined to one), restricted at each step to the tails
    whose block count can still reach an allowed count; the table lists
    the unfiltered enumeration's partitions of an allowed count in its
    order.  It holds index combinatorics only, never a value.
    """
    m = len(idx)

    def helper(start, counts):
        if start == m:
            if 0 in counts:
                yield []
            return
        head = (idx[start],)
        # the tail holds m - start - 1 indices, so at most that many blocks
        tail_counts = {c - j for c in counts for j in (0, 1) if 0 <= c - j < m - start}
        for sub in helper(start + 1, tail_counts):
            if len(sub) + 1 in counts:
                yield [head] + sub
            if len(sub) in counts:
                for i in range(len(sub)):
                    yield sub[:i] + [head + sub[i]] + sub[i + 1:]

    # the head precedes its tail, so every block is already sorted, and
    # disjoint blocks sort by their least elements
    table = []
    for part in helper(0, arities):
        blocks = tuple(sorted(part))
        table.append((blocks, sum(blocks, ())))
    return tuple(table)


def tree_sum(structure: LInftyStructure, homotopy: Callable, inputs) -> Any:
    """Sum over rooted trees with one leaf per input, each leaf the input
    itself, internal edges decorated by homotopy and vertices by the
    source brackets, with Koszul signs; the transferred bracket before
    the projection.

    A recursion over the set partitions of the input indices whose block
    count is a vertex arity, in which the subtree over each index subset
    is evaluated once per call; a partition is dropped at its first zero
    block, before any bracket or sign (see the module docstring).
    """
    inputs = tuple(inputs)
    parities = [x.parity() for x in inputs]
    arities = frozenset(n for n in structure.arities() if n >= 2)
    # the subtree over each index subset, None where it is zero
    thetas: dict[tuple[int, ...], Any] = {(i,): None if x.is_zero() else x for i, x in enumerate(inputs)}

    def theta(idx):
        if idx not in thetas:
            val = big_b(idx)
            if val is not None:
                val = homotopy(val)
            thetas[idx] = None if val is None or val.is_zero() else val
        return thetas[idx]

    def big_b(idx):
        """The sum over the partitions of idx, None where it is zero."""
        acc = None
        for blocks, order in _subset_partitions(idx, arities):
            args = []
            for blk in blocks:
                arg = theta(blk)
                if arg is None:
                    break
                args.append(arg)
            else:
                val = structure.brackets[len(blocks)](*args)
                if not val.is_zero():
                    sign = koszul_reorder_sign(order, parities)
                    val = val if sign > 0 else -val
                    acc = val if acc is None else acc + val
        return None if acc is None or acc.is_zero() else acc

    total = big_b(tuple(range(len(inputs))))
    return structure.zero() if total is None else total


def transfer(structure: LInftyStructure, datum: HomotopyDatum, arity_cap: int) -> LInftyStructure:
    """Transferred structure on the cohomology carrier up to arity_cap.

    The n-ary bracket is the projection of tree_sum, whose leaves are the
    carrier elements themselves (iota is the identity) and whose internal
    edges carry the homotopy; each input subset's subtree is evaluated
    once per bracket call.  The tree formula needs the side conditions,
    so a datum that does not state them (side_conditions_hold False:
    scaled, perturbed or hand-built data) is normalized once, here; no
    side condition is probed."""
    if arity_cap < 2:
        raise ValueError("arity_cap must be at least 2")
    if not datum.side_conditions_hold:
        datum = normalize_homotopy(datum)
    carrier = datum.carrier

    def make_bracket(n: int) -> Callable:
        if n == 1:
            def b1(v: DescendantField) -> DescendantField:
                return carrier.project(structure.bracket(1)(v))
            return b1

        def bn(*vs: DescendantField) -> DescendantField:
            if len(vs) != n:
                raise ValueError(f"expected {n} inputs")
            return carrier.project(tree_sum(structure, datum.homotopy, vs))

        return bn

    return LInftyStructure(
        zero=lambda: DescendantField.zero(carrier.d, carrier.variant),
        brackets={n: make_bracket(n) for n in range(1, arity_cap + 1)},
    )
