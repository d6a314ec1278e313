import dataclasses
import random
from itertools import combinations, product

import pytest

from polyvec import contraction, linf, pvcalc
from polyvec.complexes import DescendantField, Variant, cohomology_model, collect, phi_map
from polyvec.contraction import (
    HomotopyDatum,
    build_datum,
    contraction_K,
    normalize_homotopy,
    perturb_side_conditions,
)
from polyvec.linf import (
    LInftyStructure,
    _content,
    _subset_partitions,
    _x_constant_content,
    field_structure,
    jacobi_defect,
    koszul_reorder_sign,
    minimal_model_structure,
    schouten_structure,
    transfer,
    tree_sum,
)
from polyvec.superpoly import SuperPoly, random_poly, sample_seed


def xi(d, i):
    return SuperPoly.xi(d, i)


def x(d, i):
    return SuperPoly.x(d, i)


def _div_free(d, deg, xi_degree, seed):
    raw = random_poly(d, deg, xi_degree_filter=xi_degree, seed=seed)
    return raw - contraction_K(pvcalc.divergence(raw))


def symmetry_defects(structure: LInftyStructure, n: int, inputs) -> list:
    """Defects of graded symmetry under adjacent transpositions."""
    inputs = list(inputs)
    parities = [x.parity() for x in inputs]
    bracket = structure.bracket(n)
    base = bracket(*inputs)
    out = []
    for a in range(n - 1):
        swapped = list(inputs)
        swapped[a], swapped[a + 1] = swapped[a + 1], swapped[a]
        sign = -1 if (parities[a] & parities[a + 1] & 1) else 1
        val = bracket(*swapped)
        out.append(base - (val if sign > 0 else -val))
    return out


def test_jacobi_defect_named_triple():
    d = 2
    S = schouten_structure(d, with_differential=False)
    defect = jacobi_defect(S, 3, [xi(d, 1) * xi(d, 2), x(d, 1) * xi(d, 1), x(d, 2)])
    assert defect.is_zero()


def test_jacobi_defect_arity_two_is_derivation_property():
    S = schouten_structure(3)
    for seed in range(10):
        a = random_poly(3, 3, xi_degree_filter=seed % 4, seed=seed)
        b = random_poly(3, 3, xi_degree_filter=(seed + 2) % 4, seed=seed + 5)
        assert jacobi_defect(S, 2, [a, b]).is_zero()


def test_jacobi_defect_seeded_triples():
    S = schouten_structure(3, with_differential=False)
    for seed in range(50):
        triple = [random_poly(3, 3, xi_degree_filter=(seed + i) % 4, seed=seed + 29 * i)
                  for i in range(3)]
        assert jacobi_defect(S, 3, triple).is_zero()


def test_bracket_symmetry():
    S = schouten_structure(3)
    for seed in range(8):
        a = random_poly(3, 3, xi_degree_filter=seed % 4, seed=seed)
        b = random_poly(3, 3, xi_degree_filter=(seed + 1) % 4, seed=seed + 3)
        assert all(v.is_zero() for v in symmetry_defects(S, 2, [a, b]))


def test_jacobi_defect_input_validation():
    S = schouten_structure(2)
    with pytest.raises(ValueError):
        jacobi_defect(S, 3, [x(2, 1)])


# -- the pruned Jacobi sum -----------------------------------------------


def _reference_jacobi_defect(structure, n, inputs):
    """The generalized Jacobi sum written out in full: every split, the zero
    bracket for an absent arity, and outer brackets on zero inner values."""
    parities = [v.parity() for v in inputs]
    acc = structure.zero()
    for i in range(1, n + 1):
        for subset in combinations(range(n), i):
            rest = tuple(j for j in range(n) if j not in subset)
            sign = koszul_reorder_sign(subset + rest, parities)
            inner = structure.bracket(i)(*(inputs[j] for j in subset))
            term = structure.bracket(n - i + 1)(inner, *(inputs[j] for j in rest))
            acc = acc + (term if sign > 0 else -term)
    return acc


@pytest.mark.parametrize("d,variant", [(3, Variant.mbcov()), (4, Variant.mbcov()),
                                       (4, Variant.potential(2)), (5, Variant.potential(2))])
def test_jacobi_defect_matches_full_sum_on_carrier_draws(d, variant):
    S = minimal_model_structure(d, variant)
    carrier = cohomology_model(d, variant)
    slots = carrier.slots
    nonzero_b2 = 0  # the draws reach terms the pruning keeps
    for n in (2, 3, 4, 5):
        for t in range(4):
            seeds = [sample_seed(11, "full_jacobi", d, variant.label, n, t, i) for i in range(n)]
            xs = [carrier.random_element(slots[s % len(slots)], 4, seed=s) for s in seeds]
            assert jacobi_defect(S, n, xs) == _reference_jacobi_defect(S, n, xs)
            nonzero_b2 += sum(not S.brackets[2](a, b).is_zero() for a, b in combinations(xs, 2))
    assert nonzero_b2 > 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_jacobi_defect_matches_full_sum_with_a_differential(n):
    # b1 is present, so the splits i = 1 and i = n run
    d = 3
    S = schouten_structure(d, with_differential=True)
    for seed in range(6):
        polys = [random_poly(d, 3, xi_degree_filter=(seed + i) % 4, seed=40 * seed + i)
                 for i in range(n)]
        assert jacobi_defect(S, n, polys) == _reference_jacobi_defect(S, n, polys)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_jacobi_defect_matches_full_sum_where_the_identity_fails(n):
    # the ternary product breaks the identity at arities 3 and 4, where
    # it meets b1 or b2, so the sums compared there are not all zero;
    # brackets of arity 4 and 5 are absent
    d = 3
    base = schouten_structure(d, with_differential=True)
    S = LInftyStructure(base.zero, {**base.brackets, 3: lambda a, b, c: a * b * c})
    nonzero = 0
    for seed in range(4):
        polys = [random_poly(d, 2, xi_degree_filter=(seed + i) % 3, seed=70 * seed + i, n_terms=3)
                 for i in range(n)]
        got = jacobi_defect(S, n, polys)
        assert got == _reference_jacobi_defect(S, n, polys)
        nonzero += not got.is_zero()
    assert nonzero > 0 or n not in (3, 4)


def test_jacobi_defect_calls_no_bracket_where_no_split_is_present():
    # the (5, 2) model has brackets of arity 2 and 4 only: no split of
    # arity 2 or 4 pairs two of them
    d, variant = 5, Variant.potential(2)
    model = minimal_model_structure(d, variant)
    assert model.arities() == [2, 4]
    calls = []

    def counted(n, fn):
        def call(*args):
            calls.append(n)
            return fn(*args)
        return call

    S = LInftyStructure(model.zero, {n: counted(n, b) for n, b in model.brackets.items()})
    carrier = cohomology_model(d, variant)
    for n in (2, 4):
        xs = [carrier.element({("pv", 1): xi(d, 1 + i) + x(d, 1) * xi(d, 2 + i)}) for i in range(n)]
        assert jacobi_defect(S, n, xs) == carrier.element({})
    assert calls == []
    xs = [carrier.element({("pv", 1): xi(d, 1 + i)}) for i in range(3)]
    jacobi_defect(S, 3, xs)
    assert calls  # arity 3 pairs b2 with b2


def test_jacobi_defect_calls_no_bracket_on_a_zero_input():
    # the combination is multilinear, so a zero input makes it zero before
    # any bracket; the same tuple without the zero calls brackets
    d, variant = 5, Variant.potential(2)
    model = minimal_model_structure(d, variant)
    calls = []

    def counted(n, fn):
        def call(*args):
            calls.append(n)
            return fn(*args)
        return call

    S = LInftyStructure(model.zero, {n: counted(n, b) for n, b in model.brackets.items()})
    carrier = cohomology_model(d, variant)
    xs = [carrier.element({("pv", 1): xi(d, 1 + i) + x(d, 1) * xi(d, 1 + (i + 1) % d)}) for i in range(5)]
    jacobi_defect(S, 5, xs)
    assert set(calls) == {2, 4}
    calls.clear()
    for n in (4, 5):
        for p in range(n):
            args = xs[:p] + [carrier.element({})] + xs[p + 1:n]
            assert jacobi_defect(S, n, args) == carrier.element({})
    assert calls == []


def _central_tuple(d, k):
    """Inputs of the (d-k+1)-ary central bracket of the potential(k) model
    whose contents multiply to the top monomial: the constant 1, xi_1, ...,
    xi_{d-k-1} and xi_{d-k} ... xi_d."""
    carrier = cohomology_model(d, Variant.potential(k))
    tail = SuperPoly.const(d, 1)
    for i in range(d - k, d + 1):
        tail = tail * xi(d, i)
    return ([carrier.element({("pv", 0): SuperPoly.const(d, 1)})]
            + [carrier.element({("pv", 1): xi(d, i)}) for i in range(1, d - k)]
            + [carrier.element({("pv", k + 1): tail})])


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_every_minimal_model_bracket_is_zero_on_a_zero_argument(d):
    # jacobi_defect returns zero on a zero input without calling a bracket,
    # which is sound because every bracket is zero with a zero argument;
    # each arity also meets tuples on which it is nonzero
    for variant in [Variant.mbcov()] + [Variant.potential(k) for k in range(2, d)]:
        S = minimal_model_structure(d, variant)
        carrier = cohomology_model(d, variant)
        slots = carrier.slots
        for n in S.arities():
            tuples = [[carrier.random_element(slots[(t + i) % len(slots)], 2,
                                              seed=sample_seed("zero_argument", d, variant.label, n, t, i))
                       for i in range(n)] for t in range(2 * len(slots))]
            if n > 2:
                tuples.append(_central_tuple(d, variant.k))
            assert any(not S.brackets[n](*xs).is_zero() for xs in tuples), (variant.label, n)
            for xs in tuples:
                for p in range(n):
                    assert S.brackets[n](*xs[:p], S.zero(), *xs[p + 1:]).is_zero(), (variant.label, n, p)


@pytest.mark.parametrize("d,variant", [(3, Variant.mbcov()), (4, Variant.mbcov()),
                                       (4, Variant.potential(2)), (5, Variant.potential(2))])
def test_jacobi_defect_matches_full_sum_on_carrier_draws_with_a_zero_input(d, variant):
    S = minimal_model_structure(d, variant)
    carrier = cohomology_model(d, variant)
    slots = carrier.slots
    for n in (2, 3, 4, 5):
        for p in range(n):
            seeds = [sample_seed(11, "full_jacobi_zero", d, variant.label, n, p, i) for i in range(n)]
            xs = [carrier.random_element(slots[s % len(slots)], 4, seed=s) for s in seeds]
            xs[p] = S.zero()
            assert jacobi_defect(S, n, xs) == _reference_jacobi_defect(S, n, xs) == S.zero()


# -- transfer -----------------------------------------------------------


def test_jacobi_defect_arity_one_is_square_zero():
    S = schouten_structure(3)
    for seed in range(10):
        p = random_poly(3, 4, xi_degree_filter=seed % 4, seed=seed)
        assert jacobi_defect(S, 1, [p]).is_zero()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_transfer_matches_minimal_model(d):
    datum = build_datum(d, Variant.mbcov())
    transferred = transfer(field_structure(d), datum, arity_cap=4)
    model = minimal_model_structure(d, Variant.mbcov())
    carrier = cohomology_model(d, Variant.mbcov())
    for s1 in carrier.slots:
        for s2 in carrier.slots:
            for t in range(3):
                a = carrier.random_element(s1, 4, seed=19 + t + 5 * s1[1])
                b = carrier.random_element(s2, 4, seed=53 + t + 7 * s2[1])
                assert transferred.brackets[2](a, b) == model.brackets[2](a, b)
                assert transferred.brackets[1](a).is_zero()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_transfer_higher_brackets_vanish(d):
    arities = (3, 4, 5, 6) if d == 3 else (3, 4)
    datum = build_datum(d, Variant.mbcov())
    transferred = transfer(field_structure(d), datum, arity_cap=max(arities))
    carrier = cohomology_model(d, Variant.mbcov())
    slots = carrier.slots
    for n in arities:
        for t in range(6):
            xs = [carrier.random_element(slots[(t + i) % len(slots)], 4, seed=100 * n + t + i)
                  for i in range(n)]
            assert transferred.brackets[n](*xs).is_zero()


def _recording_transfer(d, arity_cap):
    """The mbcov transfer with its source brackets and homotopy recorded:
    (transferred structure, carrier, bracket calls, homotopy calls), each
    call an (arguments, value) pair; the records start empty after the
    transfer is built."""
    source = field_structure(d)
    datum = build_datum(d, Variant.mbcov())
    brackets, homotopies = [], []

    def recorded(fn, log):
        def call(*args):
            val = fn(*args)
            log.append((args, val))
            return val
        return call

    wrapped = LInftyStructure(source.zero, {n: b if n == 1 else recorded(b, brackets)
                                            for n, b in source.brackets.items()})
    # the recorded H returns H's values, so the datum keeps its side conditions
    wrapped_datum = dataclasses.replace(datum, homotopy=recorded(datum.homotopy, homotopies))
    transferred = transfer(wrapped, wrapped_datum, arity_cap=arity_cap)
    brackets.clear()
    homotopies.clear()
    return transferred, datum.carrier, brackets, homotopies


def test_tree_sum_never_brackets_or_contracts_a_zero_subtree():
    transferred, carrier, brackets, homotopies = _recording_transfer(3, 7)
    slots = carrier.slots
    for n in (5, 7):
        for t in range(3):
            xs = [carrier.random_element(slots[(t + i) % len(slots)], 3, seed=300 * n + 10 * t + i)
                  for i in range(n)]
            if t == 2:
                xs[1] = DescendantField.zero(3, Variant.mbcov())
            assert transferred.brackets[n](*xs).is_zero()
    # pairs of inputs have nonzero brackets, which H then kills (t^0 values)
    assert any(not val.is_zero() for _, val in brackets)
    assert homotopies and not any(args[0].is_zero() for args, _ in homotopies)
    assert not any(arg.is_zero() for args, _ in brackets for arg in args)


@pytest.mark.parametrize("d, n", [(3, 6), (3, 7), (4, 6)])
def test_transfer_higher_brackets_vanish_at_high_arity(d, n):
    transferred, carrier, brackets, _ = _recording_transfer(d, n)
    slots = carrier.slots
    for t in range(4):
        xs = [carrier.random_element(slots[(t + i) % len(slots)], 3, seed=700 * n + 10 * t + i)
              for i in range(n)]
        assert transferred.brackets[n](*xs).is_zero()
    # the vanishing is not vacuous: binary source brackets of the inputs
    # are nonzero, and only the homotopy and projection remove them
    assert sum(not val.is_zero() for _, val in brackets) > 0


def test_transfer_of_zero_brackets_is_zero():
    d = 2
    datum = build_datum(d, Variant.mbcov())
    from polyvec.linf import LInftyStructure
    from polyvec.complexes import differential

    S = LInftyStructure(
        zero=lambda: DescendantField.zero(d, Variant.mbcov()),
        brackets={1: differential},
    )
    transferred = transfer(S, datum, arity_cap=3)
    carrier = cohomology_model(d, Variant.mbcov())
    a = carrier.random_element(("pv", 1), 3, seed=1)
    b = carrier.random_element(("pv", 0), 3, seed=2)
    assert transferred.brackets[2](a, b).is_zero()


def test_transfer_example_equals_schouten():
    d = 3
    datum = build_datum(d, Variant.mbcov())
    transferred = transfer(field_structure(d), datum, arity_cap=2)
    carrier = cohomology_model(d, Variant.mbcov())
    a = xi(d, 1) * xi(d, 2)
    b = x(d, 1) * x(d, 2) * xi(d, 3)
    assert pvcalc.divergence(b).is_zero()
    va = carrier.element({("pv", 2): a})
    vb = carrier.element({("pv", 1): b})
    out = transferred.brackets[2](va, vb)
    # symmetric convention output; the Lie bracket differs by decalage
    want = pvcalc.schouten(a, b).scale(-1 if (2 - 1) & 1 else 1)
    got = sum((p for p in out.parts.values()), SuperPoly.zero(d))
    assert got == want


def test_transfer_with_normalized_homotopy():
    # a datum with broken side conditions is normalized inside transfer
    d = 3
    datum = perturb_side_conditions(build_datum(d, Variant.mbcov()))
    transferred = transfer(field_structure(d), datum, arity_cap=3)
    model = minimal_model_structure(d, Variant.mbcov())
    carrier = cohomology_model(d, Variant.mbcov())
    for t in range(5):
        a = carrier.random_element(("pv", 1), 3, seed=7 + t)
        b = carrier.random_element(("pv", 2), 3, seed=17 + t)
        assert transferred.brackets[2](a, b) == model.brackets[2](a, b)
    # the perturbation p H iota = lam reaches the ternary bracket through
    # degree-0 inputs; after normalization it vanishes as in the minimal model
    for t in range(3):
        a, c = (carrier.random_element(("pv", 0), 2, seed=t + s) for s in (0, 90))
        b = carrier.random_element(("pv", 1), 2, seed=t + 50)
        assert transferred.brackets[3](a, b, c).is_zero()


def test_transfer_of_built_datum_neither_probes_nor_normalizes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(linf, "normalize_homotopy", refuse)
    monkeypatch.setattr(contraction, "side_conditions", refuse)
    d = 3
    transferred = transfer(field_structure(d), build_datum(d, Variant.mbcov()), arity_cap=5)
    model = minimal_model_structure(d, Variant.mbcov())
    carrier = cohomology_model(d, Variant.mbcov())
    slots = carrier.slots
    for n in range(2, 6):
        xs = [carrier.random_element(slots[i % len(slots)], 3, seed=40 * n + i) for i in range(n)]
        want = model.brackets[2](*xs) if n == 2 else DescendantField.zero(d, Variant.mbcov())
        assert transferred.brackets[n](*xs) == want


def test_transfer_normalizes_a_hand_built_datum_once(monkeypatch):
    normalized = []

    def counting(datum):
        normalized.append(datum)
        return normalize_homotopy(datum)

    monkeypatch.setattr(linf, "normalize_homotopy", counting)
    d = 3
    built = build_datum(d, Variant.mbcov())
    hand_built = HomotopyDatum(built.carrier, built.homotopy)
    transferred = transfer(field_structure(d), hand_built, arity_cap=4)
    carrier = built.carrier
    for n in (2, 3, 4):
        for t in range(2):
            transferred.brackets[n](*(carrier.random_element(("pv", 1), 2, seed=10 * n + t + i)
                                      for i in range(n)))
    assert normalized == [hand_built]
    # a datum that states its side conditions is passed through untouched
    transfer(field_structure(d), normalize_homotopy(hand_built), arity_cap=3)
    transfer(field_structure(d), built, arity_cap=3)
    assert normalized == [hand_built]


def _bell_partitions(n):
    """Every partition of range(n), unfiltered: each block sorted, blocks
    ordered by least element."""
    def helper(items):
        if not items:
            yield []
            return
        head, tail = items[0], items[1:]
        for sub in helper(tail):
            yield [[head]] + sub
            for i in range(len(sub)):
                yield sub[:i] + [[head] + sub[i]] + sub[i + 1:]

    for part in helper(list(range(n))):
        yield [sorted(b) for b in sorted(part, key=min)]


def _reference_tree_sum(structure, homotopy, inputs):
    """The unmemoized, unpruned tree sum: every set partition re-evaluates
    each of its blocks' subtrees from the elements themselves."""
    vertex_arities = [n for n in structure.arities() if n >= 2]

    def theta(xs):
        if len(xs) == 1:
            return xs[0]
        return homotopy(big_b(xs))

    def big_b(xs):
        acc = structure.zero()
        n = len(xs)
        parities = [x.parity() for x in xs]
        for blocks in _bell_partitions(n):
            if len(blocks) < 2 or len(blocks) not in vertex_arities:
                continue
            order = [i for blk in blocks for i in blk]
            sign = koszul_reorder_sign(order, parities)
            args = [theta(tuple(xs[i] for i in blk)) for blk in blocks]
            val = structure.brackets[len(blocks)](*args)
            acc = acc + (val if sign > 0 else -val)
        return acc

    return big_b(tuple(inputs))


def _table_entries(idx, arities):
    """The expected partition table of the index tuple idx: the Bell
    partitions of its positions with an allowed block count, each block
    mapped to idx's elements, with the blocks' concatenation."""
    out = []
    for blocks in _bell_partitions(len(idx)):
        if len(blocks) in arities:
            glob = tuple(tuple(idx[i] for i in blk) for blk in blocks)
            out.append((glob, tuple(i for blk in glob for i in blk)))
    return out


@pytest.mark.parametrize("arities", [{2}, {3}, {2, 3}, {2, 4}, set()])
def test_vertex_partitions_are_the_bell_partitions_of_a_vertex_arity(arities):
    for m in range(1, 8):
        assert list(_subset_partitions(tuple(range(m)), frozenset(arities))) == _table_entries(range(m), arities)
    # a subset that is not an initial segment: blocks come back in its own indices
    idx = (0, 2, 3, 5)
    assert list(_subset_partitions(idx, frozenset(arities))) == _table_entries(idx, arities)
    # Bell(7) = 877 partitions, of which S(7, 2) = 63 have two blocks
    assert len(list(_bell_partitions(7))) == 877
    assert len(_subset_partitions(tuple(range(7)), frozenset({2}))) == 63


def _toy_source(d):
    """Schouten plus the ternary product: vertices of arity 2 and 3, so
    trees of every shape contribute."""
    base = schouten_structure(d, with_differential=False)
    return LInftyStructure(base.zero, {**base.brackets, 3: lambda a, b, c: a * b * c})


def _toy_tree_sums(polys):
    """(memoized, reference) tree sums with H = x1 *."""
    d = polys[0].d
    source = _toy_source(d)
    args = (source, lambda v: x(d, 1) * v, polys)
    return tree_sum(*args), _reference_tree_sum(*args)


def _named_toy_inputs(d):
    # two odd inputs each, so the Koszul sign enters the sum
    return [
        (x(d, 2) * x(d, 3), xi(d, 1), x(d, 1) * xi(d, 2)),
        (x(d, 2), xi(d, 1), x(d, 3) * xi(d, 2), x(d, 1) * xi(d, 3)),
        (x(d, 2), xi(d, 1), x(d, 3) * xi(d, 2), x(d, 1) * xi(d, 3), x(d, 2) * x(d, 3)),
    ]


def test_tree_sum_matches_reference_on_named_nonzero_inputs():
    for polys in _named_toy_inputs(3):
        got, want = _toy_tree_sums(polys)
        assert not got.is_zero()
        assert got == want


@pytest.mark.parametrize("n", [3, 4, 5])
def test_tree_sum_matches_reference_on_seeded_inputs(n):
    nonzero = 0
    for seed in range(5):
        polys = [random_poly(3, 3, xi_degree_filter=(1, 1, 0, 2, 0)[(seed + i) % 5],
                             seed=100 * seed + i, n_terms=3)
                 for i in range(n)]
        got, want = _toy_tree_sums(polys)
        assert got == want
        nonzero += not got.is_zero()
    assert nonzero > 0


def test_tree_sum_evaluates_each_subtree_once():
    d, n = 3, 5
    calls = 0

    def homotopy(v):
        nonlocal calls
        calls += 1
        return x(d, 1) * v

    # five odd inputs on which no subtree is zero, so none is pruned
    inputs = (x(d, 2) * xi(d, 1), x(d, 3) * xi(d, 2), x(d, 1) * xi(d, 3),
              x(d, 1) * x(d, 2) * xi(d, 1), x(d, 2) * x(d, 3) * xi(d, 2))
    got = tree_sum(_toy_source(d), homotopy, inputs)
    # one homotopy per input subset strictly between a singleton and the whole
    assert calls == 2**n - n - 2
    assert got == _reference_tree_sum(_toy_source(d), lambda v: x(d, 1) * v, inputs)


def _parse_model_element(carrier, body):
    parts = {}
    for slot_id, text in body.items():
        name, *index = slot_id.split("/")
        parts[(name, *map(int, index))] = SuperPoly.parse(carrier.d, text)
    return carrier.element(parts)


@pytest.mark.parametrize("arity, check", [(2, "l2_matches_schouten"), (3, "higher_brackets_vanish")])
def test_failing_transfer_record_replays_its_inputs(monkeypatch, arity, check):
    from polyvec import suites

    drawn = []

    def corrupted_transfer(structure, datum, arity_cap):
        transferred = transfer(structure, datum, arity_cap)
        honest = transferred.brackets[arity]

        def bracket(*vs):
            drawn.append(vs)
            return honest(*vs) + vs[0]

        transferred.brackets[arity] = bracket
        return transferred

    monkeypatch.setattr(suites, "transfer", corrupted_transfer)
    cfg = suites.CampaignConfig(d=3, max_degree=3, trials=8, seed=42, arity_cap=3)
    record = {r.check_id: r for r in suites.suite_transfer(cfg).records}[f"transfer.d3.{check}"]
    assert not record.passed
    # the family stops at its first failure, so the last evaluation failed
    carrier = cohomology_model(3, Variant.mbcov())
    replayed = [_parse_model_element(carrier, body) for body in record.details["witness"]["inputs"]]
    assert replayed == list(drawn[-1])
    assert not replayed[0].is_zero()


def test_transfer_rejects_small_cap():
    with pytest.raises(ValueError):
        transfer(field_structure(2), build_datum(2, Variant.mbcov()), arity_cap=1)


# -- closed-form minimal models ------------------------------------------


def test_mbcov_minimal_l2_examples():
    d = 3
    assert pvcalc.schouten(xi(d, 1), x(d, 1) * xi(d, 2)) == xi(d, 2)
    c = SuperPoly.const(d, 4)
    beta = _div_free(d, 3, 2, seed=3)
    assert pvcalc.schouten(c, beta).is_zero()


def test_mbcov_minimal_l2_shifted_antisymmetry():
    d = 3
    for seed in range(10):
        a = _div_free(d, 3, seed % 3, seed)
        b = _div_free(d, 3, (seed + 1) % 3, seed + 40)
        sign = -1 if ((a.xi_degree() - 1) * (b.xi_degree() - 1)) & 1 else 1
        assert pvcalc.schouten(a, b) == pvcalc.schouten(b, a).scale(-sign)


def test_potential_d_bracket_families():
    d = 3
    S = minimal_model_structure(d, Variant.potential(d - 1))
    carrier = cohomology_model(d, Variant.potential(2))
    # wedge family via a potential input: (xi1, potential of xi2 xi3)
    pot = carrier.element({("pot",): contraction_K(xi(d, 2) * xi(d, 3))})
    out = S.brackets[2](carrier.element({("pv", 1): xi(d, 1)}), pot)
    assert out.parts == {carrier.home(("pot",)): xi(d, 1) * xi(d, 2) * xi(d, 3)}
    # wedge-of-divergence family: (x2 xi1, x1 xi1 xi2 xi3)
    a = carrier.element({("pv", 1): x(d, 2) * xi(d, 1)})
    g = carrier.element({("pot",): x(d, 1) * xi(d, 1) * xi(d, 2) * xi(d, 3)})
    out = S.brackets[2](a, g)
    assert out.parts == {carrier.home(("pot",)): x(d, 2) * xi(d, 1) * xi(d, 2) * xi(d, 3)}
    # divergence family: (xi1, x1 xi2) as in the minimal theory
    out = S.brackets[2](carrier.element({("pv", 1): xi(d, 1)}),
                        carrier.element({("pv", 1): x(d, 1) * xi(d, 2)}))
    assert out.parts == {carrier.home(("pv", 1)): xi(d, 2)}


def test_potential_d_wedge_family_at_d4():
    d = 4
    S = minimal_model_structure(d, Variant.potential(d - 1))
    carrier = cohomology_model(d, Variant.potential(3))
    a = carrier.element({("pv", 2): xi(d, 1) * xi(d, 2)})
    b = carrier.element({("pv", 2): xi(d, 3) * xi(d, 4)})
    out = S.brackets[2](a, b)
    assert out.parts == {carrier.home(("pot",)): xi(d, 1) * xi(d, 2) * xi(d, 3) * xi(d, 4)}


@pytest.mark.parametrize("d", [3, 4])
def test_potential_d_super_jacobi(d):
    S = minimal_model_structure(d, Variant.potential(d - 1))
    carrier = cohomology_model(d, Variant.potential(d - 1))
    slots = carrier.slots
    for t in range(25):
        xs = [carrier.random_element(slots[hash((t, i)) % len(slots)], 3, seed=900 + 31 * t + i)
              for i in range(3)]
        assert jacobi_defect(S, 3, xs).is_zero()


def test_potential_k_nary_examples():
    d, k = 4, 2
    S = minimal_model_structure(d, Variant.potential(k))
    carrier = cohomology_model(d, Variant.potential(k))
    a = carrier.element({("pv", 1): xi(d, 1)})
    b = carrier.element({("pv", 1): xi(d, 3)})
    q = carrier.element({("quot",): x(d, 3) * xi(d, 2) * xi(d, 3) * xi(d, 4)})
    assert S.brackets[3](a, b, q).part(carrier.home(("c",))).top_constant() == 1
    c = carrier.element({("quot",): contraction_K(xi(d, 3) * xi(d, 4))})
    out = S.brackets[3](a, carrier.element({("pv", 1): xi(d, 2)}), c)
    assert out.parts == {carrier.home(("c",)): SuperPoly.top(d, 1)}
    killed = S.brackets[3](carrier.element({("pv", 1): x(d, 1) * xi(d, 1)}),
                           carrier.element({("pv", 1): xi(d, 2)}), c)
    assert killed.is_zero()


@pytest.mark.parametrize("d,k,arities", [(4, 2, (2, 3, 4)), (5, 2, (2, 3, 4, 5))])
def test_potential_k_generalized_jacobi(d, k, arities):
    S = minimal_model_structure(d, Variant.potential(k))
    carrier = cohomology_model(d, Variant.potential(k))
    slots = carrier.slots
    for n in arities:
        for t in range(6):
            xs = [carrier.random_element(slots[hash((n, t, i)) % len(slots)], 3,
                                         seed=1200 + 100 * n + 10 * t + i)
                  for i in range(n)]
            assert jacobi_defect(S, n, xs).is_zero()


def test_potential_k_centrality():
    d, k = 4, 2
    S = minimal_model_structure(d, Variant.potential(k))
    carrier = cohomology_model(d, Variant.potential(k))
    center = carrier.element({("c",): SuperPoly.top(d, 3)})
    for slot in carrier.slots:
        v = carrier.random_element(slot, 3, seed=5)
        assert S.brackets[2](center, v).is_zero()
        assert S.brackets[2](v, center).is_zero()
    out = S.brackets[3](*[carrier.random_element(carrier.slots[i % 3], 3, seed=i)
                          for i in range(3)])
    assert set(out.parts) <= {carrier.home(("c",))}  # outputs are purely central


def _product_divergence_model(d, k):
    """b2 and the central bracket of the potential(k) minimal model by the
    product-and-divergence form: Delta of the content product, and the
    constant top coefficient of the full product of the contents."""
    variant = Variant.potential(k)

    def b2(v, w):
        prod = _content(v) * _content(w)
        pairs = [(("f", 0, j), comp) if j != k else (("p", 0), contraction_K(comp))
                 for j, comp in pvcalc.divergence(prod).xi_components().items()]
        if k == d - 1:
            pairs.append((("p", 0), SuperPoly.top(d, prod.top_constant())))
        return DescendantField(d, variant, collect(pairs))

    def l_top(*vs):
        prod = SuperPoly.const(d, 1)
        for v in vs:
            prod = prod * _content(v)
        return DescendantField.single(d, variant, ("p", d - k - 1), SuperPoly.top(d, prod.top_constant()))

    return b2, l_top


@pytest.mark.parametrize("d", [3, 4, 5])
def test_content_is_the_sum_of_the_parts_of_phi(d):
    # degree d + 1 leaves the tower head x-dependence, so its divergence,
    # the only part phi moves, is nonzero
    heads = 0
    for k in range(2, d):
        carrier = cohomology_model(d, Variant.potential(k))
        head = carrier.home(("quot",) if k < d - 1 else ("pot",))
        for t in range(6):
            parts = [carrier.random_element(slot, d + 1, seed=sample_seed("content", d, k, slot, t))
                     for slot in carrier.slots]
            for v in parts + [sum(parts, DescendantField.zero(d, carrier.variant))]:
                assert _content(v) == sum(phi_map(v).parts.values(), SuperPoly.zero(d))
                heads += not pvcalc.divergence(v.part(head)).is_zero()
    assert heads >= 6 * (d - 2)


# named carrier elements per (d, k), as slot -> part texts, chosen so that
# some content products have a constant top coefficient; at (4, 2) they
# hold the tuple (quot x1 xi1 xi2 xi3, pv/1 xi4, pv/1 xi1), whose central
# value is -xi1 xi2 xi3 xi4
NAMED_CARRIER_ELEMENTS = {
    (3, 2): {("pv", 0): ["x1", "x2^2"],
             ("pv", 1): ["xi1", "x1*xi2", "x2*xi1", "x1*xi1 - x2*xi2"],
             ("pot",): ["xi1*xi2*xi3", "x1*xi1*xi2*xi3", "x2*x3*xi1*xi2*xi3"]},
    (4, 3): {("pv", 0): ["x1"],
             ("pv", 1): ["xi1", "xi4", "x2*xi1"],
             ("pv", 2): ["xi1*xi2", "xi3*xi4", "x1*xi2*xi3"],
             ("pot",): ["x1*xi1*xi2*xi3*xi4", "x4*xi1*xi2*xi3*xi4"]},
    (4, 2): {("pv", 0): ["x1"],
             ("pv", 1): ["xi1", "xi2", "xi4", "x2*xi1"],
             ("pv", 3): ["xi2*xi3*xi4", "x1*xi2*xi3*xi4"],
             ("quot",): ["x1*xi1*xi2*xi3", "x3*xi2*xi3*xi4", "x1*x4*xi1*xi2*xi4"],
             ("c",): ["xi1*xi2*xi3*xi4"]},
}


@pytest.mark.parametrize("d, k", sorted(NAMED_CARRIER_ELEMENTS))
def test_minimal_model_equals_product_divergence_form_on_named_elements(d, k):
    carrier = cohomology_model(d, Variant.potential(k))
    elements = [carrier.element({slot: SuperPoly.parse(d, text)})
                for slot, texts in NAMED_CARRIER_ELEMENTS[(d, k)].items() for text in texts]
    assert not any(v.is_zero() for v in elements)
    model = minimal_model_structure(d, Variant.potential(k))
    b2, l_top = _product_divergence_model(d, k)
    pairs = [(model.brackets[2](v, w), b2(v, w)) for v in elements for w in elements]
    assert all(got == want for got, want in pairs)
    assert sum(not got.is_zero() for got, _ in pairs) > 0
    if k == d - 1:
        top = carrier.home(("pot",))
        assert any(got.part(top).top_constant() for got, _ in pairs)
        return
    arity = d - k + 1
    tuples = list(product(elements, repeat=arity))
    central = [(model.brackets[arity](*vs), l_top(*vs)) for vs in tuples]
    assert all(got == want for got, want in central)
    assert sum(not got.is_zero() for got, _ in central) > 0
    named = [carrier.element({("quot",): SuperPoly.parse(d, "x1*xi1*xi2*xi3")}),
             carrier.element({("pv", 1): xi(d, 4)}), carrier.element({("pv", 1): xi(d, 1)})]
    assert model.brackets[arity](*named).parts == {carrier.home(("c",)): SuperPoly.top(d, -1)}


# named carrier elements for the central bracket, as slot -> part texts:
# (4, 2) reuses the table above; at d = 5 the quot heads have x-linear
# terms on and off their own odd indices, so their contents have
# x-constant terms as well as terms that Delta leaves x-dependent
NAMED_CENTRAL_ELEMENTS = {
    (4, 2): NAMED_CARRIER_ELEMENTS[(4, 2)],
    (5, 2): {("pv", 0): ["1"],
             ("pv", 1): ["xi1", "xi4", "x2*xi1"],
             ("pv", 4): ["xi2*xi3*xi4*xi5"],
             ("quot",): ["x1*xi1*xi2*xi3", "x4*xi2*xi4*xi5 + x1*x2*xi1*xi3*xi5"]},
    (5, 3): {("pv", 0): ["1"],
             ("pv", 1): ["xi5", "x1*xi2"],
             ("pv", 2): ["xi1*xi5", "x3*xi4*xi5"],
             ("pv", 4): ["xi1*xi2*xi3*xi4"],
             ("quot",): ["x1*xi1*xi2*xi3*xi4", "x5*xi1*xi2*xi3*xi5 + x1*x2*xi1*xi2*xi3*xi4"]},
}


@pytest.mark.parametrize("d, k", sorted(NAMED_CENTRAL_ELEMENTS))
def test_central_bracket_reads_x_constant_content_on_named_tuples(d, k):
    carrier = cohomology_model(d, Variant.potential(k))
    elements = [carrier.element({slot: SuperPoly.parse(d, text)})
                for slot, texts in NAMED_CENTRAL_ELEMENTS[(d, k)].items() for text in texts]
    assert not any(v.is_zero() for v in elements)
    assert all(_x_constant_content(v) == _content(v).x_constant_part() for v in elements)
    model = minimal_model_structure(d, Variant.potential(k))
    _, l_top = _product_divergence_model(d, k)
    arity = d - k + 1
    central = [(model.brackets[arity](*vs), l_top(*vs)) for vs in product(elements, repeat=arity)]
    assert all(got == want for got, want in central)
    assert sum(not got.is_zero() for got, _ in central) > 0
    if (d, k) == (4, 2):
        named = [carrier.element({("quot",): SuperPoly.parse(d, "x1*xi1*xi2*xi3")}),
                 carrier.element({("pv", 1): xi(d, 4)}), carrier.element({("pv", 1): xi(d, 1)})]
        assert model.brackets[arity](*named).parts == {carrier.home(("c",)): SuperPoly.top(d, -1)}


def test_minimal_model_symmetry():
    d = 3
    S = minimal_model_structure(d, Variant.potential(d - 1))
    carrier = cohomology_model(d, Variant.potential(2))
    for t in range(6):
        a = carrier.random_element(carrier.slots[t % 3], 3, seed=t)
        b = carrier.random_element(carrier.slots[(t + 1) % 3], 3, seed=t + 9)
        assert all(v.is_zero() for v in symmetry_defects(S, 2, [a, b]))


def test_koszul_reorder_sign_matches_pairwise_definition():
    # reference: flip the sign for every inverted pair of odd inputs
    def pairwise(order, parities):
        sign = 1
        for a in range(len(order)):
            for b in range(a + 1, len(order)):
                if order[a] > order[b] and (parities[order[a]] & parities[order[b]] & 1):
                    sign = -sign
        return sign

    rng = random.Random(7)
    for _ in range(500):
        n = rng.randrange(0, 7)
        order = rng.sample(range(n), n)
        parities = [rng.randrange(2) for _ in range(n)]
        assert koszul_reorder_sign(order, parities) == pairwise(order, parities)
