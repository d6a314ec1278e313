"""Acceptance suite: every criterion at its stated budget, exact equality.

Run with -s to see one PASS line per criterion.  All checks are exact
(rational arithmetic), so there are no tolerances anywhere.
"""

import time
from itertools import permutations

from polyvec.cli import TIMING_MARKER, main
from polyvec.complexes import Variant
from polyvec.contraction import build_datum, verify_datum
from polyvec.sho import ext_bracket_d3, ext_element
from polyvec.suites import (
    CampaignConfig,
    suite_algebra,
    suite_cocycles,
    suite_contraction,
    suite_jacobi,
    suite_sho,
    suite_transfer,
)
from polyvec.superpoly import SuperPoly


def _announce(n, label, started):
    print(f"\nACCEPTANCE {n} ({label}): PASS [{time.perf_counter() - started:.1f}s]")


def test_criterion_1_algebra_axioms():
    started = time.perf_counter()
    for d in (2, 3, 4):
        cfg = CampaignConfig(d=d, max_degree=5, trials=200, seed=42)
        report = suite_algebra(cfg)
        assert report.ok, report.summary_text()
    _announce(1, "shifted Lie axioms and derivation property", started)


def test_criterion_2_contraction():
    started = time.perf_counter()
    for d in (1, 2, 3, 4):
        cfg = CampaignConfig(d=d, max_degree=6, trials=200, seed=42)
        report = suite_contraction(cfg)
        assert report.ok, report.summary_text()
    _announce(2, "homotopy identity and top constant term", started)


def test_criterion_3_homotopy_data():
    started = time.perf_counter()
    for d in (2, 3, 4):
        cfg = CampaignConfig(d=d, variant=Variant.mbcov(), max_degree=4, trials=200, seed=42)
        report = verify_datum(build_datum(d, Variant.mbcov()), sample_budget=cfg.trials,
                              seed=cfg.seed, max_degree=cfg.max_degree)
        assert report.ok, report.summary_text()
    for d, k in [(3, 2), (4, 3), (4, 2), (5, 2)]:
        report = verify_datum(build_datum(d, Variant.potential(k)), sample_budget=200,
                              seed=42, max_degree=4)
        assert report.ok, report.summary_text()
    _announce(3, "homotopy data on every summand", started)


def test_criterion_4_transfer_oracle_equivalence():
    started = time.perf_counter()
    # d = 3 checks the vanishing of the transferred brackets up to arity 6
    for d, cap in ((2, 4), (3, 6)):
        cfg = CampaignConfig(d=d, max_degree=4, trials=200, seed=42, arity_cap=cap)
        report = suite_transfer(cfg)
        assert report.ok, report.summary_text()
    _announce(4, "tree-sum transfer matches the Schouten minimal model", started)


def test_criterion_5_potential_top_structure():
    started = time.perf_counter()
    for d in (3, 4):
        cfg = CampaignConfig(d=d, variant=Variant.potential(d - 1), max_degree=4,
                             trials=200, seed=42)
        report = suite_jacobi(cfg)
        assert report.ok, report.summary_text()
    cfg = CampaignConfig(d=3, max_degree=4, trials=200, seed=42)
    report = suite_cocycles(cfg)
    assert report.ok, report.summary_text()
    # the two bracket identities, verbatim, every index choice
    xi = lambda i: SuperPoly.xi(3, i)
    x = lambda i: SuperPoly.x(3, i)

    def eps(i, j, k):
        return {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
                (1, 3, 2): -1, (3, 2, 1): -1, (2, 1, 3): -1}.get((i, j, k), 0)

    for i, j, k in permutations((1, 2, 3)):
        out = ext_bracket_d3(ext_element(xi(i)), ext_element(-(xi(j) * xi(k))))
        assert (out.gen.is_zero(), out.c1, out.c2) == (True, eps(i, j, k), 0)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            out = ext_bracket_d3(ext_element(-x(i)), ext_element(xi(j)))
            assert (out.gen.is_zero(), out.c1, out.c2) == (True, 0, 1 if i == j else 0)
    _announce(5, "extension brackets, cocycles, named identities", started)


def test_criterion_6_nary_structures():
    started = time.perf_counter()
    for d, k in [(4, 2), (5, 2)]:
        arities = range(2, d - k + 3)
        cfg = CampaignConfig(d=d, variant=Variant.potential(k), max_degree=3,
                             trials=100 * len(arities), seed=42)
        report = suite_jacobi(cfg)
        assert report.ok, report.summary_text()
    _announce(6, "quadratic plus (d-k+1)-ary brackets with central values", started)


def test_criterion_7_sho_identification():
    started = time.perf_counter()
    for d in (2, 3, 4):
        cfg = CampaignConfig(d=d, max_degree=4, trials=200, seed=42)
        report = suite_sho(cfg)
        assert report.ok, report.summary_text()
    _announce(7, "super-divergence law and membership filtration", started)


def test_criterion_8_sl2_suite():
    started = time.perf_counter()
    cfg = CampaignConfig(d=3, max_degree=4, trials=120, seed=42)
    from polyvec.sl2 import equivariance_check_cocycle, sl2_relations_check

    report = sl2_relations_check(truncation=4, trials=60, seed=42)
    assert report.ok, report.summary_text()
    report = equivariance_check_cocycle(trials=60, seed=42)
    assert report.ok, report.summary_text()
    _announce(8, "sl2 derivations, relations, equivariant cocycle", started)


def test_criterion_9_field_equivariance():
    started = time.perf_counter()
    from polyvec.sl2 import equivariance_compare_theorem

    report = equivariance_compare_theorem(truncation=3, trials=60, seed=42)
    assert report.ok, report.summary_text()
    _announce(9, "embedding equivariance for the field action", started)


def test_criterion_10_determinism(tmp_path):
    started = time.perf_counter()
    args = ["--d", "3", "--variant", "mbcov", "--deg", "3", "--trials", "25", "--seed", "42"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "report.jsonl").read_bytes() == (out2 / "report.jsonl").read_bytes()
    head1 = (out1 / "summary.txt").read_text().split(TIMING_MARKER)[0]
    head2 = (out2 / "summary.txt").read_text().split(TIMING_MARKER)[0]
    assert head1 == head2
    _announce(10, "byte-identical reports, timing segregated", started)
