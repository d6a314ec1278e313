"""Tests of the benchmark itself: correctness gate, tracing coverage, determinism.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import os
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402

bench.import_path()

from polyvec import conventions, suites  # noqa: E402
from polyvec.reporting import CheckRecord  # noqa: E402
from tracer import FUNCTIONS, METHODS, Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMALL_TRIALS = {"campaign-d3": 4, "transfer-d3-a5": 2, "potential-d5-k2": 4}


def small_config(workload: str, seed: int = 3):
    return dataclasses.replace(bench.campaign_config(workload, seed), trials=SMALL_TRIALS[workload])


def expected_checks(workload: str) -> list[str]:
    return bench.SPEC["workloads"][workload]["checks"]


# -- correctness gate ----------------------------------------------------


def test_gate_counts_missing_unexpected_and_failing_checks():
    records = [CheckRecord("a", True), CheckRecord("b", False), CheckRecord("x", True)]
    assert bench.gate(records, ["a", "b", "c"]) == (["b", "c", "x"], 4)
    assert bench.gate(records[:1], ["a"]) == ([], 1)


def test_campaign_passes_gate_at_baseline():
    _, failing, attempted = bench.run_campaign_checked(small_config("campaign-d3"),
                                                       expected_checks("campaign-d3"))
    assert (failing, attempted) == ([], len(expected_checks("campaign-d3")))


def test_negative_control_corrupted_convention_fails(monkeypatch):
    monkeypatch.setattr(conventions, "LIFT_SIGN", -conventions.LIFT_SIGN)
    _, failing, attempted = bench.run_campaign_checked(small_config("campaign-d3"),
                                                       expected_checks("campaign-d3"))
    assert "algebra.d3.lifted_bracket_identity" in failing
    assert len(failing) / attempted > 0


def test_crashing_suite_fails_every_check(monkeypatch):
    def boom(cfg):
        raise RuntimeError("injected")

    monkeypatch.setitem(suites.SUITES, "algebra", boom)
    expected = expected_checks("campaign-d3")
    _, failing, attempted = bench.run_campaign_checked(small_config("campaign-d3"), expected)
    assert len(failing) == attempted == len(expected)


# -- tracing coverage ----------------------------------------------------


def _code_key(fn):
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def _profiled_targets(workload: str) -> dict[str, list]:
    """Span name -> code keys of the functions cProfile reports for it."""
    import importlib

    from polyvec.complexes import Variant
    from polyvec.contraction import build_datum
    from polyvec.linf import field_structure, minimal_model_structure, transfer

    targets: dict[str, list] = {}
    for name, modname, attr in FUNCTIONS:
        targets.setdefault(name, []).append(_code_key(getattr(importlib.import_module(modname), attr)))
    for name, modname, cls, attr in METHODS:
        targets.setdefault(name, []).append(
            _code_key(vars(getattr(importlib.import_module(modname), cls))[attr]))
    for suite, fn in suites.SUITES.items():
        targets[f"suites.{suite}"] = [_code_key(fn)]
    cfg = small_config(workload)
    minimal = minimal_model_structure(cfg.d, cfg.variant)
    targets["linf.minimal.b2"] = [_code_key(minimal.brackets[2])]
    central = [n for n in minimal.brackets if n > 2]
    if central:
        targets["linf.minimal.central"] = [_code_key(minimal.brackets[central[0]])]
    source = field_structure(3)
    targets["linf.field.b2"] = [_code_key(source.brackets[2])]
    transferred = transfer(source, build_datum(3, Variant.mbcov()), arity_cap=2)
    targets["linf.transfer"] = [_code_key(transferred.brackets[2])]
    return targets


@pytest.mark.parametrize("workload", sorted(SMALL_TRIALS))
def test_traced_calls_equal_cprofile_calls(workload):
    cfg = small_config(workload)
    targets = _profiled_targets(workload)

    profiler = cProfile.Profile()
    profiler.runcall(suites.run_campaign, cfg)
    stats = pstats.Stats(profiler).stats
    profiled = {name: sum(stats[k][1] for k in keys if k in stats) for name, keys in targets.items()}

    with Tracer() as tracer:
        suites.run_campaign(cfg)
    summary = tracer.summary()
    traced = {name: row["calls"] for name, row in summary.items()}
    traced["linf.transfer"] = sum(traced.pop(n, 0) for n in bench.TRANSFER_BRACKETS)

    assert sum(profiled.values()) > 0
    assert {n: c for n, c in profiled.items() if c} == {n: c for n, c in traced.items() if c}


def test_tracer_uninstall_restores_every_binding():
    from polyvec import contraction, linf, sl2
    from polyvec.superpoly import SuperPoly

    before = (suites.contraction_K, linf.contraction_K, sl2.contraction_K,
              contraction.contraction_K, SuperPoly.__mul__, suites.SUITES["sl2"])
    with Tracer():
        assert suites.contraction_K is linf.contraction_K is sl2.contraction_K
        assert suites.contraction_K is not before[0]
    after = (suites.contraction_K, linf.contraction_K, sl2.contraction_K,
             contraction.contraction_K, SuperPoly.__mul__, suites.SUITES["sl2"])
    assert after == before


# -- traced runs: determinism and metric names ---------------------------


def _traced_layers(workload: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=bench.SPEC["hash_seed"])
    proc = subprocess.run([sys.executable, str(HERE / "bench.py"), "measure", workload, "5", "0", "1"],
                          cwd=HERE.parent, env=env, stdout=subprocess.PIPE, text=True,
                          check=True, timeout=170)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_exactly_across_processes():
    first, second = _traced_layers("potential-d5-k2"), _traced_layers("potential-d5-k2")
    assert first["failed"] == second["failed"] == 0

    def counts(result):
        return {k: v for k, v in result["layers"].items()
                if k.endswith(("calls", "term_pairs", "nonzero_ratio", "out_per_pair"))}

    assert counts(first) == counts(second)
    assert first["layers"]["superpoly.random_poly.calls"] > 0
    assert set(first["layers"]) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_every_per_layer_metric_has_a_prediction():
    layers = [prefix for p in bench.SPEC["predictions"] for prefix in p["layers"]]
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    metrics = {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["per_layer"]:
        assert any(m["name"].startswith(prefix + ".") for prefix in layers), m["name"]
    for p in bench.SPEC["predictions"]:
        for move in p["moves"] + p.get("unchanged", []):
            assert move["workload"] in workloads and move["metric"] in metrics


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "campaign-d3",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
