"""In-process half of the benchmark: workloads, correctness gate, timing loops.

run.py starts this file in fresh interpreters with a pinned PYTHONHASHSEED
(polyvec derives some sample seeds from the salted builtin hash()):

    python3 perfbench/bench.py setup WORKLOAD
        import polyvec, build the workload's structures, print "ready"
    python3 perfbench/bench.py measure WORKLOAD SEED SECONDS TRACE
        run campaigns for SECONDS and print one JSON object

Campaigns run through the public polyvec.suites API, one at a time in
one thread.
"""

from __future__ import annotations

import dataclasses
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "workloads.json").read_text())
OUT_DIR = ROOT / ".perfbench-out"


def import_path():
    """Put the checkout's src/ first on sys.path; exit 2 if it holds no polyvec."""
    src = ROOT / "src"
    if not (src / "polyvec" / "__init__.py").is_file():
        print(f"polyvec sources not found under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def campaign_config(workload: str, seed: int):
    from polyvec.complexes import Variant
    from polyvec.suites import CampaignConfig

    w = SPEC["workloads"][workload]
    variant = Variant.potential(w["k"]) if w["variant"] == "potential" else Variant.mbcov()
    return CampaignConfig(d=w["d"], variant=variant, max_degree=w["deg"], trials=w["trials"],
                          seed=seed, arity_cap=w["arity_cap"], checks=tuple(w["suites"]))


def build_structures(cfg):
    """What a campaign needs before its first sample: the set-up being timed."""
    from polyvec.complexes import Variant, cohomology_model
    from polyvec.contraction import build_datum
    from polyvec.linf import field_structure, minimal_model_structure, transfer
    from polyvec.suites import default_checks

    cohomology_model(cfg.d, cfg.variant)
    build_datum(cfg.d, cfg.variant)
    minimal_model_structure(cfg.d, cfg.variant)
    if "transfer" in (cfg.checks or default_checks(cfg)):
        transfer(field_structure(cfg.d), build_datum(cfg.d, Variant.mbcov()),
                 arity_cap=cfg.arity_cap)


def gate(records, expected: list[str]) -> tuple[list[str], int]:
    """(failing check ids, attempted) over the union of expected and reported ids.

    A check fails when it is missing, unexpected, reported twice, or did
    not pass.  Every expected check passes at the recorded baseline.
    """
    seen: dict[str, bool] = {}
    failing = []
    for r in records:
        if r.check_id in seen:
            failing.append(r.check_id)
        seen[r.check_id] = bool(r.passed)
    ids = set(expected) | set(seen)
    failing += sorted(cid for cid in ids if not seen.get(cid, False) or cid not in expected)
    return failing[:len(ids)], len(ids)


def run_campaign_checked(cfg, expected):
    """One campaign: (wall seconds, failing check ids, attempted).

    An exception fails every expected check.
    """
    from polyvec.suites import run_campaign

    started = time.perf_counter()
    try:
        report = run_campaign(cfg)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - started, list(expected), len(expected)
    wall = time.perf_counter() - started
    return (wall, *gate(report.records, expected))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run campaigns for `seconds` after one untimed warm-up campaign.

    Campaign r runs at the r-th seed drawn from random.Random(seed), so one
    run averages over many inputs and the same seed repeats the same
    inputs.  Every campaign is preceded by the host-speed kernel, and its
    times are scaled by that speed factor (see hostspeed.py).  Untraced,
    each campaign counts only its random_poly calls (the polynomials
    drawn).  Traced, each seed runs twice: once timed per suite only, once
    with every span.
    """
    from hostspeed import NOMINAL_S, speed_factor
    from tracer import Tracer

    base = campaign_config(workload, seed)
    expected = SPEC["workloads"][workload]["checks"]
    build_structures(base)
    seeds = random.Random(seed)
    totals = {"failed": 0, "attempted": 0, "failures": []}

    def next_config():
        return dataclasses.replace(base, seed=seeds.randrange(10**9))

    def one(cfg, tracer):
        """(wall seconds, host-speed factor just before) of one campaign."""
        speed = speed_factor()
        tracer.reset()
        with tracer:
            wall, failing, attempted = run_campaign_checked(cfg, expected)
        totals["failed"] += len(failing)
        totals["attempted"] += attempted
        if failing:  # enough to replay: verify with this seed and configuration
            totals["failures"].append({"campaign_seed": cfg.seed, "checks": failing})
        return wall, speed

    sampler = Tracer({"superpoly.random_poly"})
    one(next_config(), sampler)
    deadline = time.perf_counter() + seconds
    result = {}
    if not trace:
        runs = []  # (wall, speed factor, polynomials drawn)
        while len(runs) < 3 or time.perf_counter() < deadline:
            wall, speed = one(next_config(), sampler)
            runs.append((wall, speed, len(sampler.spans)))
        result["wall_s"] = statistics.median(w * k for w, k, _ in runs)
        result["samples_per_s"] = statistics.median(n / (w * k) for w, k, n in runs)
        result["raw_wall_s"] = statistics.median(w for w, _, _ in runs)
        result["kernel_s"] = statistics.median(NOMINAL_S / k for _, k, _ in runs)
        result["campaigns"] = len(runs)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        light, full = Tracer({f"suites.{s}" for s in ALL_SUITES}), Tracer()
        light_runs, full_runs = [], []
        while len(full_runs) < 2 or time.perf_counter() < deadline:
            cfg = next_config()
            light_runs.append((*one(cfg, light), light.summary()))
            full_runs.append((*one(cfg, full), full.summary(), dict(full.counters)))
        OUT_DIR.mkdir(exist_ok=True)
        full.write(OUT_DIR / f"spans-{workload}-seed{seed}.tsv.gz")
        result["layers"] = layer_metrics(light_runs, full_runs)
    result.update(totals)
    return result


ALL_SUITES = ["algebra", "contraction", "homotopy", "transfer", "jacobi", "sho", "cocycles", "sl2"]

COUNTED = [  # span names reported with calls and self_s
    "superpoly.mul", "superpoly.add", "superpoly.d_odd", "superpoly.d_even",
    "superpoly.monomial_basis", "superpoly.random_poly",
    "pvcalc.divergence", "pvcalc.schouten", "pvcalc.symmetric_bracket",
    "contraction.contraction_K", "complexes.differential", "complexes.random_element",
    "complexes.random_field", "linf.transfer.b2", "linf.transfer.b3", "linf.transfer.b4",
    "linf.transfer.b5", "linf.jacobi_defect", "linf.minimal.b2", "linf.minimal.central",
    "sho.ext_bracket_d3", "sl2.extend_f", "linalg.solve_combination",
]
TIMED = [  # span names reported with self_s only
    "pvcalc.vee_omega", "pvcalc.euler_contraction", "contraction.verify_datum",
    "contraction.build_datum", "sho.hamiltonian_vf", "sho.vf_bracket", "sho.cocycle_check",
    "sho.ham_generator", "sl2.act_e", "sl2.act_f",
]
TRANSFER_BRACKETS = ["linf.transfer.b2", "linf.transfer.b3", "linf.transfer.b4", "linf.transfer.b5"]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(light_runs, full_runs) -> dict:
    """Per-layer values from (wall, speed factor, summary[, counters]) runs.

    Counts come from the first traced campaign, times are scaled by each
    campaign's speed factor and reported as medians over the traced
    campaigns (suite times over the per-suite ones).  Shares and the
    tracing overhead compare raw times taken side by side.
    """
    _, _, first, counters = full_runs[0]

    def calls(name):
        return first.get(name, {}).get("calls", 0)

    def total_ns(summary, names, key="self_ns"):
        return sum(summary.get(n, {}).get(key, 0) for n in names)

    def self_s(name):
        return statistics.median(total_ns(s, [name]) * k / 1e9 for _, k, s, _ in full_runs)

    def share(names, key):
        return statistics.median(_ratio(total_ns(s, names, key), w * 1e9) for w, _, s, _ in full_runs)

    out = {}
    for name in COUNTED:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in TIMED:
        out[f"{name}.self_s"] = self_s(name)
    pairs = counters.get("superpoly.mul.term_pairs", 0)
    out["superpoly.mul.term_pairs"] = pairs
    out["superpoly.mul.out_per_pair"] = _ratio(counters.get("superpoly.mul.out_terms", 0), pairs)
    out["superpoly.sampling.share"] = share(["superpoly.random_poly", "superpoly.monomial_basis"],
                                            "self_ns")
    out["complexes.random_element.nonzero_ratio"] = _ratio(
        counters.get("complexes.random_element.nonzero", 0), calls("complexes.random_element"))
    out["linf.minimal.central.nonzero_ratio"] = _ratio(
        counters.get("linf.minimal.central.nonzero", 0), calls("linf.minimal.central"))
    out["linf.transfer.source_b2_calls"] = calls("linf.field.b2")
    out["linf.transfer.incl_share"] = share(TRANSFER_BRACKETS, "incl_ns")

    def suite_ns(summary, *suites):
        return total_ns(summary, [f"suites.{x}" for x in suites], "incl_ns")

    for suite in ALL_SUITES:
        out[f"suites.{suite}.s"] = statistics.median(suite_ns(s, suite) * k / 1e9
                                                     for _, k, s in light_runs)
    out["suites.cocycles_sl2.share"] = statistics.median(
        _ratio(suite_ns(s, "cocycles", "sl2"), w * 1e9) for w, _, s in light_runs)
    out["trace.overhead_ratio"] = statistics.median(
        _ratio(full[0], light[0]) for light, full in zip(light_runs, full_runs))
    return out


def main(argv: list[str]) -> int:
    mode, workload = argv[0], argv[1]
    import_path()
    sys.path.insert(0, str(HERE))
    if mode == "setup":
        import polyvec  # noqa: F401

        build_structures(campaign_config(workload, SPEC["default_seed"]))
        print("ready", flush=True)
        return 0
    seed, seconds, trace = int(argv[2]), float(argv[3]), argv[4] == "1"
    print(json.dumps(measure(workload, seed, seconds, trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
