"""Command-line verification harness.

    verify --d 3 --variant mbcov --deg 4 --trials 200 --seed 42
    verify --d 5 --variant potential --k 2 --check jacobi
    verify --d 3 --variant potential --k 2 --out reports --export-tables

Exit codes: 0 all required checks pass, 1 verification failure,
2 configuration error.  Reports are deterministic for a fixed
configuration and seed; wall-clock timing is segregated into a separate
summary section so byte comparisons can exclude it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import __version__, conventions
from .complexes import Variant, cohomology_model
from .linf import minimal_model_structure
from .sho import structure_constants
from .suites import SUITES, CampaignConfig, default_checks, run_campaign
from .superpoly import sample_seed

TIMING_MARKER = "== timing (excluded from byte comparisons) =="


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run exact verification suites for the polyvector calculus package.",
    )
    parser.add_argument("--d", type=int, default=3, help="complex dimension (default 3)")
    parser.add_argument("--variant", choices=["mbcov", "potential"], default="mbcov")
    parser.add_argument("--k", type=int, default=None, help="potential degree (potential variant)")
    parser.add_argument("--deg", type=int, default=4, help="max polynomial degree of samples")
    parser.add_argument("--trials", type=int, default=100, help="samples per check family")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--arity-cap", type=int, default=3, dest="arity_cap")
    parser.add_argument("--check", action="append", default=None, metavar="SUITE",
                        help=f"suite to run (repeatable); one of {sorted(SUITES)}")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--out", default=None, help="output directory (or $POLYVEC_OUT)")
    parser.add_argument("--export-tables", action="store_true", dest="export_tables")
    parser.add_argument("--version", action="version", version=f"polyvec {__version__}")
    return parser


def config_from_args(args) -> CampaignConfig:
    if args.variant == "potential":
        if args.k is None:
            raise ValueError("--variant potential requires --k")
        variant = Variant.potential(args.k)
    else:
        if args.k is not None:
            raise ValueError("--k applies only to the potential variant")
        variant = Variant.mbcov()
    cfg = CampaignConfig(
        d=args.d,
        variant=variant,
        max_degree=args.deg,
        trials=args.trials,
        seed=args.seed,
        arity_cap=args.arity_cap,
        checks=tuple(args.check or ()),
    )
    cfg.validate()
    return cfg


def export_tables(cfg: CampaignConfig, out_dir: Path) -> list[Path]:
    """Structure-constant and bracket-sample tables, byte-stable."""
    tables = out_dir / "tables"
    tables.mkdir(parents=True, exist_ok=True)
    written = []

    if cfg.d == 3:
        path = tables / "extension_structure_constants.json"
        path.write_text(json.dumps(structure_constants(1), indent=1, sort_keys=True) + "\n")
        written.append(path)

    structure = minimal_model_structure(cfg.d, cfg.variant)
    carrier = cohomology_model(cfg.d, cfg.variant)
    samples = []
    slots = carrier.slots
    for n in [a for a in structure.arities() if a >= 2]:
        for t in range(min(cfg.trials, 20)):
            xs = [carrier.random_element(slots[(t + i) % len(slots)], cfg.max_degree,
                                         seed=sample_seed(cfg.seed, f"tables.arity{n}", t, i)) for i in range(n)]
            out = structure.brackets[n](*xs)
            samples.append({
                "arity": n,
                "inputs": [carrier.to_dict(x) for x in xs],
                "output": carrier.to_dict(out),
            })
    path = tables / f"brackets_{cfg.variant.label.replace('(', '_').replace(')', '')}_d{cfg.d}.json"
    path.write_text(json.dumps(samples, indent=1, sort_keys=True) + "\n")
    written.append(path)
    return written


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        parser.exit(2, f"configuration error: {exc}\n")

    started = time.perf_counter()
    report = run_campaign(cfg)
    elapsed = time.perf_counter() - started

    checks = cfg.checks or default_checks(cfg)
    header = {
        "tool": "polyvec-verify",
        "version": __version__,
        "config": {
            "d": cfg.d, "variant": cfg.variant.label, "deg": cfg.max_degree,
            "trials": cfg.trials, "seed": cfg.seed, "arity_cap": cfg.arity_cap,
            "checks": list(checks),
        },
        "conventions": conventions.snapshot(),
    }

    out_dir = args.out or os.environ.get("POLYVEC_OUT")
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.jsonl").write_text(
            json.dumps(header, sort_keys=True) + "\n" + report.to_jsonl())
        summary = (json.dumps(header["config"], sort_keys=True) + "\n"
                   + report.summary_text() + "\n"
                   + TIMING_MARKER + f"\nwall_seconds: {elapsed:.3f}\n")
        (out / "summary.txt").write_text(summary)
        if args.export_tables:
            export_tables(cfg, out)

    if args.format == "json":
        print(json.dumps(header, sort_keys=True))
        for record in report.records:
            print(json.dumps(record.to_json(), sort_keys=True, default=str))
    else:
        print(f"polyvec verify: d={cfg.d} variant={cfg.variant.label} "
              f"deg={cfg.max_degree} trials={cfg.trials} seed={cfg.seed}")
        print(report.summary_text())
        print(f"({elapsed:.2f}s)")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
