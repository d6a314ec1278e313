"""polyvec benchmark: verify-style campaigns, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload campaign-d3 --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Every workload process is a fresh interpreter started with a pinned
PYTHONHASHSEED.  With --trace 0 the run prints the end-to-end metrics;
with --trace 1 it prints the per-layer metrics of a separate traced run.
Times are scaled to a nominal host speed measured next to each timing
(hostspeed.py); the raw times are in the "# " line and the record file
under .perfbench-out/.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit status is 0 when a
result was printed, nonzero when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "workloads.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_LIMIT_S = 170  # every run ends within 180 s, whatever its workers do


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchmarkError("out of time")
    return left


def _env() -> dict:
    return dict(os.environ, PYTHONHASHSEED=SPEC["hash_seed"])


def _worker(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "bench.py"), *args]


def setup_seconds(workload: str, deadline: float) -> list[tuple[float, float]]:
    """(launch-to-ready seconds, host-speed factor) of fresh interpreters,
    after one untimed launch."""
    times = []
    for i in range(SPEC["setup_probes"] + 1):
        speed = speed_factor()
        started = time.perf_counter()
        proc = subprocess.Popen(_worker("setup", workload), cwd=ROOT, env=_env(),
                                stdout=subprocess.PIPE, text=True)
        try:
            if not select.select([proc.stdout], [], [], _remaining(deadline))[0]:
                raise BenchmarkError(f"set-up of {workload} timed out")
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.communicate(timeout=_remaining(deadline))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchmarkError(f"set-up of {workload} failed")
        if i:
            times.append((ready - started, speed))
    return times


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    proc = subprocess.run(_worker("measure", workload, str(seed), str(seconds), str(int(trace))),
                          cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
                          timeout=_remaining(deadline))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"{workload} worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result line, record with configuration and environment) for one workload."""
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "pythonhashseed": SPEC["hash_seed"], "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "config": {k: v for k, v in SPEC["workloads"][workload].items() if k != "checks"}}
    deadline = time.monotonic() + RUN_LIMIT_S
    setup = [] if trace else setup_seconds(workload, deadline)
    raw = measure(workload, seed, seconds, trace, deadline)
    if trace:
        values = raw["layers"]
    else:
        info.update({k: raw[k] for k in ("campaigns", "raw_wall_s", "kernel_s")})
        info["setup_probes"] = len(setup)
        info["raw_setup_s"] = statistics.median(t for t, _ in setup)
        values = {
            "wall_s": raw["wall_s"],
            "samples_per_s": raw["samples_per_s"],
            "setup_s": statistics.median(t * k for t, k in setup),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    info["failed_ratio"] = raw["failed"] / raw["attempted"]
    info["failures"] = raw["failures"]
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    return result, info


def main(argv=None) -> int:
    names = list(SPEC["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"], help="campaign seed")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    out_dir = ROOT / ".perfbench-out"
    for workload in names if args.workload == "all" else [args.workload]:
        try:
            result, info = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except (BenchmarkError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"benchmark could not run: {exc}", file=sys.stderr)
            return 2
        print("# " + json.dumps(info, sort_keys=True))
        for name, m in result["metrics"].items():
            print(f"{workload:16s} {name:44s} {m['value']:.6g} {m['unit']}")
        print(f"{workload:16s} {'failed_ratio':44s} {info['failed_ratio']:.6g} ratio")
        out_dir.mkdir(exist_ok=True)
        record = out_dir / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{workload}." if args.workload == "all" else ""
        combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
