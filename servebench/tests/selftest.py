#!/usr/bin/env python3
"""Self-test: the benchmark can fail.

Runs venue_fp32_sparse on three seeds as is, and on the same seeds with
every replica predict() slowed by a fixed busy-wait (serve_bench
--slow-predict-us). Each run lasts run_seconds from BENCHMARK.json, so the
capacity search reaches its staircase as in a real run. A regression of
that size must move the median p50_ms up and the median capacity_rps down
by more than the bounds BENCHMARK.json allows them; otherwise the
benchmark could not catch it and this test fails.

Run from the repository root:

    python3 servebench/tests/selftest.py

Exit status 0 when both metrics move past their bounds.
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
WORKLOAD = "venue_fp32_sparse"
SEEDS = ["7", "8", "9"]
SLOW_PREDICT_US = "2000"


def run(seed, seconds, extra):
    cmd = [sys.executable, os.path.join(ROOT, "servebench", "run.py"),
           "--workload", WORKLOAD, "--seed", seed, "--seconds", seconds,
           "--trace", "0"] + extra
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def median_metrics(seconds, extra):
    runs = [run(seed, seconds, extra) for seed in SEEDS]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])
    base = median_metrics(seconds, [])
    slow = median_metrics(seconds, ["--slow-predict-us", SLOW_PREDICT_US])
    checks = [
        ("p50_ms", slow["p50_ms"] > base["p50_ms"] * (1 + bounds["p50_ms"])),
        ("capacity_rps", slow["capacity_rps"]
         < base["capacity_rps"] * (1 - bounds["capacity_rps"])),
    ]
    ok = True
    for name, moved in checks:
        print(f"{name}: median {base[name]:.6g} -> {slow[name]:.6g} "
              f"(bound {bounds[name]}): "
              f"{'moved past the bound' if moved else 'NOT DETECTED'}")
        ok &= moved
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
