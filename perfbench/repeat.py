#!/usr/bin/env python3
"""Run one benchmark workload N times and summarise every metric.

Usage, from the repository root:

    python3 perfbench/repeat.py --workload detect-bulk --runs 10 [--first-seed 1]
        [--seconds 10] [--trace 0] [--json out.json]

Run i uses seed first-seed + i. For each metric it prints the median,
the first and third quartiles (statistics.quantiles(values, n=4)), the
spread (Q3 - Q1) / median, min and max, plus the attempted and failed
operation counts of every run. These are the figures README.md's
reference tables and BENCHMARK.json's bounds come from.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"run {workload} seed {seed} failed with exit code {out.returncode}")
    return json.loads(lines[-1])


def summarise(runs):
    rows = {}
    for name in sorted(runs[0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        rows[name] = {
            "unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "min": min(vals), "max": max(vals), "n": len(vals),
        }
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="also write the runs and the summary to this file")
    a = ap.parse_args()
    runs = []
    for i in range(a.runs):
        res = run_once(a.workload, a.first_seed + i, a.seconds, a.trace)
        runs.append(res)
        print(f"seed {a.first_seed + i}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)
    rows = summarise(runs)
    print(f"\n{a.workload}: {a.runs} runs, seeds {a.first_seed}..{a.first_seed + a.runs - 1}")
    print(f"{'metric':32} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'min':>12} {'max':>12}")
    for name, r in rows.items():
        print(f"{name:32} {r['unit']:>6} {r['median']:12.5g} {r['q1']:12.5g} {r['q3']:12.5g} "
              f"{r['spread']:7.3f} {r['min']:12.5g} {r['max']:12.5g}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed/attempted shares: {sorted(shares)}")
    if a.json:
        with open(a.json, "w") as f:
            json.dump({"workload": a.workload, "runs": runs, "summary": rows}, f, indent=1)


if __name__ == "__main__":
    main()
