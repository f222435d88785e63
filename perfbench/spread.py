#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve-churn --seeds 1-10 --seconds 20 [--trace 1]

For every metric: the median over the seeds and the interquartile range
as a share of the median (statistics.quantiles(values, n=4)), next to
the metric's bound from BENCHMARK.json. Runs from the checkout root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default=None)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--verbose", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or str(spec["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", args.trace],
            capture_output=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print("seed %d: exit %d correct=%s failed=%d" % (seed, out.returncode, result["correct"], result["failed"]),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    worst = 0.0
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
            flag = "  OVER A THIRD" if spread > bound / 3 else ""
        print("%-30s median %-14.6g spread %6.3f  bound %s%s" % (name, med, spread, bound, flag))
        if args.verbose:
            print("    " + " ".join("%.5g" % v for v in vs))
    print("worst spread/bound (excluding setup_s): %.3f" % worst)


if __name__ == "__main__":
    main()
