#!/usr/bin/env python3
"""The benchmark's own tests, at toy size.

    python3 perfbench/selftest.py

Runs from the checkout root. Checks, for every workload: an untraced and
a traced run pass every output check and print exactly the metrics
BENCHMARK.json lists, with their units; two runs on one seed print the
same input and output fingerprints; a deliberately corrupted oracle
comparison fails the run (non-zero exit, correct = false, failed > 0);
and a directory holding only BENCHMARK.json and the benchmark exits
non-zero without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

RUN = [sys.executable, "perfbench/run.py"]
BARE_DIR = os.path.join("perfbench", "results", "selftest")


def run(workload, seed=1, trace=0, extra=(), cwd=None):
    args = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--toy"]
    out = subprocess.run(args + list(extra), capture_output=True, text=True, cwd=cwd, timeout=300)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return out.returncode, result, lines


def fingerprint(lines):
    return [l for l in lines if l.startswith("# fingerprint")]


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for w in [x["name"] for x in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, lines = run(w, trace=trace)
            expect(code == 0 and result is not None, "%s trace=%d exits 0 with a result" % (w, trace))
            if result is None:
                continue
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   "%s trace=%d passes its output checks" % (w, trace))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            expect(got == want, "%s trace=%d prints exactly the %s metrics with their units" % (w, trace, key))
            expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in result["metrics"].values()), "%s trace=%d values are finite numbers" % (w, trace))
            if trace == 0:
                expect(all(m["value"] > 0 for m in result["metrics"].values()),
                       "%s end-to-end metrics are non-zero" % w)
                _, _, again = run(w)
                expect(fingerprint(lines) and fingerprint(lines) == fingerprint(again),
                       "%s: one seed gives identical input and output fingerprints" % w)
                _, _, other = run(w, seed=2)
                expect(fingerprint(lines) != fingerprint(other), "%s: another seed gives other inputs" % w)
        code, result, _ = run(w, extra=["--corrupt-oracle"])
        expect(code != 0 and result is not None and not result["correct"] and result["failed"] > 0,
               "%s with a corrupted oracle fails (exit %d)" % (w, code))

    shutil.rmtree(BARE_DIR, ignore_errors=True)
    os.makedirs(BARE_DIR)
    shutil.copy("BENCHMARK.json", BARE_DIR)
    shutil.copytree("perfbench", os.path.join(BARE_DIR, "perfbench"), ignore=shutil.ignore_patterns("results"))
    code, result, lines = run(spec["workloads"][0]["name"], cwd=BARE_DIR)
    expect(code != 0 and not lines, "a directory with only the benchmark exits non-zero without a result")
    shutil.rmtree(BARE_DIR, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
