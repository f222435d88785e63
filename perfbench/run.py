#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload attack-hub --seed 1 --seconds 20 --trace 0

Builds perfbench/fgbench.exe from source with dune, then runs it with
the same arguments plus the host's provenance (cores available to this
process, CPU model, git commit when the checkout has one). The last line
of standard output is the run's JSON result; build output goes to
standard error. Exits non-zero, printing no result, when the checkout
cannot be built, and passes on the benchmark's own exit code otherwise
(1 when an output check failed).

`--workload all` runs every workload of BENCHMARK.json in turn, each
printing its report and result, and exits 1 if any of them failed.
"""

import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "fgbench.exe")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    """HEAD of a .git directory in the working directory, without running git."""
    head = os.path.join(".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(".git", ref)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isfile("perfbench/dune")):
        print("perfbench: run from the root of a full checkout (dune-project, lib/, perfbench/)", file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "./perfbench/fgbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 3
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    sys.stdout.flush()
    host = ["--host-nproc", str(len(os.sched_getaffinity(0))), "--host-cpu", cpu_model(), "--commit", git_commit()]
    i = argv.index("--workload") + 1 if "--workload" in argv else len(argv)
    if argv[i:i + 1] == ["all"]:
        with open("BENCHMARK.json") as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
        return max(run_one(argv[:i] + [w] + argv[i + 1:] + host) for w in workloads)
    return run_one(argv + host)


def run_one(args):
    try:
        return subprocess.run([EXE] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
