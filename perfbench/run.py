#!/usr/bin/env python3
"""Build and run the rex benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark binary (the rex libraries from ../src plus perfbench/src) into
perfbench/build; later runs reuse it. Build output goes to standard error,
so the last line of standard output is the benchmark's JSON result.
Traced runs write spans and reconciliation reports to perfbench/out.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
WORKLOADS = ("paper_matrix", "hammer_random", "hammer_cycle")
# The binary bounds its own time; this only stops a hung run.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no rex sources next to perfbench/ (src/ is missing)")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        sys.exit("perfbench: --seconds must be >= 1 and --seed >= 0")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(HERE, "out")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
