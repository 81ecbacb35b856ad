#!/usr/bin/env python3
"""Stability and compare helper for the rex benchmark.

Stability: run one workload N times, each with another seed, and report
every end-to-end metric's median, quartiles and spread (interquartile
range over median) against the bound in BENCHMARK.json. A set with a run
that is incorrect or has failed operations is not steady:

    python3 perfbench/compare.py stability --workload hammer_random --runs 10

Compare: run alternating pairs of a parent checkout and a change
checkout (the same seed within a pair, the side that runs first
alternating) and apply the gain rule: the change wins at least nine
tenths of the pairs, ties counting for neither, and the medians differ
by more than the parent's interquartile range, and the change fails no
more operations than the parent. Every other metric must
stay within its bound of the parent's median, or is reported unresolved
when the parent's own spread is wider than the bound:

    python3 perfbench/compare.py compare --parent ../parent --change . \\
        --workload hammer_random --pairs 10

A checkout is any directory holding BENCHMARK.json, perfbench/ and the
rex sources; `git archive` of a commit makes one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, spec, workload, seed, seconds, trace=0):
    """One benchmark run in checkout `root`; returns its JSON result."""
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s" % (done.returncode, " ".join(cmd)))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print("seed %d: correct=%s failed=%d" %
              (seed, result["correct"], result["failed"]), file=sys.stderr)
    return result


def all_correct(results):
    """Every run correct, with no failed operation."""
    return all(r["correct"] and not r["failed"] for r in results)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric, base, value):
    """How much worse `value` is than `base`, as a share of `base`."""
    change = (value - base) / base
    return change if metric["better"] == "lower" else -change


def all_better(metric, parent, change):
    """Every change run reads better than every parent run."""
    if metric["better"] == "lower":
        return max(change) < min(parent)
    return min(change) > max(parent)


def stability(args):
    spec = load_spec(ROOT)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    results = []
    for i in range(args.runs):
        result = run_once(ROOT, spec, args.workload, args.seed + i, seconds)
        results.append(result)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("run %d/%d seed %d done" % (i + 1, args.runs, args.seed + i),
              file=sys.stderr)
    print("%-28s %12s %12s %12s %8s %6s" %
          ("metric", "q1", "median", "q3", "spread", "bound"))
    # A run that got an answer wrong measures nothing.
    steady = all_correct(results)
    if not steady:
        print("NOT STEADY: a run was incorrect or had failed operations")
    for metric in spec["end_to_end"]:
        q1, q2, q3 = quartiles(values[metric["name"]])
        spread = (q3 - q1) / q2
        ok = spread <= metric["bound"]
        steady = steady and ok
        print("%-28s %12.6g %12.6g %12.6g %8.4f %6.2f%s" %
              (metric["name"], q1, q2, q3, spread, metric["bound"],
               "" if ok else "  WIDER THAN BOUND"))
    if args.results:
        with open(args.results, "w") as f:
            json.dump(values, f, indent=1)
    return 0 if steady else 1


def compare(args):
    spec = load_spec(args.change)
    seconds = args.seconds or spec["run_seconds"]
    names = [m["name"] for m in spec["end_to_end"]]
    runs = {"parent": [], "change": []}
    failed = {"parent": 0, "change": 0}
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            root = args.parent if side == "parent" else args.change
            result = run_once(root, spec, args.workload, seed, seconds)
            failed[side] += result["failed"] + (0 if result["correct"] else 1)
            runs[side].append({n: result["metrics"][n]["value"] for n in names})
        print("pair %d/%d done" % (pair + 1, args.pairs), file=sys.stderr)

    # A change that fails more operations than its parent gains nothing.
    more_failures = failed["change"] > failed["parent"]
    print("failed operations (incorrect runs count one): parent %d, change %d%s"
          % (failed["parent"], failed["change"],
             "  -- no gain can count" if more_failures else ""))
    print("%-28s %12s %12s %6s %s" %
          ("metric", "parent", "change", "wins", "verdict"))
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        p1, p2, p3 = quartiles(parent)
        c1, c2, c3 = quartiles(change)
        wins = sum(1 for p, c in zip(parent, change)
                   if worse_by(metric, p, c) < 0)
        gain = (not more_failures and wins >= 0.9 * len(parent)
                and abs(c2 - p2) > p3 - p1 and worse_by(metric, p2, c2) < 0)
        if gain:
            verdict = "gain"
        elif (p3 - p1) / p2 > metric["bound"]:
            verdict = ("better in every run" if all_better(metric, parent, change)
                       else "unresolved")
        elif worse_by(metric, p2, c2) <= metric["bound"]:
            verdict = "within bound"
        else:
            verdict = "REGRESSION"
        print("%-28s %12.6g %12.6g %3d/%-2d %s   (parent q1..q3 %.6g..%.6g,"
              " change q1..q3 %.6g..%.6g)" %
              (name, p2, c2, wins, len(parent), verdict, p1, p3, c1, c3))
    if args.results:
        with open(args.results, "w") as f:
            json.dump(runs, f, indent=1)
    return 1 if more_failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)

    stab = sub.add_parser("stability", help="N repeats of one workload")
    stab.add_argument("--workload", required=True)
    stab.add_argument("--runs", type=int, default=10)
    stab.add_argument("--seed", type=int, default=1,
                      help="first seed; run i uses seed + i")
    stab.add_argument("--seconds", type=int,
                      help="run length (default: run_seconds)")
    stab.add_argument("--results", help="write the raw values here")
    stab.set_defaults(func=stability)

    comp = sub.add_parser("compare", help="alternating parent/change pairs")
    comp.add_argument("--parent", required=True, help="parent checkout")
    comp.add_argument("--change", required=True, help="change checkout")
    comp.add_argument("--workload", required=True)
    comp.add_argument("--pairs", type=int, default=10)
    comp.add_argument("--seed", type=int, default=1)
    comp.add_argument("--seconds", type=int)
    comp.add_argument("--results", help="write the raw values here")
    comp.set_defaults(func=compare)

    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
