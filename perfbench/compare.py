#!/usr/bin/env python3
"""Compare a parent and a change checkout on the repo benchmark.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--pairs 10]
        [--workloads batch-miss,point-hot] [--seconds S] [--trace 0|1]
        [--seed0 1000]

PARENT_DIR and CHANGE_DIR are roots of two checkouts (for example two
`git archive` extractions). Both must hold the same benchmark: a change
that claims a gain may not edit it. The script runs at least ten
parent/change pairs per workload, alternating which side runs first, each
pair on a fresh seed, and prints one row per (workload, metric): each
side's median and quartiles, the change's wins, and a verdict:

  PASS            the change wins at least 9 of 10 pairs (ties count for
                  neither) and the medians differ by more than the parent's
                  own quartile spread
  NOT_REPRODUCED  no gain shown, and no worse than the metric's bound
  regressed       the change's median is worse than the parent's by more
                  than the bound (per-layer metrics, which have none: the
                  parent wins 9 of 10 pairs by more than its spread)
  unresolved      the parent's run-to-run spread exceeds the bound and not
                  every change run beats (or loses to) every parent run
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys


def bench_digest(root, paths):
    h = hashlib.sha256()
    files = ["BENCHMARK.json"]
    for p in paths:
        for d, _, names in os.walk(os.path.join(root, p)):
            files += [os.path.relpath(os.path.join(d, n), root) for n in names
                      if "__pycache__" not in d]
    for f in sorted(files):
        h.update(f.encode())
        with open(os.path.join(root, f), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run(root, spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if out.returncode != 0 or not result or not result["correct"]:
        sys.exit("compare: %s %s seed %d failed (exit %d)\n%s" %
                 (root, workload, seed, out.returncode, out.stderr[-2000:]))
    return {k: v["value"] for k, v in result["metrics"].items()
            if isinstance(v["value"], (int, float))}


def quartiles(xs):
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return q[0], statistics.median(xs), q[2]


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = p3 - p1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    apart = abs(cm - pm) > spread
    worse = sign * (pm - cm) / abs(pm) if pm else 0.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    if bound is not None and pm and spread / abs(pm) > bound \
            and not (all_better or all_worse):
        v = "unresolved"
    elif bound is not None and worse > bound:
        v = "regressed"
    elif bound is None and losses >= 0.9 * len(pairs) and apart:
        v = "regressed"
    elif wins >= 0.9 * len(pairs) and apart and sign * (cm - pm) > 0:
        v = "PASS"
    else:
        v = "NOT_REPRODUCED"
    return v, wins


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seed0", type=int, default=1000)
    args = ap.parse_args()
    if args.pairs < 10:
        sys.exit("compare: at least ten pairs are needed")
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if bench_digest(args.parent, spec["paths"]) != bench_digest(args.change, spec["paths"]):
        sys.exit("compare: the two checkouts hold different benchmarks; "
                 "measure both with identical benchmark code")
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    print("%-18s %-44s %-30s %-30s %8s %6s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "delta", "wins", "verdict"))
    for w in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                root = args.parent if side == "parent" else args.change
                runs[side].append(run(root, spec, w, seed, seconds, args.trace))
        for m in metrics:
            name = m["name"]
            par = [r[name] for r in runs["parent"] if name in r]
            chg = [r[name] for r in runs["change"] if name in r]
            if len(par) != args.pairs or len(chg) != args.pairs:
                print("%-18s %-44s unmeasured" % (w, name))
                continue
            v, wins = verdict(par, chg, m["better"], m.get("bound"))
            p1, pm, p3 = quartiles(par)
            c1, cm, c3 = quartiles(chg)
            delta = (cm - pm) / abs(pm) * 100 if pm else 0.0
            print("%-18s %-44s %-30s %-30s %+7.1f%% %3d/%-2d  %s" % (
                w, name, "%.4g [%.4g, %.4g]" % (pm, p1, p3),
                "%.4g [%.4g, %.4g]" % (cm, c1, c3), delta, wins, args.pairs, v))


if __name__ == "__main__":
    main()
