#!/usr/bin/env python3
"""Parent-vs-change comparison of one workload.

    python3 perfbench/compare.py --parent PARENT_DIR --change CHANGE_DIR \
        --workload zoo_sweep [--pairs 10] [--seed 11] [--trace 0|1]

PARENT_DIR and CHANGE_DIR are two checkouts (e.g. made with `git archive`).
Each side runs its own perfbench/run.py with identical arguments; every pair
alternates which side runs first. Pair i uses --seed i unless --seed fixes
one (use run.HELDOUT_SEED to confirm a claim on the held-out inputs).

Per metric it prints each side's median and quartiles, the share of pairs
the change won (ties count for neither side), and a verdict:
  gain        the change won >= 90% of pairs and the medians differ by more
              than the parent's own interquartile range;
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's spread is wider than the bound and the sides
              overlap;
  same        otherwise.
Per-layer metrics (--trace 1) have no bound; only gain / same is reported.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_side(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: run.py exited {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    share = wins / len(parent)
    if share >= 0.9 and abs(cm - pm) > p3 - p1 and sign * (cm - pm) > 0:
        return share, "gain"
    if bound is None:
        return share, "same"
    if sign * (cm - pm) < -bound * abs(pm):
        return share, "regression"
    every_run_better = (min(change) > max(parent) if sign > 0
                        else max(change) < min(parent))
    if (p3 - p1) > bound * abs(pm) and not every_run_better:
        return share, "unresolved"
    return share, "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m for m in spec[kind]}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed if args.seed is not None else i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(run_side(getattr(args, side), args.workload,
                                       seed, args.seconds, args.trace))
        print(f"pair {i + 1}/{args.pairs} done (seed {seed}, "
              f"{order[0]} first)", file=sys.stderr)

    print(f"{'metric':40} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} "
          f"{'won':>5}  verdict")
    for name, m in metrics.items():
        parent = [r[name]["value"] for r in runs["parent"]]
        change = [r[name]["value"] for r in runs["change"]]
        share, v = verdict(parent, change, m["better"], m.get("bound"))
        fmt = "{:.4g}/{:.4g}/{:.4g}"
        print(f"{name:40} {fmt.format(*quartiles(parent)):>32} "
              f"{fmt.format(*quartiles(change)):>32} {share:5.0%}  {v}")


if __name__ == "__main__":
    main()
