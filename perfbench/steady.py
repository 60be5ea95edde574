#!/usr/bin/env python3
"""Steadiness runner: the evidence behind the bounds in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--save FILE]
    python3 perfbench/steady.py --compare FIRST.json SECOND.json

Runs every workload of BENCHMARK.json --runs times through
perfbench/run.py (--trace 0, run_seconds long), run i with seed i,
alternating the workload order from one pass to the next.  For each
end-to-end metric it prints the median, the quartiles, the quartile
spread (q3 - q1) / median and the range (max - min) / median.  It flags
a range above a tenth, and a quartile spread above a third of the
metric's bound; the latter makes it exit 1.  --save keeps the raw
results; --compare checks that two saved sets have medians within each
metric's bound of each other, |second - first| / first <= bound, and
exits 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))
FLAG = 0.1


def one_run(workload, seed):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(run.SPEC["run_seconds"]),
         "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: run.py exited {p.returncode}: "
                 f"{p.stderr.strip()}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spreads(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    scale = abs(med) if med else 1.0
    return med, q1, q3, (q3 - q1) / scale, (max(values) - min(values)) / scale


def report(results):
    bounds = {m["name"]: m["bound"] for m in run.SPEC["end_to_end"]}
    steady = True
    for workload, runs in results.items():
        print(f"{workload}: {len(runs)} runs")
        print(f"  {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'range/med':>9}")
        for name in runs[0]:
            med, q1, q3, iqr, rng = spreads([r[name] for r in runs])
            flags = []
            if rng > FLAG:
                flags.append("range > 0.1")
            if iqr > bounds[name] / 3:
                flags.append(f"iqr > bound/3 ({bounds[name]}/3)")
                steady = False
            print(f"  {name:<30} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{iqr:>8.4f} {rng:>9.4f}  {'; '.join(flags)}")
    return steady


def compare(first, second):
    bounds = {m["name"]: m["bound"] for m in run.SPEC["end_to_end"]}
    ok = True
    for workload in first:
        for name, bound in bounds.items():
            a = statistics.median(r[name] for r in first[workload])
            b = statistics.median(r[name] for r in second[workload])
            moved = (b - a) / a
            mark = "ok" if abs(moved) <= bound else "MOVED"
            ok = ok and mark == "ok"
            print(f"  {workload:<8} {name:<16} {a:>12.6g} {b:>12.6g} "
                  f"{moved:>+8.4f} (bound {bound}) {mark}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--save")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args()
    if args.compare:
        with open(args.compare[0]) as f, open(args.compare[1]) as g:
            sys.exit(0 if compare(json.load(f), json.load(g)) else 1)
    results = {w: [] for w in run.WORKLOADS}
    for i in range(args.runs):
        order = run.WORKLOADS if i % 2 == 0 else run.WORKLOADS[::-1]
        for w in order:
            results[w].append(one_run(w, i + 1))
            print(f"  run {i + 1} {w} done", file=sys.stderr)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)
    sys.exit(0 if report(results) else 1)


if __name__ == "__main__":
    main()
