#!/usr/bin/env python3
"""End-to-end negotiation benchmark: one run of one workload.

    python3 perfbench/run.py --workload hub|durable --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/negbench.exe with
dune into .bench_build/, then runs rounds of the workload for about S
seconds (at least MIN_ROUNDS of them).  A round is one fresh
process: generate the workload from the seed, build the world, drive
every negotiation through the reactor in a closed loop and check each
outcome against the generator's oracle.

--trace 0 prints the end-to-end metrics over the whole run: the timed
phases, latency samples and world builds of all its rounds pooled.
--trace 1 alternates untraced and traced rounds and prints the
per-layer metrics, medians over the traced rounds; it fails (exit 4)
when the layer times do not reconcile.  The spans of the last traced
round are written to .perfbench/spans-<workload>-<seed>.jsonl.

Every metric is printed by name with its unit; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Exit codes: 0 done, 1 build or round error,
2 usage or not a checkout, 3 safety error (a wrong grant),
4 reconciliation failure.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".perfbench")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "negbench.exe")

MIN_ROUNDS = 3
# A run must end within 180 s; stop starting rounds well before.
RUN_LIMIT_S = 150

# Metric names, units and directions live in BENCHMARK.json alone.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Layers only the durable workload runs; the text table leaves them out
# elsewhere.
DURABLE_ONLY = ("guard.", "persist.")

# Exact values: every round of one seed must reproduce them.  Untraced
# and traced rounds build the world by different paths (see loop.ml), so
# the world digest also checks that both paths reach the same world.
EXACT = ["order_digest", "world_digest", "negotiations", "counts"]


class Abort(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def is_checkout():
    return all(
        os.path.exists(os.path.join(ROOT, p))
        for p in ("dune-project", "lib", os.path.join("perfbench", "dune"))
    )


def build():
    """Build the benchmark program from source; the dune cache stays off
    so that nothing is written outside the checkout."""
    if not is_checkout():
        raise Abort(2, "not a checkout of the repository: no dune-project, lib/ "
                       "or perfbench/dune under " + ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/negbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if p.returncode != 0 or not os.path.exists(EXE):
        raise Abort(1, "building perfbench/negbench.exe failed")


def round_(workload, seed, traced=False, tiny=False, flip=False,
           spans_out=None, timeout=RUN_LIMIT_S):
    """Run one round in a fresh process; return its JSON record."""
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--scratch", WORK_DIR]
    if traced:
        cmd.append("--traced")
    if tiny:
        cmd.append("--tiny")
    if flip:
        cmd.append("--flip-expectation")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        raise Abort(1, f"{workload} seed {seed}: round timed out")
    if p.returncode == 3:
        raise Abort(3, f"{workload} seed {seed}: {p.stderr.strip()}")
    if p.returncode != 0:
        raise Abort(1, f"{workload} seed {seed}: round exited with "
                       f"{p.returncode}: {p.stderr.strip()}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def median(xs):
    return statistics.median(xs)


def percentile(sorted_xs, q):
    """Nearest-rank percentile of a sorted list."""
    n = len(sorted_xs)
    return sorted_xs[max(0, min(n - 1, math.ceil(q * n) - 1))]


def exact_mismatch(rounds):
    """The exact-count fields on which the rounds disagree."""
    first = rounds[0]
    return [k for k in EXACT if any(r[k] != first[k] for r in rounds[1:])]


def end_to_end(rounds):
    """Pooled over the run: the machine's speed drifts in phases that
    last from tens of seconds to minutes, and a pooled figure moves
    smoothly with the share of the run a slow phase takes, where a median
    of rounds jumps between phases."""
    n = rounds[0]["negotiations"]
    counts = rounds[0]["counts"]
    latencies = sorted(x for r in rounds for x in r["latencies_ms"])
    return {
        "nego_per_s": (sum(r["settled"] for r in rounds)
                       / sum(r["wall_s"] for r in rounds)),
        "latency_p50_ms": percentile(latencies, 0.5),
        "latency_p90_ms": percentile(latencies, 0.9),
        "msgs_per_nego": counts["messages"] / n,
        "bytes_per_nego": counts["bytes"] / n,
        "certs_per_nego": counts["certs"] / n,
        "setup_s": median([t for r in rounds for t in r["setup_times_s"]]),
        "heap_peak_mb": median([r["heap_peak_mb"] for r in rounds]),
    }


def per_layer(untraced, traced):
    layers = {k: median([r["layers"][k] for r in traced])
              for k in traced[0]["layers"]}
    layers["gc.alloc_kw_per_nego"] = median(
        [r["alloc_kw_per_nego"] for r in untraced])
    layers["harness.trace_overhead"] = (
        median([r["wall_s"] for r in traced])
        / median([r["wall_s"] for r in untraced]) - 1)
    return layers


def reconcile(workload, traced, layers):
    """The layer times must add up; raise Abort when they do not."""
    bound = traced[0]["setup_residual_bound"]
    problems = []
    if layers["reactor.self_us_per_nego"] < 0:
        problems.append(
            "reactor.self_us_per_nego = %.1f us < 0: the probes attribute more "
            "lower-layer time than the reactor's calls took"
            % layers["reactor.self_us_per_nego"])
    if abs(layers["harness.setup_residual_share"]) > bound:
        problems.append(
            "the setup parts miss setup_s by %.1f%%, more than the stated %.0f%%"
            % (100 * layers["harness.setup_residual_share"], 100 * bound))
    if problems:
        raise Abort(4, f"{workload}: traced run does not reconcile: "
                       + "; ".join(problems))


def fmt(v):
    return "%.6g" % v


def report_end_to_end(workload, rounds, metrics):
    r0 = rounds[0]
    print(f"workload {workload}  seed {r0['seed']}  rounds {len(rounds)}  "
          f"negotiations {r0['negotiations']}/round  latency samples "
          f"{sum(len(r['latencies_ms']) for r in rounds)}  world builds "
          f"{sum(len(r['setup_times_s']) for r in rounds)}")
    for name, m in END_TO_END.items():
        print(f"  {name:<16} {fmt(metrics[name]):>12} {m['unit']:<6} "
              f"({m['better']} is better)")
    attempted = sum(r["negotiations"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    print(f"  {'failed_share':<16} {fmt(failed / attempted):>12} {'ratio':<6} "
          f"({failed} of {attempted} missed their expected outcome)")


def report_per_layer(workload, traced, layers, spans_path):
    r0 = traced[0]
    print(f"workload {workload}  seed {r0['seed']}  traced rounds {len(traced)}"
          f"  spans {os.path.relpath(spans_path, ROOT)}")
    for name, m in PER_LAYER.items():
        if workload == "durable" or not name.startswith(DURABLE_ONLY):
            print(f"  {name:<28} {fmt(layers[name]):>12} {m['unit']}")
    attr = r0["attribution_us_per_nego"]
    print("  attribution of reactor time, us per negotiation (first traced round):")
    for k, v in attr.items():
        print(f"    {k:<14} {fmt(v):>12}")
    print("  setup parts, ms (first traced round): "
          + ", ".join(f"{k} {fmt(v)}" for k, v in r0["setup_parts_ms"].items())
          + f"; setup_s {fmt(r0['setup_s'])}")


def run(workload, seed, seconds, trace):
    build()
    started = time.monotonic()
    untraced, traced = [], []
    spans_path = os.path.join(WORK_DIR, f"spans-{workload}-{seed}.jsonl")

    def elapsed():
        return time.monotonic() - started

    def enough():
        # Start another round only while it is expected to end within
        # --seconds, once the minimum number of rounds is done.
        want = MIN_ROUNDS if trace == 0 else 2
        times = [r["_round_s"] for r in untraced + traced]
        if not times:
            return False
        typical, slowest = median(times), max(times)
        if elapsed() + 2 * slowest > RUN_LIMIT_S:
            return True
        return (len(untraced) >= want and (trace == 0 or len(traced) >= want)
                and elapsed() + typical > seconds)

    while not enough():
        as_traced = trace == 1 and len(traced) < len(untraced)
        t0 = time.monotonic()
        r = round_(workload, seed, traced=as_traced,
                   spans_out=spans_path if as_traced else None,
                   timeout=RUN_LIMIT_S + 20 - elapsed())
        r["_round_s"] = time.monotonic() - t0
        (traced if as_traced else untraced).append(r)

    rounds = untraced + traced
    mismatch = exact_mismatch(rounds)
    attempted = sum(r["negotiations"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for r in rounds:
        if r["failed"]:
            print(f"  round missed {r['failed']} outcomes: {r['fail_classes']} "
                  f"e.g. {r['first_failure']!r}", file=sys.stderr)
    if mismatch:
        print(f"  rounds of one seed disagree on {mismatch}", file=sys.stderr)
    if trace == 0:
        metrics = end_to_end(untraced)
        report_end_to_end(workload, untraced, metrics)
        out = {k: {"value": metrics[k], "unit": m["unit"]}
               for k, m in END_TO_END.items()}
    else:
        layers = per_layer(untraced, traced)
        report_per_layer(workload, traced, layers, spans_path)
        reconcile(workload, traced, layers)
        out = {k: {"value": layers[k], "unit": m["unit"]}
               for k, m in PER_LAYER.items()}
    print(json.dumps({
        "correct": failed == 0 and not mismatch,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        run(args.workload, args.seed, args.seconds, args.trace)
    except Abort as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(e.code)
    finally:
        # Journals an aborted round left behind.
        if os.path.isdir(WORK_DIR):
            for f in os.listdir(WORK_DIR):
                path = os.path.join(WORK_DIR, f)
                if f.startswith("journals-"):
                    if os.path.isdir(path):
                        shutil.rmtree(path, ignore_errors=True)
                    else:
                        os.remove(path)


if __name__ == "__main__":
    main()
