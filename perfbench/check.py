#!/usr/bin/env python3
"""The benchmark's own test, on small sizes of every workload.

    python3 perfbench/check.py

Checks that:
- two untraced rounds of one seed print identical request-order digests
  and identical exact counts (messages, bytes, certificates and every
  count behind a *_per_nego metric);
- a traced round of that seed reproduces the same counts, so the
  checkpoint probes do not disturb the run;
- the traced round, which builds the world with the calls of
  Session.add_peer one by one, reaches the same world (KBs and wallets)
  as the untraced rounds, which call Session.add_peer;
- another seed changes the digest;
- every round meets its expected outcomes (no miss);
- flipping one expectation of the oracle makes the round abort with the
  safety exit code.
Exits 0 when every check passes, 1 otherwise.
"""

import sys

import run

SEEDS = (1, 2)


def per_nego(r):
    n = r["negotiations"]
    return {k: v / n for k, v in r["counts"].items()}


def main():
    try:
        run.build()
    except run.Abort as e:
        sys.exit(f"perfbench: {e}")
    failures = []

    def expect(ok, what):
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for w in run.WORKLOADS:
        print(w)
        a = run.round_(w, SEEDS[0], tiny=True)
        b = run.round_(w, SEEDS[0], tiny=True)
        t = run.round_(w, SEEDS[0], tiny=True, traced=True)
        c = run.round_(w, SEEDS[1], tiny=True)
        expect(a["order_digest"] == b["order_digest"],
               f"seed {SEEDS[0]} repeats its digest {a['order_digest']}")
        expect(a["counts"] == b["counts"],
               f"seed {SEEDS[0]} repeats its exact counts")
        expect(a["counts"] == t["counts"],
               "a traced round reproduces the untraced counts")
        expect(a["world_digest"] == t["world_digest"],
               "the traced build reaches the world Session.add_peer builds")
        expect(a["order_digest"] != c["order_digest"],
               f"seed {SEEDS[1]} changes the digest")
        expect(all(r["failed"] == 0 for r in (a, b, t, c)),
               "every negotiation met its expected outcome")
        print("    per negotiation: " + ", ".join(
            f"{k} {v:.4g}" for k, v in per_nego(a).items()))
        try:
            run.round_(w, SEEDS[0], tiny=True, flip=True)
            expect(False, "a flipped expectation aborts the round")
        except run.Abort as e:
            expect(e.code == 3, f"a flipped expectation aborts the round "
                                f"(exit {e.code})")
    if failures:
        print(f"{len(failures)} check(s) failed")
        sys.exit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
