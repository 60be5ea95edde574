#!/bin/sh
# Pre-merge gate: build, test, formatting, fixed-seed smoke runs, and the
# bench-regression diff against committed seed baselines.  CHECK_SLOW=1
# additionally re-runs the property suite with 5x the iteration counts
# and diffs the full benchmark sweeps.
set -eux

dune build
dune runtest
dune build @fmt

# Chaos smoke: scenario 1 under a fixed-seed fault schedule must terminate
# and export non-empty fault metrics.
metrics=$(mktemp)
cache_metrics=$(mktemp)
trace_a=$(mktemp)
trace_b=$(mktemp)
bench_dir=$(mktemp -d)
trap 'rm -f "$metrics" "$cache_metrics" "$trace_a" "$trace_b"; rm -rf "$bench_dir"' EXIT
./_build/default/bin/main.exe scenario elearn \
  --fault-seed 7 --drop 0.15 --duplicate 0.1 --delay 0.2 --outage UIUC:3:9 \
  --metrics-out "$metrics" > /dev/null
grep -q '"net.drops"' "$metrics"
grep -q '"reactor.retries"' "$metrics"
# Every signature check goes through the keystore, which runs RSA at most
# once per check: the run must have run RSA, and checked at least as often.
rsa=$(grep -o '"crypto.rsa_verifies":[0-9]*' "$metrics" | cut -d: -f2)
checks=$(grep -o '"crypto.signature_checks":[0-9]*' "$metrics" | cut -d: -f2)
if [ "${rsa:-0}" -eq 0 ] || [ "${checks:-0}" -lt "$rsa" ]; then
  echo "chaos smoke: crypto.rsa_verifies ${rsa:-missing}," \
    "crypto.signature_checks ${checks:-missing}" >&2
  exit 1
fi

# Cache smoke: a cold + warm scenario pass over one session must record
# cache hits in the exported metrics.
./_build/default/bin/main.exe scenario services --cache --repeat 2 \
  --metrics-out "$cache_metrics" > /dev/null
grep -q '"cache.hits"' "$cache_metrics"
if grep -q '"cache.hits":0[,}]' "$cache_metrics"; then
  echo "cache smoke: no cache hits recorded" >&2
  exit 1
fi

# Adversary smoke: scenario 1 with misbehaving peers and guards on; the
# bench hard-fails if an honest negotiation is lost, a flooding/malformed
# adversary escapes quarantine, or an honest peer is quarantined.  The
# artifact goes to the scratch dir: the committed BENCH_adversary.json is
# the *full-scale* baseline the CHECK_SLOW diff runs against, and writing
# the smoke artifact into the repo root would clobber it.
./_build/default/bench/main.exe adversary --smoke \
  --metrics-dir "$bench_dir" > /dev/null

# Trace smoke: a faulted scenario run with tracing on must produce an
# identical span log on a re-run (determinism is what makes the artifact
# diffable), and the trace subcommand must reconstruct a timeline with a
# cross-peer critical path from it.
./_build/default/bin/main.exe scenario elearn \
  --fault-seed 7 --drop 0.15 --duplicate 0.1 --delay 0.2 \
  --trace-out "$trace_a" > /dev/null
./_build/default/bin/main.exe scenario elearn \
  --fault-seed 7 --drop 0.15 --duplicate 0.1 --delay 0.2 \
  --trace-out "$trace_b" > /dev/null
cmp "$trace_a" "$trace_b"
./_build/default/bin/main.exe trace "$trace_a" | grep -q 'critical path'
./_build/default/bin/main.exe trace "$trace_a" | grep -q 'net.wire'

# Recursion smoke: a cyclic mutual-accreditation policy must terminate
# under distributed tabling (loop detection + GEM-style completion) and
# grant the chained credential.  The scaled recursion workloads run with
# the crash sweep below.
./_build/default/bin/main.exe scenario accreditation --tabling \
  --metrics-out "$metrics" > /dev/null
grep -q '"negotiation.granted":1[,}]' "$metrics"
if grep -q '"tabling.loops_detected":0[,}]' "$metrics"; then
  echo "recursion smoke: no inter-peer loop detected" >&2
  exit 1
fi

# Crash smoke: scenario 1 with a scheduled crash+restart and journals on
# must recover and grant; the recovery metrics must stay inside the
# committed smoke baseline's bands.
journal_dir=$(mktemp -d)
./_build/default/bin/main.exe scenario elearn \
  --crash E-Learn:5:40 --journal "$journal_dir" \
  --metrics-out "$metrics" > /dev/null
grep -q '"negotiation.granted":1[,}]' "$metrics"
grep -q '"reactor.restarts":1[,}]' "$metrics"
rm -rf "$journal_dir"
# The scaled recursion and crash sweeps run in one process, in gate
# order, each diffed against its committed seed baseline.
./_build/default/bench/main.exe recursion crash --smoke \
  --metrics-dir "$bench_dir" > /dev/null
./_build/default/bench/main.exe diff --against-seed recursion_smoke \
  "$bench_dir/BENCH_recursion.json"
./_build/default/bench/main.exe diff --against-seed crash_smoke \
  "$bench_dir/BENCH_crash.json"
# Histograms that recorded nothing (e.g. the local tabled engine's, which
# bench crash never enters) must not be emitted.
if grep -q '"tabled.tables_per_query"' "$bench_dir/BENCH_crash.json"; then
  echo "bench crash: empty histogram leaked into the artifact" >&2
  exit 1
fi
# Nor may gauges the experiment never set, such as the recursion
# sweep's, still registered from the run before it.
if grep -q '"recursion\.' "$bench_dir/BENCH_crash.json"; then
  echo "bench crash: an earlier experiment's gauge leaked into the artifact" >&2
  exit 1
fi

# Resolution smoke and bench-regression gate: the scaled resolution-core
# workloads once, with the engine's answer sets diffed against the
# reference resolver; their metrics must stay inside the per-metric
# tolerance bands of the committed seed baseline, and the diff tool must
# catch an injected 2x inflation (self-test).  The artifact goes to the
# scratch dir, like every artifact of this gate, so the repository root
# holds only committed baselines.
./_build/default/bench/main.exe resolution --smoke \
  --metrics-dir "$bench_dir" > /dev/null
# The million-fact workloads (scaled down under --smoke) must have
# reported their gauges.
grep -q '"resolution.ground_lookup.ms"' "$bench_dir/BENCH_resolution.json"
grep -q '"resolution.indexed_million.ms"' "$bench_dir/BENCH_resolution.json"
./_build/default/bench/main.exe diff --against-seed resolution_smoke \
  "$bench_dir/BENCH_resolution.json"
if ./_build/default/bench/main.exe diff --against-seed resolution_smoke \
  --inflate 2 "$bench_dir/BENCH_resolution.json" > /dev/null 2>&1; then
  echo "bench diff: failed to flag an injected 2x regression" >&2
  exit 1
fi

# Benchmark self-test: on tiny hub and durable worlds, rounds must repeat
# their exact counts, meet every expected outcome, and abort on a
# flipped expectation.
python3 perfbench/check.py

# Slow gate: the property suite again with raised iteration counts, then
# the full benchmark sweeps diffed against their committed baselines.
if [ "${CHECK_SLOW:-0}" != "0" ]; then
  CHECK_SLOW=1 ./_build/default/test/test_properties.exe
  ./_build/default/bench/main.exe adversary chaos resolution recursion crash \
    --metrics-dir "$bench_dir"
  ./_build/default/bench/main.exe diff --against-seed adversary \
    "$bench_dir/BENCH_adversary.json"
  ./_build/default/bench/main.exe diff --against-seed chaos \
    "$bench_dir/BENCH_chaos.json"
  ./_build/default/bench/main.exe diff --against-seed resolution \
    "$bench_dir/BENCH_resolution.json"
  ./_build/default/bench/main.exe diff --against-seed recursion \
    "$bench_dir/BENCH_recursion.json"
  ./_build/default/bench/main.exe diff --against-seed crash \
    "$bench_dir/BENCH_crash.json"
fi
