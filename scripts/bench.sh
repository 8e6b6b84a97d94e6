#!/usr/bin/env bash
# bench.sh — run the substrate micro-benchmarks and record the results in
# BENCH_sim.json, preserving the file's frozen baseline section so the
# before/after perf trajectory stays in one committed document.
#
# Usage:
#   scripts/bench.sh                 # full run (default -benchtime=1s)
#   scripts/bench.sh -compare        # diff a fresh run against the committed
#                                    # BENCH_sim.json instead of rewriting it;
#                                    # exits non-zero if the end-to-end
#                                    # simulation regressed by more than 15%
#   BENCHTIME=1x scripts/bench.sh    # smoke run (one iteration per bench)
#   OUT=/tmp/b.json scripts/bench.sh # write elsewhere
set -euo pipefail
cd "$(dirname "$0")/.."

mode=record
if [ "${1:-}" = -compare ]; then
  mode=compare
fi

benchtime="${BENCHTIME:-1s}"
out="${OUT:-BENCH_sim.json}"

# The tracked set: event scheduling, codecs, cache, DRAM (shallow and deep
# queues), the L2 bank miss path, coalescing, and the end-to-end
# simulation rate. The Fig16 sweep benchmark is excluded —
# it is an experiment, not a substrate microbenchmark.
pattern='^(BenchmarkEngineSchedule|BenchmarkSECDED|BenchmarkRS|BenchmarkTaggedCheck|BenchmarkCache|BenchmarkDRAM|BenchmarkL2Bank|BenchmarkCoalesce|BenchmarkEndToEndSimulation)'

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" . | tee "$raw" >&2

if [ "$mode" = compare ]; then
  # Diff against the committed numbers without touching the file. The
  # end-to-end simulation rate gates the exit code; everything else is
  # reported for context.
  go run ./scripts/benchjson -compare "$out" < "$raw"
else
  go run ./scripts/benchjson -prev "$out" < "$raw" > "$out.tmp"
  mv "$out.tmp" "$out"
  echo "wrote $out" >&2
fi
