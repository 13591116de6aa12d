#!/usr/bin/env bash
# CI smoke for the coverage-guided fuzzer (csd-cover).
#
# Runs the same bounded campaign twice from a scratch copy of the
# committed corpus — once at --jobs 1, once at --jobs 2 — and requires:
#
#   * zero new divergences (exit 1 from the fuzzer fails the job);
#   * coverage at least the committed baseline
#     (tests/corpus/coverage-baseline.json; exit 3 on regression);
#   * byte-identical summaries, coverage maps, and corpus directories
#     across the two runs (the determinism contract).
#
# The committed corpus itself is never written to: each run mutates its
# own scratch copy.
#
# A second leg sweeps 500 generated programs without mutation
# (`--programs`), again at --jobs 1 and 2 on scratch corpus copies, and
# requires zero divergences and byte-identical summaries and coverage
# maps across the two runs.
set -euo pipefail
cd "$(dirname "$0")/.."

SEED=3405691582
ITERS=128
BASELINE=tests/corpus/coverage-baseline.json
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

cargo build --release -p csd-difftest --bin fuzz

for jobs in 1 2; do
  mkdir -p "$WORK/corpus-$jobs"
  cp tests/corpus/* "$WORK/corpus-$jobs/"
  target/release/fuzz \
    --seed "$SEED" --iters "$ITERS" --jobs "$jobs" \
    --corpus "$WORK/corpus-$jobs" \
    --out "$WORK/summary-$jobs.json" \
    --coverage-out "$WORK/coverage-$jobs.json" \
    --baseline "$BASELINE"
done

cmp "$WORK/summary-1.json" "$WORK/summary-2.json"
cmp "$WORK/coverage-1.json" "$WORK/coverage-2.json"
diff -r "$WORK/corpus-1" "$WORK/corpus-2"

for jobs in 1 2; do
  mkdir -p "$WORK/sweep-corpus-$jobs"
  cp tests/corpus/* "$WORK/sweep-corpus-$jobs/"
  target/release/fuzz \
    --seed 1 --programs 500 --jobs "$jobs" \
    --corpus "$WORK/sweep-corpus-$jobs" \
    --out "$WORK/sweep-summary-$jobs.json" \
    --coverage-out "$WORK/sweep-coverage-$jobs.json"
done

cmp "$WORK/sweep-summary-1.json" "$WORK/sweep-summary-2.json"
cmp "$WORK/sweep-coverage-1.json" "$WORK/sweep-coverage-2.json"

echo "fuzz smoke OK: campaign and 500-program sweep deterministic across --jobs, coverage >= baseline, no divergences"
