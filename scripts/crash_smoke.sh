#!/usr/bin/env bash
# Crash-injection smoke for durable runs (the write-ahead run journal):
#   1. a clean journaled suite run must equal the committed golden bytes,
#   2. seeded kill points (CSD_CRASH_AT=n aborts the process mid-append,
#      leaving a torn frame) — crash → resume loops must converge and the
#      final artifact must be byte-identical to an uninterrupted run,
#   3. an arbitrary byte-level truncation of a finished journal must
#      resume cleanly (torn-tail recovery).
set -euo pipefail

BIN=target/release
GOLDEN=crates/bench/tests/golden/quick_suite.json
RUNS=/tmp/csd-crash-runs
LOG=/tmp/csd-crash-smoke.log
rm -rf "$RUNS"
mkdir -p "$RUNS"
: >"$LOG"

# crash_loop N CMD... — run CMD with CSD_CRASH_AT=N until it exits 0.
# Every non-final iteration aborts mid-append; the journal named inside
# CMD (--resume) carries the progress across crashes. A loop that does
# not converge within the cap is a durability bug (e.g. zero progress
# per iteration), not bad luck: every iteration must bank at least one
# task.
crash_loop() {
    local n=$1
    shift
    local tries=0
    while true; do
        tries=$((tries + 1))
        if [[ $tries -gt 80 ]]; then
            echo "crash smoke: kill point $n did not converge after 80 crashes" >&2
            tail -20 "$LOG" >&2
            exit 1
        fi
        if CSD_CRASH_AT=$n "$@" >>"$LOG" 2>&1; then
            break
        fi
    done
    echo "   kill point $n: converged after $tries run(s)"
}

echo "== clean journaled run must equal the golden bytes"
"$BIN/suite" --quick --journal --journal-dir "$RUNS" --out /tmp/crash-clean.json >>"$LOG" 2>&1
cmp /tmp/crash-clean.json "$GOLDEN"

echo "== suite crash->resume loops at several kill points"
# Tight kill point on a filtered subgrid: ~1 task survives per run.
"$BIN/suite" --quick --filter attack/ --out /tmp/crash-filter-clean.json >>"$LOG" 2>&1
crash_loop 2 "$BIN/suite" --quick --filter attack/ --resume crash-f2 \
    --journal-dir "$RUNS" --out /tmp/crash-f2.json
cmp /tmp/crash-f2.json /tmp/crash-filter-clean.json
# Full grid against the committed golden bytes.
for n in 7 19; do
    crash_loop "$n" "$BIN/suite" --quick --resume "crash-s$n" \
        --journal-dir "$RUNS" --out "/tmp/crash-s$n.json"
    cmp "/tmp/crash-s$n.json" "$GOLDEN"
done

echo "== arbitrary truncation of a finished journal resumes cleanly"
truncate -s -13 "$RUNS/crash-s7.journal"
"$BIN/suite" --quick --resume crash-s7 --journal-dir "$RUNS" \
    --out /tmp/crash-trunc.json >>"$LOG" 2>&1
cmp /tmp/crash-trunc.json "$GOLDEN"

echo "crash smoke: OK"
