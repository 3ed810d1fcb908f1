#!/usr/bin/env bash
# End-to-end smoke test of the rexd daemon (docs/SERVER.md):
#   - verdicts byte-identical to the in-process checker, across builtin
#     samples x the paper variant matrix, two rounds;
#   - round two served from the shared verdict cache (via /metrics);
#   - malformed input answered with 400, not a crash;
#   - a budget-tripped campaign resumed via rex-cont-v1 continuation
#     tokens (--resume-budget) stitches to the unbudgeted answer;
#   - 503 backpressure from a saturated one-slot queue;
#   - graceful SIGTERM drain leaving a complete JSONL results file.
#
# Usage: scripts/server_smoke.sh [BUILD_DIR]
set -euo pipefail

BUILD=${1:-build}
REXD="$BUILD/src/rexd"
CLIENT="$BUILD/examples/example_rex_client"
PORT=${REXD_SMOKE_PORT:-18643}
WORK=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT

wait_healthy() {
    for _ in $(seq 1 100); do
        "$CLIENT" --port "$1" --health >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    echo "rexd on port $1 never became healthy" >&2
    return 1
}

"$REXD" --port "$PORT" --cache-dir "$WORK/cache" \
        --results "$WORK/rexd.jsonl" > "$WORK/rexd.log" 2>&1 &
REXD_PID=$!
wait_healthy "$PORT"

# Byte-identical verdicts, daemon vs the identical service run
# in-process, across builtin samples x the paper variant matrix.
# Two rounds: round two must be served from the shared cache.
TESTS="SB+pos MP+dmb.sys SB+dmb.sy+eret MP+dmb.sy+addr MP+dmb.sy+fault"
for round in 1 2; do
    for t in $TESTS; do
        "$CLIENT" --port "$PORT" --builtin "$t" --variants paper \
            --stable > "$WORK/server.out"
        "$CLIENT" --builtin "$t" --variants paper --stable --direct \
            > "$WORK/direct.out"
        diff "$WORK/server.out" "$WORK/direct.out" \
            || { echo "verdict mismatch: $t (round $round)"; exit 1; }
    done
done
echo "verdicts: byte-identical with the direct checker"

"$CLIENT" --port "$PORT" --metrics > "$WORK/metrics.txt"
python3 - "$WORK/metrics.txt" <<'EOF'
import sys
metrics = {}
for line in open(sys.argv[1]):
    parts = line.split()
    if not line.startswith('#') and len(parts) == 2:
        metrics[parts[0]] = float(parts[1])
hits = metrics["rexd_cache_hits_total"]
misses = metrics["rexd_cache_misses_total"]
# Round two re-checked every (test, variant) pair: hits >= misses.
assert misses > 0 and hits >= misses, (hits, misses)
print(f"cache: {hits:.0f} hits / {misses:.0f} misses")
EOF

# Malformed request body: a clean 400 (client exit 4), not a crash.
set +e
echo 'not json' | "$CLIENT" --port "$PORT" --post /check > "$WORK/bad.out"
status=$?
set -e
[ "$status" -eq 4 ] || { echo "expected exit 4, got $status"; exit 1; }
grep -q '"error"' "$WORK/bad.out"
"$CLIENT" --port "$PORT" --health > /dev/null   # still serving
echo "malformed request: 400"

# Loss-free budget trips (docs/DISTRIBUTED.md): a 2-candidate ceiling
# trips every check below, and --resume-budget keeps re-POSTing the
# continuation token until the verdict lands. The stitched stream must
# be byte-identical to the unbudgeted in-process answer. The daemon
# runs cache-less so no (test, variant) pair is answered from a cache.
"$REXD" --port $((PORT + 2)) --no-cache > "$WORK/rexd3.log" 2>&1 &
wait_healthy $((PORT + 2))
: > "$WORK/resumed.err"
for t in SB+pos MP+dmb.sys IRIW+addrs LB+addrs SB+dmb.sy+eret; do
    for v in base SEA_RW; do
        timeout 120 "$CLIENT" --port $((PORT + 2)) --builtin "$t" \
            --variants "$v" --max-candidates 2 --resume-budget 200 \
            --stable > "$WORK/resumed.out" 2>> "$WORK/resumed.err"
        "$CLIENT" --builtin "$t" --variants "$v" --stable --direct \
            > "$WORK/direct.out"
        diff "$WORK/resumed.out" "$WORK/direct.out" \
            || { echo "resume mismatch: $t $v"; exit 1; }
    done
done
grep -q "re-posting continuation" "$WORK/resumed.err" \
    || { echo "campaign never tripped its budget"; exit 1; }
echo "resume: budget-tripped campaign stitched to the unbudgeted answer"

# Backpressure: one handler thread, a one-slot queue, and a burst of
# slow requests; some must be shed with 503 (client exit 5) while the
# pinned ones are still served (exit 0).
"$REXD" --port $((PORT + 1)) --threads 1 --queue 1 --no-cache \
        > "$WORK/rexd2.log" 2>&1 &
wait_healthy $((PORT + 1))
: > "$WORK/burst.codes"
pids=""
for _ in $(seq 1 8); do
    ( set +e   # the whole point is recording non-zero exits
      "$CLIENT" --port $((PORT + 1)) --builtin SB+pos --sleep-ms 500 \
          > /dev/null 2>> "$WORK/burst.err"
      echo $? >> "$WORK/burst.codes" ) &
    pids="$pids $!"
done
for p in $pids; do wait "$p" || true; done
grep -qx 5 "$WORK/burst.codes" \
    || { echo "no 503 in burst:"; cat "$WORK/burst.codes"; exit 1; }
grep -qx 0 "$WORK/burst.codes" \
    || { echo "nothing served in burst:"; cat "$WORK/burst.codes"; exit 1; }
echo "backpressure: 503 shed observed, pinned requests served"

# Graceful drain: SIGTERM finishes accepted work; the results file
# holds only complete, parseable records.
kill -TERM "$REXD_PID"
wait "$REXD_PID"
grep -q "rexd drained:" "$WORK/rexd.log"
python3 - "$WORK/rexd.jsonl" <<'EOF'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
assert lines, "results file is empty"
for line in lines:
    record = json.loads(line)
    assert record["verdict"] in ("Allowed", "Forbidden"), record
print(f"drain: {len(lines)} complete JSONL records")
EOF

echo "server smoke: OK"
