#!/usr/bin/env bash
# End-to-end smoke of the sharded campaign service: boots `campaign
# --workers 2` with a Prometheus endpoint, scrapes /metrics mid-run, SIGKILLs
# one worker process, and then requires a clean exit with the full scenario
# count in the merged report — proving the requeue/restart machinery
# survives a real process death, not just the in-process test double.
#
# After the kill smoke, a chaos drill matrix runs the seeded fault-injection
# harness through the real binary: worker hang and dropped frame (both
# reaped at the deadline), torn frame, mid-batch crash and slow straggler
# must all finish with a report byte-identical to a clean run's, and a torn
# checkpoint must abort the run and then complete via --resume. Every drill
# is deterministic (fixed --chaos-seed), so a failure replays exactly. The
# drills pass --metrics-json, so their JSON reports end with an
# "observability" member; every byte before it must equal the clean
# reference. The same grid run in process (--workers 0) must equal the
# reference byte for byte.
#
# Usage: scripts/campaignd_smoke.sh [BUILD_DIR] [OUT_DIR]
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-campaignd-smoke}"
CAMPAIGN="$BUILD_DIR/examples/campaign"
[ -x "$CAMPAIGN" ] || { echo "FAIL: $CAMPAIGN not built" >&2; exit 1; }

mkdir -p "$OUT_DIR"
SPEC="$OUT_DIR/job.json"
REPORT="$OUT_DIR/report.json"
LOG="$OUT_DIR/campaign.log"
METRICS="$OUT_DIR/metrics.prom"
EXPECTED=48

# 24 noise levels x 2 upset rates: uniform-cost scenarios. Their compute
# alone (well under half a second on a 4-vCPU host) can end the sweep before
# the mid-run scrape connects or the kill finds a worker, so the kill run
# paces every generation-0 batch with the chaos slow-batch knob (20 ms each,
# about half a second per worker); a restarted worker runs unpaced.
python3 - "$SPEC" <<'EOF'
import json, sys
spec = {
    "variants": ["reconfigured-hw"],
    "parts": ["xc3s200"],
    "ports": ["jcap"],
    "noise_levels": [1e-3 * (1 + 0.05 * i) for i in range(24)],
    "upset_rates": [0.0, 0.5],
    "cycles": 64,
    "campaign_seed": 20080808,
}
json.dump(spec, open(sys.argv[1], "w"))
EOF

"$CAMPAIGN" --spec "$SPEC" --workers 2 --batch 1 \
    --chaos-slow 1 --chaos-slow-ms 20 \
    --http-port 0 --json --out "$REPORT" \
    --spool "$OUT_DIR/job.spool" 2> "$LOG" &
DAEMON=$!

# The bound port is printed to stderr once the listener is up (before the
# run starts), so the scrape below can never miss the server: connections
# queue in the listen backlog until the event loop accepts them.
PORT=""
for _ in $(seq 1 100); do
    PORT=$(sed -n 's/.*serving \/metrics on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$LOG" | head -1)
    [ -n "$PORT" ] && break
    if ! kill -0 "$DAEMON" 2>/dev/null; then
        cat "$LOG" >&2
        echo "FAIL: campaign died before serving /metrics" >&2
        exit 1
    fi
    sleep 0.1
done
[ -n "$PORT" ] || { cat "$LOG" >&2; echo "FAIL: no /metrics port in $LOG" >&2; exit 1; }

python3 - "$PORT" "$METRICS" <<'EOF'
import sys, urllib.request
body = urllib.request.urlopen(
    f"http://127.0.0.1:{sys.argv[1]}/metrics", timeout=60).read().decode()
open(sys.argv[2], "w").write(body)
assert "svc_workers_alive" in body, "svc gauges missing from scrape"
assert "svc_scenarios_committed_total" in body, "svc counters missing from scrape"
EOF

# SIGKILL one worker mid-run; the coordinator must requeue its in-flight
# batch (and restart it), and the final report must not lose a scenario.
VICTIM=""
for _ in $(seq 1 100); do
    VICTIM=$(pgrep -P "$DAEMON" -f 'campaign-worker' | head -1 || true)
    [ -n "$VICTIM" ] && break
    sleep 0.05
done
[ -n "$VICTIM" ] || { echo "FAIL: no worker process found to kill" >&2; exit 1; }
kill -KILL "$VICTIM"

if ! wait "$DAEMON"; then
    cat "$LOG" >&2
    echo "FAIL: campaign exited non-zero after worker kill" >&2
    exit 1
fi
cat "$LOG"

python3 - "$REPORT" "$EXPECTED" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
expected = int(sys.argv[2])
count = report["campaign"]["scenario_count"]
rows = len(report["scenarios"])
assert count == expected, f"report claims {count} scenarios, expected {expected}"
assert rows == expected, f"report carries {rows} scenario rows, expected {expected}"
EOF

# The kill must actually have been absorbed by the service: either the dead
# worker's batch was reassigned or the worker was restarted (usually both).
REASSIGNED=$(sed -n 's/.* \([0-9]*\) reassigned.*/\1/p' "$LOG" | head -1)
RESTARTS=$(sed -n 's/.* \([0-9]*\) restarts.*/\1/p' "$LOG" | head -1)
if [ "${REASSIGNED:-0}" -eq 0 ] && [ "${RESTARTS:-0}" -eq 0 ]; then
    echo "FAIL: worker kill left no trace (0 reassigned, 0 restarts)" >&2
    exit 1
fi

echo "PASS: $EXPECTED/$EXPECTED scenarios after worker kill" \
     "(reassigned=$REASSIGNED restarts=$RESTARTS)"

# ---------------------------------------------------------------- chaos drills

DRILL_SPEC="$OUT_DIR/drill.json"
DRILL_EXPECTED=12
python3 - "$DRILL_SPEC" <<'EOF'
import json, sys
spec = {
    "variants": ["reconfigured-hw"],
    "parts": ["xc3s200"],
    "ports": ["jcap"],
    "noise_levels": [1e-3 * (1 + 0.05 * i) for i in range(12)],
    "cycles": 2,
    "campaign_seed": 20260808,
}
json.dump(spec, open(sys.argv[1], "w"))
EOF

# Clean reference rendering: every drill's report must match it byte for
# byte — fault recovery may cost wall time, never report drift.
REFERENCE="$OUT_DIR/drill_reference.json"
"$CAMPAIGN" --spec "$DRILL_SPEC" --workers 2 --batch 1 --json \
    --out "$REFERENCE" --spool "$OUT_DIR/drill_ref.spool" \
    2> "$OUT_DIR/drill_reference.log"

# Entry-point parity: the same grid run in process on threads must render
# the reference byte for byte.
"$CAMPAIGN" --spec "$DRILL_SPEC" --threads 2 --json \
    --out "$OUT_DIR/drill_inprocess.json" 2> "$OUT_DIR/drill_inprocess.log"
cmp "$OUT_DIR/drill_inprocess.json" "$REFERENCE" \
    || { echo "FAIL: in-process report differs from the 2-worker reference" >&2; exit 1; }
echo "PASS: in-process report equals the 2-worker reference"

# same_report OUT — OUT must equal the reference up to its trailing
# "observability" member (wall-clock facts from --metrics-json), which the
# report always writes last.
same_report() {
    python3 - "$1" "$REFERENCE" <<'EOF'
import sys
out = open(sys.argv[1]).read()
ref = open(sys.argv[2]).read()
cut = out.find(',"observability":')
sys.exit(0 if cut >= 0 and out[:cut] + "}\n" == ref else 1)
EOF
}

# run_drill NAME EXPECTED_RC EXTRA_FLAGS... — runs the service under one
# fault category; on EXPECTED_RC=0 the report must equal the clean reference.
run_drill() {
    local name="$1" want_rc="$2"
    shift 2
    local out="$OUT_DIR/drill_$name.json"
    local log="$OUT_DIR/drill_$name.log"
    local rc=0
    "$CAMPAIGN" --spec "$DRILL_SPEC" --workers 2 --batch 1 --json \
        --out "$out" --spool "$OUT_DIR/drill_$name.spool" \
        --metrics-json "$OUT_DIR/drill_$name.metrics.json" \
        --chaos-seed 7 "$@" 2> "$log" || rc=$?
    if [ "$rc" -ne "$want_rc" ]; then
        cat "$log" >&2
        echo "FAIL: drill '$name' exited $rc (wanted $want_rc)" >&2
        exit 1
    fi
    if [ "$want_rc" -eq 0 ] && ! same_report "$out"; then
        cat "$log" >&2
        echo "FAIL: drill '$name' report differs from the clean reference" >&2
        exit 1
    fi
    echo "PASS: drill '$name' (exit $rc)"
}

# A hung worker is reaped at its deadline and its range re-run clean.
run_drill hang 0 --chaos-hang 1.0 --chaos-only-worker 0 \
    --progress-timeout-ms 300 --max-restarts 2
grep -q " [1-9][0-9]* deadline kills" "$OUT_DIR/drill_hang.log" \
    || { echo "FAIL: hang drill logged no deadline kill" >&2; exit 1; }

# A worker whose Batch frames are dropped stays alive and idle while the
# batch it owes never arrives; the deadline frees that batch. Chaos seed 8
# drops slot 0's first Batch (seed 7 only its second, which slot 0 does not
# always get to send), so the deadline fires on every run.
run_drill drop 0 --chaos-drop 0.5 --chaos-only-worker 0 \
    --progress-timeout-ms 300 --chaos-seed 8
grep -q " [1-9][0-9]* deadline kills" "$OUT_DIR/drill_drop.log" \
    || { echo "FAIL: drop drill logged no deadline kill" >&2; exit 1; }

# A torn frame kills the writer mid-write; the dead worker's range requeues.
run_drill torn 0 --chaos-torn 1.0 --chaos-only-worker 0 --max-restarts 2

# A worker that dies after computing (before sending) every first batch.
run_drill crash 0 --chaos-crash mid-batch --chaos-crash-after 1 \
    --max-restarts 4

# A straggler 60ms/batch slower than the fleet holds one batch at a time,
# so the other worker pulls the rest of the grid. Nothing dies, so nothing
# may be reassigned or restarted.
run_drill straggler 0 --chaos-slow 1.0 --chaos-slow-ms 60 \
    --chaos-only-worker 0
grep -q " 0 reassigned, 0 restarts" "$OUT_DIR/drill_straggler.log" \
    || { echo "FAIL: straggler drill reassigned or restarted" >&2; exit 1; }

# A torn checkpoint append aborts the run (non-zero exit, as a crash
# would); --resume against the torn journal must finish byte-identically.
DRILL_CKPT="$OUT_DIR/drill.ckpt"
run_drill tear_ckpt 1 --checkpoint "$DRILL_CKPT" --chaos-tear-checkpoint 4 \
    --chaos-tear-bytes 9
run_drill resume_after_tear 0 --checkpoint "$DRILL_CKPT" --resume
grep -q "resumed" "$OUT_DIR/drill_resume_after_tear.log" \
    || { echo "FAIL: resume drill replayed nothing" >&2; exit 1; }

echo "PASS: chaos drill matrix ($DRILL_EXPECTED scenarios per drill)"
