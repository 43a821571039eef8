#!/usr/bin/env bash
# End-to-end smoke of the sharded campaign service through the shipped
# `campaign` binary, on one 48-scenario grid whose clean 2-worker report is
# the reference every other run must equal byte for byte:
#
#   - worker kill: boots `campaign --workers 2` with a Prometheus endpoint,
#     scrapes /metrics mid-run and SIGKILLs one forked worker; the run must
#     exit 0 with the reference report, the dead worker's batch requeued or
#     its slot restarted;
#   - in-process parity: the grid run on threads (--workers 0) renders the
#     reference;
#   - --metrics-json: a service run's JSON report equals the reference up to
#     its trailing "observability" member (wall-clock facts);
#   - Ctrl-C: SIGINT to the whole process group mid-run, as a terminal
#     sends it, must drain the in-flight batches into the checkpoint (exit
#     1, "0 reassigned"), and --resume must finish with the reference;
#   - coordinator crash: SIGKILL the `campaign` process mid-run; no forked
#     worker may outlive the deadline, and --resume must finish with the
#     reference.
#
# The injected-fault drills (hang, dropped frame, torn frame, crash,
# straggler) run as test_svc cases through the test-support fault script.
#
# Usage: scripts/campaignd_smoke.sh [BUILD_DIR] [OUT_DIR]
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-campaignd-smoke}"
CAMPAIGN="$BUILD_DIR/examples/campaign"
[ -x "$CAMPAIGN" ] || { echo "FAIL: $CAMPAIGN not built" >&2; exit 1; }

mkdir -p "$OUT_DIR"
SPEC="$OUT_DIR/job.json"
REFERENCE="$OUT_DIR/reference.json"
EXPECTED=48
DEADLINE_MS=5000

# 24 noise levels x 2 upset rates: uniform-cost scenarios. 1024 cycles each
# keep a 2-worker run busy for over a second on a 4-vCPU host, long enough
# for the scrape, the kill and both interruptions to land mid-run.
python3 - "$SPEC" <<'EOF'
import json, sys
spec = {
    "variants": ["reconfigured-hw"],
    "parts": ["xc3s200"],
    "ports": ["jcap"],
    "noise_levels": [1e-3 * (1 + 0.05 * i) for i in range(24)],
    "upset_rates": [0.0, 0.5],
    "cycles": 1024,
    "campaign_seed": 20080808,
}
json.dump(spec, open(sys.argv[1], "w"))
EOF

fail() { echo "FAIL: $*" >&2; exit 1; }

# service NAME FLAGS... — sets RUN_CMD to a 2-worker, batch-1 run of the
# grid writing its JSON report to $OUT_DIR/NAME.json. Runs log to
# $OUT_DIR/NAME.log; a background run is started as `"${RUN_CMD[@]}" &`, so
# $! is the coordinator's own pid.
service() {
    local name="$1"
    shift
    RUN_CMD=("$CAMPAIGN" --spec "$SPEC" --workers 2 --batch 1 --json
             --out "$OUT_DIR/$name.json" "$@")
}

# run_service NAME FLAGS... — runs `service NAME FLAGS...` to completion.
run_service() {
    service "$@"
    "${RUN_CMD[@]}" 2> "$OUT_DIR/$1.log"
}

# same_as_reference NAME — the run's report must equal the reference.
same_as_reference() {
    cmp -s "$OUT_DIR/$1.json" "$REFERENCE" \
        || { cat "$OUT_DIR/$1.log" >&2; fail "$1 report differs from the reference"; }
}

# wait_for_record CKPT PID — returns once the journal holds a committed
# record, failing if the run ends first.
wait_for_record() {
    for _ in $(seq 1 500); do
        [ -f "$1" ] && grep -q '^e ' "$1" && return 0
        kill -0 "$2" 2>/dev/null || fail "run ended before its first commit"
        sleep 0.01
    done
    fail "no record reached $1"
}

run_service reference
python3 - "$REFERENCE" "$EXPECTED" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
expected = int(sys.argv[2])
count = report["campaign"]["scenario_count"]
rows = len(report["scenarios"])
assert count == expected, f"report claims {count} scenarios, expected {expected}"
assert rows == expected, f"report carries {rows} scenario rows, expected {expected}"
EOF
echo "PASS: 2-worker reference carries $EXPECTED/$EXPECTED scenarios"

# ---------------------------------------------------------------- worker kill

LOG="$OUT_DIR/kill.log"
service kill --http-port 0
"${RUN_CMD[@]}" 2> "$LOG" &
DAEMON=$!

# The bound port is printed to stderr once the listener is up (before the
# run starts), so the scrape below can never miss the server: connections
# queue in the listen backlog until the event loop accepts them.
PORT=""
for _ in $(seq 1 100); do
    PORT=$(sed -n 's/.*serving \/metrics on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$LOG" | head -1)
    [ -n "$PORT" ] && break
    kill -0 "$DAEMON" 2>/dev/null || { cat "$LOG" >&2; fail "campaign died before serving /metrics"; }
    sleep 0.1
done
[ -n "$PORT" ] || { cat "$LOG" >&2; fail "no /metrics port in $LOG"; }

python3 - "$PORT" "$OUT_DIR/metrics.prom" <<'EOF'
import sys, urllib.request
body = urllib.request.urlopen(
    f"http://127.0.0.1:{sys.argv[1]}/metrics", timeout=60).read().decode()
open(sys.argv[2], "w").write(body)
assert "svc_workers_alive" in body, "svc gauges missing from scrape"
assert "svc_scenarios_committed_total" in body, "svc counters missing from scrape"
EOF

# SIGKILL one forked worker mid-run; the coordinator must requeue its
# in-flight batch (and restart it), and the report must not change a byte.
VICTIM=""
for _ in $(seq 1 100); do
    VICTIM=$(pgrep -P "$DAEMON" | head -1 || true)
    [ -n "$VICTIM" ] && break
    sleep 0.05
done
[ -n "$VICTIM" ] || fail "no worker process found to kill"
kill -KILL "$VICTIM"

wait "$DAEMON" || { cat "$LOG" >&2; fail "campaign exited non-zero after worker kill"; }
cat "$LOG"
same_as_reference kill

# The kill must actually have been absorbed by the service: either the dead
# worker's batch was reassigned or the worker was restarted (usually both).
REASSIGNED=$(sed -n 's/.* \([0-9]*\) reassigned.*/\1/p' "$LOG" | head -1)
RESTARTS=$(sed -n 's/.* \([0-9]*\) restarts.*/\1/p' "$LOG" | head -1)
if [ "${REASSIGNED:-0}" -eq 0 ] && [ "${RESTARTS:-0}" -eq 0 ]; then
    fail "worker kill left no trace (0 reassigned, 0 restarts)"
fi
echo "PASS: reference report after worker kill" \
     "(reassigned=$REASSIGNED restarts=$RESTARTS)"

# ---------------------------------------------------------------- parity

"$CAMPAIGN" --spec "$SPEC" --threads 2 --json \
    --out "$OUT_DIR/inprocess.json" 2> "$OUT_DIR/inprocess.log"
same_as_reference inprocess
echo "PASS: in-process report equals the 2-worker reference"


# --metrics-json appends the obs JSON to the report as its last member,
# "observability"; every byte before it must equal the reference.
run_service observed --metrics-json "$OUT_DIR/observed.metrics.json"
python3 - "$OUT_DIR/observed.json" "$REFERENCE" <<'EOF' \
    || fail "--metrics-json report differs from the reference before \"observability\""
import sys
out = open(sys.argv[1]).read()
ref = open(sys.argv[2]).read()
cut = out.find(',"observability":')
sys.exit(0 if cut >= 0 and out[:cut] + "}\n" == ref else 1)
EOF
echo "PASS: --metrics-json report equals the reference up to \"observability\""

# ---------------------------------------------------------------- Ctrl-C

# A terminal's Ctrl-C signals the whole foreground process group: the
# coordinator and its forked workers. Job control (set -m) gives the run a
# process group of its own to signal the same way. The workers ignore the
# signal, so their in-flight batches drain into the checkpoint and nothing
# is requeued.
CKPT="$OUT_DIR/interrupted.ckpt"
rm -f "$CKPT"
service interrupted --checkpoint "$CKPT"
set -m
"${RUN_CMD[@]}" 2> "$OUT_DIR/interrupted.log" &
RUN=$!
set +m
wait_for_record "$CKPT" "$RUN"
kill -INT -- "-$RUN"
RC=0
wait "$RUN" || RC=$?
LOG="$OUT_DIR/interrupted.log"
[ "$RC" -eq 1 ] || { cat "$LOG" >&2; fail "interrupted run exited $RC (wanted 1)"; }
grep -q "stopped before completion" "$LOG" \
    || { cat "$LOG" >&2; fail "interrupted run did not stop mid-run"; }
grep -q " 0 reassigned," "$LOG" \
    || { cat "$LOG" >&2; fail "Ctrl-C lost in-flight batches instead of draining them"; }
run_service resumed_after_interrupt --checkpoint "$CKPT" --resume \
    || { cat "$OUT_DIR/resumed_after_interrupt.log" >&2; fail "resume after Ctrl-C failed"; }
same_as_reference resumed_after_interrupt
echo "PASS: Ctrl-C drained with 0 reassigned; --resume equals the reference"

# ---------------------------------------------------------------- crash

# SIGKILL the coordinator itself mid-run: the journal keeps what committed
# (a record torn by the kill is dropped on resume). Its workers see their
# pipes close and must exit on their own within the deadline.
CKPT="$OUT_DIR/crashed.ckpt"
rm -f "$CKPT"
service crashed --checkpoint "$CKPT" --progress-timeout-ms "$DEADLINE_MS"
"${RUN_CMD[@]}" 2> "$OUT_DIR/crashed.log" &
RUN=$!
wait_for_record "$CKPT" "$RUN"
WORKERS=$(pgrep -P "$RUN" || true)
[ -n "$WORKERS" ] || fail "no forked worker found before the crash"
kill -KILL "$RUN"
wait "$RUN" 2>/dev/null || true
LEFT=""
for _ in $(seq 1 $((DEADLINE_MS / 50))); do
    LEFT=""
    for pid in $WORKERS; do
        # Gone, or a zombie waiting for whoever adopted it.
        STATE=$(ps -o stat= -p "$pid" 2>/dev/null || true)
        case "$STATE" in "" | Z*) ;; *) LEFT="$LEFT $pid" ;; esac
    done
    [ -z "$LEFT" ] && break
    sleep 0.05
done
[ -z "$LEFT" ] || fail "workers$LEFT outlived their crashed coordinator by ${DEADLINE_MS} ms"
run_service resumed_after_crash --checkpoint "$CKPT" --resume \
    || { cat "$OUT_DIR/resumed_after_crash.log" >&2; fail "resume after crash failed"; }
same_as_reference resumed_after_crash
RESUMED=$(sed -n 's/.*(\([0-9]*\) resumed).*/\1/p' "$OUT_DIR/resumed_after_crash.log" | head -1)
[ "${RESUMED:-0}" -ge 1 ] && [ "$RESUMED" -lt "$EXPECTED" ] \
    || fail "resume after crash replayed ${RESUMED:-0} of $EXPECTED scenarios"
echo "PASS: coordinator crash left no worker behind; --resume replayed" \
     "$RESUMED/$EXPECTED and equals the reference"
