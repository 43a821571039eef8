#!/usr/bin/env bash
# Flag and job-spec parsing of the campaign CLI: out-of-range numbers and
# invalid grids must exit 2 (with the usage text) before any work starts,
# and seeds must parse as full 64-bit values instead of wrapping.
#
# Usage: tests/campaign_cli.sh CAMPAIGN_BINARY
set -uo pipefail

BIN="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
status=0

# expect_exit WANT ARGS... — runs the binary and checks its exit code.
expect_exit() {
    local want="$1" rc=0
    shift
    "$BIN" "$@" > "$WORK/out" 2> "$WORK/err" || rc=$?
    if [ "$rc" -ne "$want" ]; then
        cat "$WORK/err" >&2
        echo "FAIL: campaign $* exited $rc (wanted $want)" >&2
        status=1
    else
        echo "ok: campaign $* exits $rc"
    fi
}

expect_exit 2 --seed 18446744073709551616 --cycles 1 --json
expect_exit 2 --threads 4294967298 --cycles 1 --json
expect_exit 2 --threads 0 --cycles 1 --json
expect_exit 2 --cycles 1 --batch 2 --json   # service flag without --workers
# Flags and a chaos phase of the removed work-stealing and speculation
# machinery are unknown now, not silently ignored.
expect_exit 2 --workers 2 --shard 4 --cycles 1 --json
expect_exit 2 --workers 2 --steal-min 2 --cycles 1 --json
expect_exit 2 --workers 2 --straggler-factor 2 --cycles 1 --json
expect_exit 2 --workers 2 --chaos-crash pre-truncate-ack --cycles 1 --json
# The fault-injection flags and the worker re-exec mode left the shipped
# binary (tests inject worker faults through svc::WorkerFaults).
for flag in --chaos-seed --chaos-hang --chaos-torn --chaos-corrupt-length \
            --chaos-corrupt-payload --chaos-drop --chaos-delay --chaos-slow \
            --chaos-slow-ms --chaos-crash --chaos-crash-after \
            --chaos-tear-checkpoint --chaos-tear-bytes --chaos-only-worker; do
    expect_exit 2 --workers 2 "$flag" 1 --cycles 1 --json
done
expect_exit 2 --workers 2 --chaos-all-generations --cycles 1 --json
expect_exit 2 --campaign-worker
# The report holds its outcomes in memory; there is no spool file to name.
expect_exit 2 --workers 2 --spool x --cycles 1 --json
# One deadline supervises the workers: the heartbeat, liveness and restart
# backoff flags are unknown, and the deadline must be at least 1 ms.
expect_exit 2 --workers 2 --heartbeat-ms 1000 --cycles 1 --json
expect_exit 2 --workers 2 --heartbeat-miss-limit 3 --cycles 1 --json
expect_exit 2 --workers 2 --liveness-timeout-ms 1000 --cycles 1 --json
expect_exit 2 --workers 2 --restart-backoff-ms 10 --cycles 1 --json
expect_exit 2 --workers 2 --no-restart --cycles 1 --json
expect_exit 2 --workers 2 --progress-timeout-ms 0 --cycles 1 --json
# A fleet that starts below --min-workers is refused before any fork.
expect_exit 2 --workers 2 --min-workers 3 --cycles 1 --json
printf '{"upset_rates":[1e999]}\n' > "$WORK/inf.json"
expect_exit 2 --spec "$WORK/inf.json" --cycles 1 --json

# 2^32 must be its own seed, not 0 after truncation to 32 bits.
expect_exit 0 --seed 4294967296 --cycles 1 --threads 2 --json
mv "$WORK/out" "$WORK/seed_2p32.json"
expect_exit 0 --seed 0 --cycles 1 --threads 2 --json
if cmp -s "$WORK/out" "$WORK/seed_2p32.json"; then
    echo "FAIL: --seed 4294967296 and --seed 0 gave the same report" >&2
    status=1
fi

exit "$status"
