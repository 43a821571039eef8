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
# A value of the wrong JSON kind is refused naming its key.
printf '{"variants":"software"}\n' > "$WORK/kind.json"
expect_exit 2 --spec "$WORK/kind.json" --cycles 1 --json
if ! grep -q "variants: expected array" "$WORK/err"; then
    echo "FAIL: the wrongly typed variants value is refused without its key" >&2
    status=1
fi

# A journal of outcome codec 1, whose lines still carried their scenario, is
# refused with both codec versions named instead of being resumed. The fresh
# run supplies a header with this job's fingerprint.
printf '{"variants":["monolithic-hw"],"parts":["xc3s200"],"ports":["jcap"],"cycles":1}\n' \
    > "$WORK/one.json"
expect_exit 0 --spec "$WORK/one.json" --workers 1 --checkpoint "$WORK/fresh.ckpt" --json
codec="$(head -n 1 "$WORK/fresh.ckpt" | sed -n 's/.* codec \([0-9]*\) .*/\1/p')"
codec1_line='{"name":"monolithic-hw|xc3s200|jcap|n0.001|u0|f0.10-0.90","variant":1,"part":1,"port":0,"fill_start":"0x1.999999999999ap-4","fill_end":"0x1.ccccccccccccdp-1","noise_rms_v":"0x1.0624dd2f1a9fcp-10","upset_rate":"0x0p+0","load_corruption_prob":"0x0p+0","flash_error_prob":"0x0p+0","glitch_prob_per_cycle":"0x0p+0","cycles":1,"seed":7,"ok":true,"error":"","level_error_mean":"0x1p-7","level_error_max":"0x1p-6","cycle_busy_ms":"0x1.8p+3","reconfig_ms_per_cycle":"0x0p+0","static_mw":"0x1.4p+5","dynamic_mw":"0x1p+1","reconfig_energy_mj":"0x0p+0","upsets_injected":0,"upsets_detected":0,"columns_repaired":0,"load_retries":0,"load_failures":0,"rejected_cycles":0,"fallback_cycles":0,"availability":"0x1p+0","mttd_ms":"0x0p+0","mttr_ms":"0x0p+0","scrub_ms_per_cycle":"0x0p+0","resident_slices":1200,"fitted_part":"xc3s200","device_fits":true}'
{
    head -n 1 "$WORK/fresh.ckpt" | sed 's/ codec [0-9]* / codec 1 /'
    printf 'b 0 1\n%s\ne 0\n' "$codec1_line"
} > "$WORK/codec1.ckpt"
expect_exit 2 --spec "$WORK/one.json" --workers 2 --checkpoint "$WORK/codec1.ckpt" \
    --resume --json
if ! grep -q "codec 1" "$WORK/err" || ! grep -q "codec $codec" "$WORK/err"; then
    echo "FAIL: the codec-1 journal's refusal does not name codec 1 and codec $codec" >&2
    status=1
fi

# 2^32 must be its own seed, not 0 after truncation to 32 bits.
expect_exit 0 --seed 4294967296 --cycles 1 --threads 2 --json
mv "$WORK/out" "$WORK/seed_2p32.json"
expect_exit 0 --seed 0 --cycles 1 --threads 2 --json
if cmp -s "$WORK/out" "$WORK/seed_2p32.json"; then
    echo "FAIL: --seed 4294967296 and --seed 0 gave the same report" >&2
    status=1
fi

exit "$status"
