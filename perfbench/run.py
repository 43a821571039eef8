#!/usr/bin/env python3
"""The repo benchmark: builds perfbench from source, then runs workloads.

One workload (the last stdout line is the result JSON):
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every workload, each in its own processes, with a summary table:
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

--seed and --seconds go to the perfbench binary only when given; its
defaults are the benchmark's. An untraced run first makes SETUP_ROUNDS
set-up rounds, each a perfbench process timed from spawn to exit; setup_s
is their median. The rounds hand the output-check references to the
measuring process in a file, so that process never runs the reference
campaign and its peak RSS is the workload's alone.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; traced runs write their spans to <build>/traces/.
"""
import argparse
import ctypes
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["table2_flow", "campaign_hw", "campaign_svc_mixed"]
SETUP_ROUNDS = 3
PR_SET_CHILD_SUBREAPER = 36


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir):
    """Configures (once) and builds the perfbench target; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources next to the benchmark; nothing to build")
        sys.exit(2)
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                log("perfbench: configure failed")
                sys.exit(2)
        cmd = ["cmake", "--build", bdir, "--target", "perfbench", "-j", "4"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("perfbench: build failed")
            sys.exit(2)
    return os.path.join(bdir, "perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def spawn(cmd):
    """Runs one perfbench process and waits for it; returns (exit code, result
    JSON or None, the other stdout lines). The process gets a group of its
    own; whatever it leaves in that group (svc workers, should it die early)
    is killed, and this script, a child subreaper, waits for it too. The
    binary's own alarm bounds how long it can run."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        while True:
            try:
                os.waitpid(-1, 0)
            except ChildProcessError:
                break
    lines = out.strip().splitlines()
    if lines and lines[-1].startswith("{"):
        return proc.returncode, json.loads(lines[-1]), lines[:-1]
    return proc.returncode or 1, None, lines


def run_workload(binary, bdir, workload, flags, trace):
    """Runs one workload; returns (exit code, result JSON or None)."""
    workdir = tempfile.mkdtemp(prefix="work-", dir=bdir)
    reference = os.path.join(workdir, "reference")
    base = [binary, "--workload", workload, "--workdir", workdir] + flags
    status, attempted, failed, setup_s = 0, 0, 0, []
    try:
        if not trace:
            for _ in range(SETUP_ROUNDS):
                start = time.perf_counter()
                code, result, lines = spawn(base + ["--phase", "setup",
                                                    "--reference", reference])
                setup_s.append(time.perf_counter() - start)
                print("\n".join(f"setup: {line}" for line in lines), flush=True)
                if result is None:
                    log(f"perfbench: a set-up round of {workload} gave no result")
                    return 1, None
                status = status or code
                attempted += result["attempted"]
                failed += result["failed"]
            print("metric setup_s " + " ".join(f"{s:.6f}" for s in setup_s)
                  + " s (rounds; setup_s is their median)", flush=True)
        run = base + ["--phase", "run", "--trace", str(trace),
                      "--trace-dir", os.path.join(bdir, "traces")]
        if not trace:
            run += ["--reference", reference]
        code, result, lines = spawn(run)
        print("\n".join(lines), flush=True)
        if result is None:
            log(f"perfbench: {workload} gave no result")
            return 1, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted += result["attempted"]
    failed += result["failed"]
    metrics = {}
    if setup_s:
        metrics["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
    metrics.update(result["metrics"])
    merged = {"correct": failed == 0 and result["correct"], "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return status or code, merged


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    flags = ["--git-sha", git_sha()]
    if args.seed is not None:
        flags += ["--seed", str(args.seed)]
    if args.seconds is not None:
        flags += ["--seconds", repr(args.seconds)]

    if args.workload:
        code, result = run_workload(binary, bdir, args.workload, flags, args.trace)
        if result is not None:
            print(json.dumps(result), flush=True)
        return code

    results, status = {}, 0
    for workload in WORKLOADS:
        code, results[workload] = run_workload(binary, bdir, workload, flags, args.trace)
        status = status or code
    print(f"\n{'workload':<20} {'metric':<34} {'value':>18} unit")
    for workload, result in results.items():
        if result is None:
            print(f"{workload:<20} (no result)")
            continue
        fail_frac = result["failed"] / result["attempted"]
        print(f"{workload:<20} {'fail_frac':<34} {fail_frac:>18.6g} ratio")
        for name, m in result["metrics"].items():
            print(f"{workload:<20} {name:<34} {m['value']:>18.6g} {m['unit']}")
    seed = args.seed if args.seed is not None else "default"
    path = os.path.join(bdir, f"results-seed{seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
    print(f"results written to {os.path.relpath(path, ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
