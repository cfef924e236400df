#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark binary is built from
the sources in the checkout (perfbench/CMakeLists.txt compiles the
libraries under src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; build output goes to stderr.

An untraced run (--trace 0) starts the binary PROCESSES times in
turn, each measuring for an equal share of --seconds on the same
inputs, and reports for every metric the median over the processes:
a process's own state (where the allocator and the kernel put its
memory and threads) moves its figures, so one process is one sample.
A traced run (--trace 1) starts it once. The binary's stdout is
passed through; the last line is the JSON result. Spans of a traced
run are written to <build dir>/../perfbench-spans/<workload>-seed<n>.json.

Exit code: 0 when every process completed and every output check
passed, 1 when a check failed, 2 when the checkout is incomplete,
the build fails or a process ends without a result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
# Processes an untraced run takes its medians over (odd, so that each
# median is a measured value).
PROCESSES = 3


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def build(build_dir):
    """Configure (once) and build the benchmark binary."""
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        os.makedirs(build_dir, exist_ok=True)
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + gen,
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    out = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "fa3c_perfbench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    return out.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail(f"{ROOT} holds no src/ tree to build; run from a "
                    "full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    if not build(build_dir):
        return fail("build failed")

    exe = os.path.join(build_dir, "fa3c_perfbench")
    processes = PROCESSES if args.trace == "0" else 1
    try:
        seconds = float(args.seconds) / processes
    except ValueError:
        return fail("--seconds must be a number")
    cmd = [exe, "--workload", args.workload, "--seed", args.seed,
           "--seconds", repr(seconds), "--trace", args.trace,
           "--span-dir", os.path.join(target, "perfbench-spans")]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for _ in range(processes):
        try:
            run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                 timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        sys.stdout.write(run.stdout)
        sys.stdout.flush()
        lines = run.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if run.returncode not in (0, 1) or not isinstance(result, dict):
            return fail(f"the benchmark binary exited with {run.returncode} "
                        "without a result")
        results.append(result)
    if processes == 1:
        return 0 if results[0]["correct"] else 1

    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
